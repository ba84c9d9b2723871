//! The benchmark's HTTP/1.1 client: one request per connection, the
//! protocol `merced serve` and `merced cluster` speak. It is the
//! benchmark's own rather than the program's, so a change to the
//! program's HTTP code cannot change how that code is measured.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits on a silent server before counting the
/// request as unanswered.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The exact bytes of one request.
#[must_use]
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Connects, sends `request`, and reads the whole response (the server
/// closes the connection after it).
///
/// # Errors
///
/// Any connect, write or read failure, including the read timeout.
pub fn round_trip(addr: SocketAddr, request: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// Splits a raw response into its status code and body.
///
/// # Errors
///
/// A description of the framing problem.
pub fn split_response(raw: &[u8]) -> Result<(u16, &[u8]), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", head.lines().next().unwrap_or("")))?;
    Ok((status, &raw[head_end + 4..]))
}

/// One request/response exchange; returns the status and body.
///
/// # Errors
///
/// Transport failures and malformed responses, as text.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let raw = round_trip(addr, &request_bytes(method, path, body)).map_err(|e| e.to_string())?;
    let (status, body) = split_response(&raw)?;
    Ok((status, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(split_response(raw).unwrap(), (200, &b"ok"[..]));
        assert!(split_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
