//! Starting, probing and stopping the `merced serve` / `merced cluster`
//! processes a workload talks to.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::client;
use crate::workload::Workload;

/// Flags every compile server runs with.
const SERVE_FLAGS: [&str; 5] = ["--workers", "2", "--jobs", "1", "--quiet"];

/// How long a server may take to become healthy or to drain.
const PATIENCE: Duration = Duration::from_secs(30);

/// One running server process.
#[derive(Debug)]
struct Proc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Proc {
    /// Spawns `merced <args>` and reads the address it bound from its
    /// `… listening on <addr>` line.
    fn spawn(merced: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(merced)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", merced.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "merced {} printed no address: {line:?}",
                    args.join(" ")
                ))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in KiB.
    fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Asks the server to drain and waits for it to exit; kills it if it
    /// does not within [`PATIENCE`].
    fn stop(&mut self) -> Result<(), String> {
        let asked = client::exchange(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + PATIENCE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server at {} exited with {status}", self.addr))
                }
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err(format!(
            "server at {} did not drain ({asked:?}); killed",
            self.addr
        ))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The server processes behind one workload's entry address.
#[derive(Debug)]
pub struct Deployment {
    /// Compile servers, in start order.
    shards: Vec<Proc>,
    /// The cluster router, when the workload routes.
    router: Option<Proc>,
}

/// How a deployment's compile servers use the store.
#[derive(Debug, Clone)]
pub enum StoreMode {
    /// Memory only.
    None,
    /// Write through to this directory.
    WriteThrough(PathBuf),
    /// Serve from this directory with a one-entry hot cache, so repeats
    /// are read from disk.
    ColdCache(PathBuf),
}

impl Deployment {
    /// The command lines a workload's timed deployment runs.
    #[must_use]
    pub fn command_lines(workload: Workload, store: &StoreMode) -> Vec<String> {
        let shard = serve_args(store).join(" ");
        match workload {
            Workload::RoutedHit => vec![
                format!("merced {shard}"),
                format!("merced {shard}"),
                format!(
                    "merced {}",
                    router_args(&["<shard0>".into(), "<shard1>".into()]).join(" ")
                ),
            ],
            _ => vec![format!("merced {shard}")],
        }
    }

    /// Starts the processes a workload talks to and waits until every
    /// one answers `/healthz`.
    ///
    /// # Errors
    ///
    /// A process that fails to start or to become healthy.
    pub fn start(merced: &Path, workload: Workload, store: &StoreMode) -> Result<Self, String> {
        let shard_count = if workload == Workload::RoutedHit {
            2
        } else {
            1
        };
        let mut deployment = Deployment {
            shards: Vec::new(),
            router: None,
        };
        for _ in 0..shard_count {
            deployment
                .shards
                .push(Proc::spawn(merced, &serve_args(store))?);
        }
        if workload == Workload::RoutedHit {
            let backends: Vec<String> = deployment
                .shards
                .iter()
                .map(|p| p.addr.to_string())
                .collect();
            deployment.router = Some(Proc::spawn(merced, &router_args(&backends))?);
        }
        for addr in deployment
            .shards
            .iter()
            .chain(&deployment.router)
            .map(|p| p.addr)
        {
            wait_healthy(addr)?;
        }
        Ok(deployment)
    }

    /// The address clients send compile requests to.
    #[must_use]
    pub fn entry(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.shards[0]).addr
    }

    /// The compile servers (not the router), for `/metrics` scrapes.
    #[must_use]
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|p| p.addr).collect()
    }

    /// Summed peak resident memory of every process, in MiB.
    ///
    /// # Errors
    ///
    /// A process whose `/proc` status cannot be read.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        self.shards
            .iter()
            .chain(&self.router)
            .map(|p| {
                p.peak_rss_kib()
                    .ok_or_else(|| format!("no VmHWM for {}", p.addr))
            })
            .sum::<Result<u64, String>>()
            .map(|kib| kib as f64 / 1024.0)
    }

    /// Drains every process, router first, and waits for all to exit.
    ///
    /// # Errors
    ///
    /// The first process that did not exit cleanly (all are still
    /// stopped).
    pub fn stop(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for proc in self.router.iter_mut().chain(&mut self.shards) {
            let stopped = proc.stop();
            if result.is_ok() {
                result = stopped;
            }
        }
        result
    }
}

fn serve_args(store: &StoreMode) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0"]
        .iter()
        .chain(&SERVE_FLAGS)
        .map(|s| (*s).to_owned())
        .collect();
    match store {
        StoreMode::None => {}
        StoreMode::WriteThrough(dir) => {
            args.extend(["--store".to_owned(), dir.display().to_string()]);
        }
        StoreMode::ColdCache(dir) => args.extend([
            "--store".to_owned(),
            dir.display().to_string(),
            "--cache-cap".to_owned(),
            "1".to_owned(),
        ]),
    }
    args
}

fn router_args(backends: &[String]) -> Vec<String> {
    let mut args: Vec<String> = [
        "cluster",
        "--addr",
        "127.0.0.1:0",
        "--replication",
        "1",
        "--jobs",
        "1",
        "--quiet",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for backend in backends {
        args.extend(["--backend".to_owned(), backend.clone()]);
    }
    args
}

/// Polls `GET /healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        match client::exchange(addr, "GET", "/healthz", "") {
            Ok((200, _)) => return Ok(()),
            other if Instant::now() >= deadline => {
                return Err(format!("{addr} never became healthy: {other:?}"))
            }
            _ => thread::sleep(Duration::from_millis(2)),
        }
    }
}
