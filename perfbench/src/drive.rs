//! The closed-loop load generator: each client thread sends its next
//! request only after the previous answer has fully arrived.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::client;
use crate::workload::Req;

/// Client threads, one open connection each.
pub const CLIENTS: usize = 2;

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request's stream index.
    pub index: usize,
    /// Connect to last response byte.
    pub latency: Duration,
    /// Which [`Answers`] entry the response was, when it was a 200.
    pub answer: Option<usize>,
    /// Why the request failed: no response, a non-200 status, or an
    /// answer that differs from an earlier one for the same request.
    pub failure: Option<String>,
}

/// The first answer to one distinct request body.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request.
    pub req: Req,
    /// The response body.
    pub body: Vec<u8>,
}

/// Every distinct request answered so far, with its first answer. A
/// later answer for the same body must be byte-identical to it.
#[derive(Debug, Default)]
pub struct Answers {
    book: Mutex<(HashMap<String, usize>, Vec<Answer>)>,
}

impl Answers {
    /// Records `body` as an answer to `req`: returns the entry id, and an
    /// error when an earlier answer to the same request differs.
    pub fn record(&self, req: &Req, body: &[u8]) -> (usize, Result<(), String>) {
        let mut book = self.book.lock().expect("answer book lock poisoned");
        let (ids, entries) = &mut *book;
        if let Some(&id) = ids.get(&req.body) {
            let same = if entries[id].body == body {
                Ok(())
            } else {
                Err(format!(
                    "{} answered differently from an earlier answer",
                    req.circuit
                ))
            };
            return (id, same);
        }
        ids.insert(req.body.clone(), entries.len());
        entries.push(Answer {
            req: req.clone(),
            body: body.to_vec(),
        });
        (entries.len() - 1, Ok(()))
    }

    /// Forgets every answer (a new server process answers from scratch).
    pub fn clear(&self) {
        *self.book.lock().expect("answer book lock poisoned") = Default::default();
    }

    /// A copy of every recorded answer, indexed by entry id.
    #[must_use]
    pub fn entries(&self) -> Vec<Answer> {
        self.book
            .lock()
            .expect("answer book lock poisoned")
            .1
            .clone()
    }
}

/// When a closed loop stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After exactly this many requests.
    Count(usize),
    /// At the first block boundary after this much time, so the run
    /// completes whole blocks of the mix.
    Deadline {
        /// Minimum measured time.
        time: Duration,
        /// Requests per block.
        block: usize,
    },
}

/// The samples of one closed-loop run.
#[derive(Debug)]
pub struct Load {
    /// Every request sent, in completion order per client.
    pub samples: Vec<Sample>,
    /// Start of the first request to end of the last.
    pub elapsed: Duration,
}

/// Runs [`CLIENTS`] closed-loop clients against `addr`, sending
/// `make(0)`, `make(1)`, … until `until` says stop.
pub fn closed_loop(
    addr: SocketAddr,
    until: Until,
    make: &(dyn Fn(usize) -> Req + Sync),
    answers: &Answers,
) -> Load {
    let cursor = Mutex::new(0usize);
    let start = Instant::now();
    let next = || {
        let mut next = cursor.lock().expect("cursor lock poisoned");
        let stop = match until {
            Until::Count(n) => *next >= n,
            Until::Deadline { time, block } => {
                next.is_multiple_of(block) && start.elapsed() >= time
            }
        };
        if stop {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    };
    let mut samples = Vec::new();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(index) = next() {
                        mine.push(one_request(addr, index, &make(index), answers));
                    }
                    mine
                })
            })
            .collect();
        for worker in workers {
            samples.extend(worker.join().expect("client thread panicked"));
        }
    });
    Load {
        samples,
        elapsed: start.elapsed(),
    }
}

fn one_request(addr: SocketAddr, index: usize, req: &Req, answers: &Answers) -> Sample {
    let bytes = client::request_bytes("POST", "/compile", &req.body);
    let started = Instant::now();
    let raw = client::round_trip(addr, &bytes);
    let latency = started.elapsed();
    let (answer, failure) = match raw
        .as_deref()
        .map_err(ToString::to_string)
        .and_then(client::split_response)
    {
        Ok((200, body)) => {
            let (id, same) = answers.record(req, body);
            (Some(id), same.err())
        }
        Ok((status, body)) => (
            None,
            Some(format!(
                "status {status}: {}",
                String::from_utf8_lossy(body).trim()
            )),
        ),
        Err(e) => (None, Some(format!("no response: {e}"))),
    };
    Sample {
        index,
        latency,
        answer,
        failure,
    }
}
