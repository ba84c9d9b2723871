//! The traced replay: the timed run's requests again, on one thread and
//! in-process, through each layer's public functions in the order the
//! server calls them. Every call is a span with the request's id and its
//! parent; spans stay in memory until the run ends.
//!
//! The replay mirrors `ppet_serve::server` (read, parse, normalize, key,
//! cache claim, store fetch + `verify_stored` or compile + store put,
//! cache complete, write) and, for routed traffic, the cluster router in
//! front of it (read, parse, normalize, key, ring route, proxy). Socket
//! transport, accept polling, thread hand-offs and queue waits are not
//! replayed: they are what the client sees beyond the traced layers.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ppet_cluster::{Ring, DEFAULT_VNODES};
use ppet_core::{Merced, MercedBackend, MercedConfig};
use ppet_netlist::canonical::canonical_bytes;
use ppet_serve::{http, CacheKey, Claim, CompileBackend, CompileRequest, ResultCache};
use ppet_store::{Store, StoreConfig, StoreStats};

use crate::client;
use crate::workload::Req;

/// Largest request body the server accepts (`ServeConfig` default).
const MAX_BODY: usize = 4 << 20;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The replayed request's id (its stream index).
    pub request: u32,
    /// The enclosing span, `None` for a request's root.
    pub parent: Option<u32>,
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the replay began.
    pub start_ns: u64,
    /// End, in ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log; a span's id is its index.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, request: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            request,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as a span named `name` under `parent`.
    fn time<T>(
        &mut self,
        request: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Work counts the replay saw, for the count-valued layer metrics.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// `normalize` calls and the cells they resolved.
    pub normalized: u64,
    /// Cells resolved, summed over `normalize` calls.
    pub cells: u64,
    /// Bytes hashed into cache keys, summed over `CacheKey::of` calls.
    pub key_bytes: u64,
    /// Compiles run.
    pub compiles: u64,
    /// Flow and assign counters, summed over compiles, by name.
    pub counters: Vec<(String, u64)>,
}

impl Counts {
    fn add_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_owned(), value)),
        }
    }
}

/// One compile server's state.
struct Shard {
    cache: ResultCache,
    store: Option<Store>,
}

/// How the replay's servers are set up.
#[derive(Debug)]
pub struct Layout<'a> {
    /// Whether a router sits in front of two compile servers (else
    /// there is one).
    pub routed: bool,
    /// The hot cache's capacity.
    pub cache_capacity: usize,
    /// Store directory of the (single) compile server, if it has one.
    pub store: Option<&'a Path>,
}

/// Store measurements taken by the replay.
#[derive(Debug, Clone, Default)]
pub struct StoreFigures {
    /// `Store::open` times, ms, one per open.
    pub open_ms: Vec<f64>,
    /// Records replayed by the last open.
    pub recovered: u64,
}

/// The replay engine.
pub struct Replayer {
    backend: MercedBackend,
    shards: Vec<Shard>,
    ring: Option<Ring>,
    log: SpanLog,
    counts: Counts,
    store_figures: Option<StoreFigures>,
}

/// Times the store is opened to price `Store::open`.
const STORE_OPENS: usize = 3;

impl Replayer {
    /// Builds the servers of `layout` in-process, with the base
    /// configuration `merced serve` uses by default.
    ///
    /// # Errors
    ///
    /// A store that cannot be opened.
    pub fn new(layout: &Layout<'_>) -> Result<Self, String> {
        let mut store_figures = None;
        let mut shards = Vec::new();
        let count = if layout.routed { 2 } else { 1 };
        for _ in 0..count {
            let store = match layout.store {
                Some(dir) => {
                    let mut figures = StoreFigures::default();
                    let mut store = None;
                    for _ in 0..STORE_OPENS {
                        drop(store.take());
                        let started = Instant::now();
                        let opened = Store::open(dir, StoreConfig::default())
                            .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
                        figures.open_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        figures.recovered = opened.stats().recovered;
                        store = Some(opened);
                    }
                    store_figures = Some(figures);
                    store
                }
                None => None,
            };
            shards.push(Shard {
                cache: ResultCache::with_capacity(layout.cache_capacity),
                store,
            });
        }
        Ok(Replayer {
            backend: MercedBackend::new(MercedConfig::default().with_jobs(1)),
            shards,
            ring: layout.routed.then(|| Ring::new(count, DEFAULT_VNODES)),
            log: SpanLog::new(),
            counts: Counts::default(),
            store_figures,
        })
    }

    /// Sends `reqs` through the servers without keeping their spans or
    /// counts: the set-up the timed run's warm-up did.
    ///
    /// # Errors
    ///
    /// A request the servers could not answer.
    pub fn warm(&mut self, reqs: &[Req]) -> Result<(), String> {
        let spans = self.log.spans.len();
        let counts = self.counts.clone();
        for req in reqs {
            self.replay(u32::MAX, req)?;
        }
        self.log.spans.truncate(spans);
        self.counts = counts;
        Ok(())
    }

    /// Replays one request as request `id`; returns the answer body.
    ///
    /// # Errors
    ///
    /// A failure of any layer, as text.
    pub fn replay(&mut self, id: u32, req: &Req) -> Result<Arc<String>, String> {
        let bytes = client::request_bytes("POST", "/compile", &req.body);
        let root = self.log.open(id, None, "request");
        let body = if self.ring.is_some() {
            self.route(id, root, &bytes)
        } else {
            self.serve(id, root, 0, &bytes)
        };
        self.log.close(root);
        body
    }

    /// The span log.
    #[must_use]
    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    /// The work counts so far.
    #[must_use]
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// The (single) compile server's store figures and current stats,
    /// when it has a store.
    #[must_use]
    pub fn store_report(&self) -> Option<(&StoreFigures, StoreStats)> {
        let store = self.shards.first()?.store.as_ref()?;
        Some((self.store_figures.as_ref()?, store.stats()))
    }

    /// The router's path: read, parse, normalize, key, ring route, then
    /// the chosen shard's path as the proxy span's child, then write.
    fn route(&mut self, r: u32, root: u32, bytes: &[u8]) -> Result<Arc<String>, String> {
        let (request, normalized) = self.front(r, root, bytes)?;
        let key = self.key(r, root, &normalized);
        let ring = self.ring.as_ref().expect("route runs only with a ring");
        let backends = ring.backends();
        let shard = self
            .log
            .time(r, root, "ring.route", || {
                ring.route(key.0, backends, |_| true)
            })
            .first()
            .copied()
            .ok_or("ring routed to no backend")?;
        let forwarded = client::request_bytes("POST", "/compile", &request.body);
        let proxy = self.log.open(r, Some(root), "proxy");
        let body = self.serve(r, proxy, shard, &forwarded);
        self.log.close(proxy);
        let body = body?;
        self.write(r, root, &body)?;
        Ok(body)
    }

    /// The compile server's path, mirroring `Service::compile_inner`.
    fn serve(
        &mut self,
        r: u32,
        parent: u32,
        shard: usize,
        bytes: &[u8],
    ) -> Result<Arc<String>, String> {
        let (_, normalized) = self.front(r, parent, bytes)?;
        let key = self.key(r, parent, &normalized);
        let claim = {
            let cache = &self.shards[shard].cache;
            self.log.time(r, parent, "cache.claim", || cache.claim(key))
        };
        let body = match claim {
            Claim::Hit(body) => body,
            Claim::Wait(_) => return Err("a single-threaded replay never coalesces".into()),
            Claim::Compute(_gate) => {
                let store = self.shards[shard].store.as_ref();
                let stored = match store {
                    Some(store) => self.log.time(r, parent, "store.get", || store.get(key.0)),
                    None => None,
                };
                let body = match stored {
                    Some(bytes) => {
                        let text =
                            String::from_utf8(bytes).map_err(|_| "stored body is not UTF-8")?;
                        let backend = &self.backend;
                        self.log
                            .time(r, parent, "verify_stored", || backend.verify_stored(&text))
                            .map_err(|e| e.to_string())?;
                        Arc::new(text)
                    }
                    None => {
                        let json = self.compile(r, parent, &normalized)?;
                        if let Some(store) = self.shards[shard].store.as_ref() {
                            self.log
                                .time(r, parent, "store.put", || store.put(key.0, json.as_bytes()))
                                .map_err(|e| format!("store put: {e}"))?;
                        }
                        Arc::new(json)
                    }
                };
                let cache = &self.shards[shard].cache;
                self.log.time(r, parent, "cache.complete", || {
                    cache.complete(key, Arc::clone(&body))
                });
                body
            }
        };
        self.write(r, parent, &body)?;
        Ok(body)
    }

    /// Read, parse and normalize: the front of both the router and the
    /// compile server.
    fn front(
        &mut self,
        r: u32,
        parent: u32,
        bytes: &[u8],
    ) -> Result<(http::Request, ppet_serve::NormalizedRequest), String> {
        let request = self
            .log
            .time(r, parent, "http.read", || {
                http::read_request(bytes, MAX_BODY)
            })
            .map_err(|e| e.to_string())?;
        let parsed = self.log.time(r, parent, "request.parse", || {
            CompileRequest::from_json(&request.body)
        })?;
        let backend = &self.backend;
        let normalized = self
            .log
            .time(r, parent, "normalize", || backend.normalize(&parsed))
            .map_err(|e| e.to_string())?;
        self.counts.normalized += 1;
        self.counts.cells += normalized.circuit.num_cells() as u64;
        Ok((request, normalized))
    }

    fn key(&mut self, r: u32, parent: u32, normalized: &ppet_serve::NormalizedRequest) -> CacheKey {
        let key = self.log.time(r, parent, "key", || CacheKey::of(normalized));
        // Every field is hashed as an 8-byte length frame plus its bytes.
        let frames: usize = normalized
            .config_entries
            .iter()
            .map(|(k, v)| 16 + k.len() + v.len())
            .sum();
        self.counts.key_bytes +=
            (8 + canonical_bytes(&normalized.circuit).len() + frames + 16) as u64;
        key
    }

    /// The compile job: `Merced::compile` timed from outside, its phases
    /// laid out as child spans from the report's own phase times, then
    /// the manifest serialization.
    fn compile(
        &mut self,
        r: u32,
        parent: u32,
        normalized: &ppet_serve::NormalizedRequest,
    ) -> Result<String, String> {
        let span = self.log.open(r, Some(parent), "compile");
        let report = MercedConfig::from_manifest_entries(&normalized.config_entries)
            .map(|config| config.with_seed(normalized.seed).with_jobs(1))
            .and_then(|config| {
                Merced::new(config)
                    .compile(&normalized.circuit)
                    .map_err(|e| e.to_string())
            });
        self.log.close(span);
        let report = report?;
        let mut at = self.log.spans[span as usize].start_ns;
        for phase in &report.phases {
            self.log.spans.push(Span {
                request: r,
                parent: Some(span),
                name: phase.name,
                start_ns: at,
                end_ns: at + phase.wall_ns,
            });
            at += phase.wall_ns;
        }
        let (manifest, json) = self.log.time(r, parent, "manifest.to_json", || {
            let manifest = report.run_manifest();
            let json = manifest.to_json();
            (manifest, json)
        });
        self.counts.compiles += 1;
        for (name, value) in &manifest.totals {
            self.counts.add_counter(name, *value);
        }
        Ok(json)
    }

    fn write(&mut self, r: u32, parent: u32, body: &str) -> Result<(), String> {
        let id = format!("perfbench-{r}");
        let mut out = Vec::with_capacity(body.len() + 256);
        self.log
            .time(r, parent, "http.write", || {
                http::write_response_with(
                    &mut out,
                    200,
                    "application/json",
                    &[(ppet_serve::REQUEST_ID_HEADER, &id)],
                    body,
                )
            })
            .map_err(|e| e.to_string())
    }
}

/// Self time of every span: its duration minus what its children cover.
/// Negative when children overrun their parent, which the consistency
/// check rejects.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= i128::from(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            request,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(0, Some(0), "compile", 10, 80),
            span(0, Some(1), "saturate_network", 10, 70),
            span(0, Some(0), "http.write", 80, 95),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![15, 10, 60, 15]);
        assert_eq!(own.iter().sum::<i128>(), 100);
    }

    #[test]
    fn replay_of_a_hit_matches_the_first_answer() {
        let mut replayer = Replayer::new(&Layout {
            routed: false,
            cache_capacity: 8,
            store: None,
        })
        .unwrap();
        let plan = crate::workload::Plan::new(crate::workload::Workload::ColdCompile, 1);
        let req = plan.warmup[0].clone();
        let first = replayer.replay(0, &req).unwrap();
        let again = replayer.replay(1, &req).unwrap();
        assert_eq!(first, again, "the second answer is the cached first");
        let names: Vec<&str> = replayer
            .log()
            .spans()
            .iter()
            .filter(|s| s.request == 1)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "request",
                "http.read",
                "request.parse",
                "normalize",
                "key",
                "cache.claim",
                "http.write"
            ]
        );
        assert_eq!(replayer.counts().compiles, 1);
    }
}
