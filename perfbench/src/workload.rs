//! The four traffic mixes and their seeded request generator.
//!
//! Every request the servers see comes from [`Plan::request`], a pure
//! function of the workload, the `--seed` and the request's index, so a
//! seed reproduces the same request list and the traced replay can
//! regenerate exactly the requests the timed run sent. Streams are cut
//! into blocks: each block holds a fixed mix of requests in a seeded
//! order, and a timed run always completes whole blocks, so two runs
//! measure the same mix whatever order the seed drew.

use ppet_core::resolve_builtin;
use ppet_netlist::writer::to_bench;
use ppet_serve::CompileRequest;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a distinct (circuit, seed): a full compile each.
    ColdCompile,
    /// A working set compiled during set-up, then repeated: all hits.
    HotHit,
    /// A fresh `--cache-cap 1` server over a store an earlier server
    /// filled: mostly store reads, one new small compile in five.
    StoreRestart,
    /// The hot-hit working set through `merced cluster` and two shards.
    RoutedHit,
}

impl Workload {
    /// Every workload the benchmark can run. `BENCHMARK.json` lists all
    /// but `RoutedHit` (see `NOTES.md`).
    pub const ALL: [Workload; 4] = [
        Workload::ColdCompile,
        Workload::HotHit,
        Workload::StoreRestart,
        Workload::RoutedHit,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::HotHit => "hot-hit",
            Workload::StoreRestart => "store-restart",
            Workload::RoutedHit => "routed-hit",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The cold-compile circuits, one block of sixteen requests: s1423 is two
/// in sixteen (one in eight), and s641 sits on the median so the p50 is
/// read inside one circuit's mass rather than on the edge between two.
/// s5378 (about nine seconds a compile) is left out.
const COLD_MIX: [&str; 16] = [
    "s27", "s420.1", "s510", "s510", "s820", "s820", "s641", "s641", "s641", "s832", "s832",
    "s713", "s713", "s838.1", "s1423", "s1423",
];

/// The circuits of the hot working set (the cold-compile circuits).
const HOT_CIRCUITS: [&str; 9] = [
    "s27", "s420.1", "s510", "s641", "s713", "s820", "s832", "s838.1", "s1423",
];

/// Builtins the store-restart fill compiles next to its inverter chains.
const STORE_BUILTINS: [&str; 5] = ["s27", "s420.1", "s510", "s641", "s820"];

/// Inverter chains the store-restart fill compiles.
const STORE_CHAINS: usize = 24;

/// Store-restart block: four repeats and one new chain variant.
const STORE_BLOCK: usize = 5;

/// Shortest and longest generated inverter chain. Up to 80 inverters a
/// chain compiles in a few ms, inside one 15 ms accept-poll period, so a
/// new chain costs store writes and a small compile, not an extra poll.
const CHAIN_LENGTHS: std::ops::RangeInclusive<u64> = 20..=80;

/// Warm-up requests of the workloads whose set-up compiles nothing big.
/// Each one waits out part of a server accept-poll period, so a handful
/// of them makes `setup_s` a sum over several periods instead of one.
const WARMUPS: usize = 16;

/// Request name of every inverter-chain variant.
pub const CHAIN_NAME: &str = "inv_chain";

/// Seed and config overrides that reproduce a `recorded/golden` manifest,
/// so at least one answer per run is checked against the corpus.
fn golden_spec(circuit: &str) -> Option<(u64, &'static [(&'static str, &'static str)])> {
    match circuit {
        "s27" => Some((1996, &[("cbit_length", "4")])),
        "s510" => Some((1996, &[])),
        "s641" => Some((1996, &[("policy", "solver")])),
        _ => None,
    }
}

/// SplitMix64: a tiny seeded generator, kept here so the generated
/// inputs do not change when the program's own generators do.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded from a stream id and a sub-stream id.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated compile request and what its answer must show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The `POST /compile` body.
    pub body: String,
    /// Circuit name the answering manifest must carry.
    pub circuit: String,
    /// Seed the answering manifest must carry.
    pub seed: u64,
    /// Config overrides the request carries; the manifest must echo them.
    pub config: Vec<(String, String)>,
    /// The inline `.bench` source, when the request embeds one.
    pub bench: Option<String>,
}

impl Req {
    fn new(circuit: &str, seed: u64, config: &[(&str, &str)], bench: Option<String>) -> Self {
        let mut request = match &bench {
            Some(source) => {
                let mut r = CompileRequest::bench(source);
                r.name = Some(circuit.to_owned());
                r
            }
            None => CompileRequest::builtin(circuit),
        };
        for (k, v) in config {
            request = request.with_config(k, v);
        }
        request = request.with_seed(seed);
        Req {
            body: request.to_json(),
            circuit: circuit.to_owned(),
            seed,
            config: request.config,
            bench,
        }
    }

    /// A builtin request.
    fn builtin(circuit: &str, seed: u64, config: &[(&str, &str)]) -> Self {
        Self::new(circuit, seed, config, None)
    }

    /// The same circuit embedded as an inline `.bench` body.
    fn inline(circuit: &str, source: &str, seed: u64, config: &[(&str, &str)]) -> Self {
        Self::new(circuit, seed, config, Some(source.to_owned()))
    }
}

/// An inverter chain of `length` NOTs behind a DFF. Chains of different
/// lengths compile to near-identical manifests, the case the store's
/// delta encoding exists for.
fn chain_bench(length: u64) -> String {
    let mut src = String::from("INPUT(a)\nOUTPUT(z)\nn0 = NOT(a)\n");
    for i in 1..length {
        src.push_str(&format!("n{i} = NOT(n{})\n", i - 1));
    }
    src.push_str(&format!("z = DFF(n{})\n", length - 1));
    src
}

fn chain(length: u64, seed: u64) -> Req {
    Req::new(CHAIN_NAME, seed, &[], Some(chain_bench(length)))
}

/// The seeded request plan of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The traffic mix.
    pub workload: Workload,
    seed: u64,
    /// Requests per block; timed runs complete whole blocks.
    pub block: usize,
    /// Requests an earlier server answers before the timed server starts
    /// (store-restart's store fill); empty elsewhere.
    pub fill: Vec<Req>,
    /// Requests every set-up round sends once the server is healthy.
    pub warmup: Vec<Req>,
    /// The hot working set or the store-restart repeat set.
    catalog: Vec<Req>,
    /// First seed of the fresh (circuit, seed) requests.
    fresh_base: u64,
}

impl Plan {
    /// Generates the plan of `workload` for `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 0);
        // Fresh seeds count up from a seeded base, so they are distinct
        // within a run and never meet the golden seed or the warm-ups.
        let fresh_base = (1 << 40) + rng.below(1 << 40);
        let mut plan = Plan {
            workload,
            seed,
            block: 1,
            fill: Vec::new(),
            warmup: Vec::new(),
            catalog: Vec::new(),
            fresh_base,
        };
        match workload {
            Workload::ColdCompile => {
                plan.block = COLD_MIX.len();
                plan.warmup = (0..WARMUPS as u64)
                    .map(|i| Req::builtin("s27", (1 << 62) + i, &[]))
                    .collect();
            }
            Workload::HotHit | Workload::RoutedHit => {
                plan.catalog = hot_working_set(&mut rng);
                plan.block = plan.catalog.len();
                plan.warmup = plan.catalog.clone();
            }
            Workload::StoreRestart => {
                plan.catalog = store_fill(&mut rng);
                plan.block = STORE_BLOCK;
                plan.fill = plan.catalog.clone();
                plan.warmup = plan.catalog[..WARMUPS].to_vec();
            }
        }
        plan
    }

    /// The request with stream index `i`.
    #[must_use]
    pub fn request(&self, i: usize) -> Req {
        let block = (i / self.block) as u64;
        let slot = i % self.block;
        let mut rng = SplitMix64::new(self.seed, block + 1);
        match self.workload {
            Workload::ColdCompile => {
                let mut order: Vec<usize> = (0..COLD_MIX.len()).collect();
                rng.shuffle(&mut order);
                let position = order[slot];
                let circuit = COLD_MIX[position];
                let first_of_circuit =
                    COLD_MIX.iter().position(|c| *c == circuit) == Some(position);
                match golden_spec(circuit) {
                    Some((seed, config)) if block == 0 && first_of_circuit => {
                        Req::builtin(circuit, seed, config)
                    }
                    _ => Req::builtin(circuit, self.fresh_base + i as u64, &[]),
                }
            }
            Workload::HotHit | Workload::RoutedHit => {
                let mut order: Vec<usize> = (0..self.catalog.len()).collect();
                rng.shuffle(&mut order);
                self.catalog[order[slot]].clone()
            }
            Workload::StoreRestart => {
                let fresh_slot = rng.below(STORE_BLOCK as u64) as usize;
                let length = CHAIN_LENGTHS.start() + rng.below(chain_span());
                let repeats: Vec<u64> = (0..STORE_BLOCK)
                    .map(|_| rng.below(self.catalog.len() as u64))
                    .collect();
                if slot == fresh_slot {
                    chain(length, self.fresh_base + block)
                } else {
                    self.catalog[repeats[slot] as usize].clone()
                }
            }
        }
    }
}

fn chain_span() -> u64 {
    CHAIN_LENGTHS.end() - CHAIN_LENGTHS.start() + 1
}

/// Two seeds per circuit, each as a builtin name and as an inline
/// `.bench` body. Where the golden corpus covers a circuit, one of its
/// seeds is the golden one.
fn hot_working_set(rng: &mut SplitMix64) -> Vec<Req> {
    let mut set = Vec::new();
    for circuit in HOT_CIRCUITS {
        let source = to_bench(&resolve_builtin(circuit).expect("a Table-9 builtin"));
        let drawn = rng.below(1 << 30);
        let specs: Vec<(u64, &[(&str, &str)])> = match golden_spec(circuit) {
            Some(golden) => vec![golden, (drawn, &[])],
            None => vec![(drawn, &[]), (drawn + 1, &[])],
        };
        for (seed, config) in specs {
            set.push(Req::builtin(circuit, seed, config));
            set.push(Req::inline(circuit, &source, seed, config));
        }
    }
    set
}

/// The store-restart fill: two seeds of each small builtin (one of them
/// golden where the corpus covers the circuit), then inverter chains of
/// distinct seeded lengths.
fn store_fill(rng: &mut SplitMix64) -> Vec<Req> {
    let mut set = Vec::new();
    for circuit in STORE_BUILTINS {
        let drawn = rng.below(1 << 30);
        let golden = golden_spec(circuit).unwrap_or((drawn + 1, &[]));
        set.push(Req::builtin(circuit, golden.0, golden.1));
        set.push(Req::builtin(circuit, drawn, &[]));
    }
    let mut lengths: Vec<u64> = CHAIN_LENGTHS.collect();
    rng.shuffle(&mut lengths);
    for &length in &lengths[..STORE_CHAINS] {
        set.push(chain(length, rng.below(1 << 30)));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, n: usize) -> Vec<Req> {
        let plan = Plan::new(workload, seed);
        (0..n).map(|i| plan.request(i)).collect()
    }

    #[test]
    fn the_same_seed_gives_an_identical_request_list() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 7);
            assert_eq!(stream(workload, 7, 80), stream(workload, 7, 80));
            assert_eq!(plan.warmup, Plan::new(workload, 7).warmup);
            assert_eq!(plan.fill, Plan::new(workload, 7).fill);
        }
    }

    #[test]
    fn another_seed_gives_a_different_request_list() {
        for workload in Workload::ALL {
            assert_ne!(
                stream(workload, 7, 80),
                stream(workload, 8, 80),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn cold_compile_keys_are_distinct_and_s1423_is_one_in_eight() {
        let requests = stream(Workload::ColdCompile, 3, 160);
        let mut keys: Vec<(&str, u64)> = requests
            .iter()
            .map(|r| (r.circuit.as_str(), r.seed))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            160,
            "every cold request is a new (circuit, seed)"
        );
        let big = requests.iter().filter(|r| r.circuit == "s1423").count();
        assert_eq!(big, 20);
        for warm in Plan::new(Workload::ColdCompile, 3).warmup {
            assert!(!keys.contains(&(warm.circuit.as_str(), warm.seed)));
        }
    }

    #[test]
    fn each_block_holds_the_same_mix() {
        let plan = Plan::new(Workload::HotHit, 5);
        let mut first: Vec<String> = (0..plan.block).map(|i| plan.request(i).body).collect();
        let mut second: Vec<String> = (plan.block..2 * plan.block)
            .map(|i| plan.request(i).body)
            .collect();
        assert_ne!(first, second, "blocks are reordered");
        first.sort();
        second.sort();
        assert_eq!(first, second, "but hold the whole working set");
    }

    #[test]
    fn store_restart_is_four_repeats_and_one_new_chain_per_block() {
        let plan = Plan::new(Workload::StoreRestart, 11);
        let requests: Vec<Req> = (0..50).map(|i| plan.request(i)).collect();
        let new: Vec<&Req> = requests.iter().filter(|r| !plan.fill.contains(r)).collect();
        assert_eq!(new.len(), 10);
        assert!(new.iter().all(|r| r.circuit == CHAIN_NAME));
        for warm in &plan.warmup {
            assert!(
                plan.fill.contains(warm),
                "warm-ups must not change the store"
            );
        }
    }
}
