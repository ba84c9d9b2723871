//! Deterministic single-source shortest-path trees over net lengths.
//!
//! `Saturate_Network` (paper Table 3, STEP 3.2) computes, for a randomly
//! chosen source, the shortest-path tree `T_v = Dijkstra(G, d(E), v)` to all
//! reachable sinks, where the length of every branch of a net is that net's
//! congestion distance `d(e)`. Ties are broken by node id so the tree — and
//! therefore the whole stochastic flow process — is reproducible.
//!
//! One production engine and one reference compute the tree:
//!
//! * [`DijkstraScratch::run_fast`] — the **production engine** behind
//!   saturation and [`shortest_path_tree`]: a fixed-slot bucket queue
//!   (`SlotQueue`) over the packed [`Csr`] adjacency, keyed by the top 16
//!   bits of the distance's IEEE-754 bit pattern. For non-negative
//!   doubles the bit pattern is a monotone fixed-point encoding, so the
//!   slots cover the entire non-negative `f64` range (saturation's
//!   clamped-exponential weights span `[1, e^700]`, far beyond any bounded
//!   calendar), entries never migrate between slots, and the drain order
//!   reproduces the binary heap's `(distance, node)` order exactly.
//! * [`DijkstraScratch::run`] — the **reference**: a `BinaryHeap` over the
//!   pointer-rich [`CircuitGraph`] adjacency. Kept as the executable
//!   specification the property tests and the `saturate` bench compare
//!   against.
//!
//! Everything observable — distances, parents, settle order and work
//! counters — is bit-identical between the two. See `DESIGN.md` §13.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ppet_netlist::{CellId, NetId};

use crate::csr::Csr;
use crate::graph::CircuitGraph;

/// The result of a shortest-path-tree computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[v]` — length of the shortest path from the source, `f64::INFINITY`
    /// when unreachable.
    pub dist: Vec<f64>,
    /// `parent_net[v]` — the net whose branch enters `v` on the tree path
    /// (`None` for the source and unreachable nodes).
    pub parent_net: Vec<Option<NetId>>,
    /// The source node.
    pub source: CellId,
}

impl ShortestPathTree {
    /// The distinct nets used by the tree — the paper's `e ∈ T_v` set
    /// (each net counted once regardless of how many tree branches it
    /// contributes, see `DESIGN.md` §3 item 5).
    #[must_use]
    pub fn tree_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self.parent_net.iter().flatten().copied().collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    /// The number of tree branches entering each net's sinks — the
    /// per-branch accounting variant (`flow_per_branch` in the flow
    /// parameters).
    #[must_use]
    pub fn tree_net_branch_counts(&self) -> Vec<(NetId, usize)> {
        let mut nets: Vec<NetId> = self.parent_net.iter().flatten().copied().collect();
        nets.sort_unstable();
        let mut out: Vec<(NetId, usize)> = Vec::new();
        for n in nets {
            match out.last_mut() {
                Some((last, count)) if *last == n => *count += 1,
                _ => out.push((n, 1)),
            }
        }
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance, tie-broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A monotone fixed-slot bucket queue over `(f64-bit key, node)` pairs —
/// the engine behind [`DijkstraScratch::run_fast`].
///
/// The slot of a key is its top 16 bits (sign, the 11 exponent bits, and
/// the 4 leading mantissa bits): a monotone index for non-negative
/// doubles, so [`NUM_SLOTS`] = 2¹⁵ slots cover the entire
/// non-negative `f64` range — including `+inf` — with an exponentially
/// scaled grid whose slot width is a fixed ×(1 + 2⁻⁴) distance band.
/// Entries never migrate: a push lands in its final slot, and a
/// two-level occupancy bitmap finds the next occupied slot in a handful
/// of word scans. The slot being drained is sorted descending
/// by `(key, node)` once, and same-slot arrivals (Dijkstra pushes keys ≥
/// the minimum, so they can land in the cursor slot but never before it)
/// are inserted in order — pops therefore leave in exactly the
/// `(distance, node)` order of a tie-broken binary heap, which is what
/// makes `run_fast` bit-identical to the reference.
#[derive(Debug, Clone, Default)]
struct SlotQueue {
    /// Lazily sized to [`NUM_SLOTS`] on first use, so scratch
    /// areas that never call `run_fast` stay small.
    slots: Vec<Vec<(u64, u32)>>,
    /// One occupancy bit per slot.
    occ1: Vec<u64>,
    /// One occupancy bit per `occ1` word.
    occ2: [u64; SLOT_SUMMARY_WORDS],
    /// Slot currently being drained.
    cur: usize,
    /// The drained slot's entries, sorted descending (pop from the back).
    cur_vec: Vec<(u64, u32)>,
    len: usize,
}

/// `f64::to_bits() >> 48` of any non-negative double (`+inf` included) is
/// below this.
const NUM_SLOTS: usize = 1 << 15;
/// Words of the second-level occupancy bitmap: one bit per `occ1` word.
const SLOT_SUMMARY_WORDS: usize = NUM_SLOTS / 64 / 64;

impl SlotQueue {
    fn new() -> Self {
        Self::default()
    }

    /// Allocates the slot array (~0.75 MiB of empty `Vec` headers) on
    /// first use.
    fn ensure(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Vec::new(); NUM_SLOTS];
            self.occ1 = vec![0; NUM_SLOTS / 64];
        }
    }

    /// Prepares for a new run. A completed run drains every slot, so this
    /// is O(1) then; after an abandoned run (caller panicked mid-search)
    /// it sweeps the occupied slots clean.
    fn reset(&mut self) {
        if self.len != 0 {
            for w in 0..self.occ1.len() {
                let mut bits = self.occ1[w];
                while bits != 0 {
                    let s = (w << 6) + bits.trailing_zeros() as usize;
                    self.slots[s].clear();
                    bits &= bits - 1;
                }
                self.occ1[w] = 0;
            }
            self.occ2 = [0; SLOT_SUMMARY_WORDS];
            self.len = 0;
        }
        self.cur = 0;
        self.cur_vec.clear();
    }

    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        self.len += 1;
        let s = (key >> 48) as usize;
        if s == self.cur {
            // A same-slot arrival while the slot drains: keep it sorted.
            let pos = self.cur_vec.partition_point(|&e| e > (key, node));
            self.cur_vec.insert(pos, (key, node));
            return;
        }
        let sv = &mut self.slots[s];
        if sv.is_empty() {
            self.occ1[s >> 6] |= 1u64 << (s & 63);
            self.occ2[s >> 12] |= 1u64 << ((s >> 6) & 63);
        }
        sv.push((key, node));
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, u32)> {
        if let Some(e) = self.cur_vec.pop() {
            self.len -= 1;
            return Some(e);
        }
        if self.len == 0 {
            return None;
        }
        // Find the next occupied slot strictly after `cur` via the
        // two-level bitmap.
        let mut w = self.cur >> 6;
        let rest = if (self.cur & 63) == 63 {
            0
        } else {
            !0u64 << ((self.cur & 63) + 1)
        };
        let mut bits = self.occ1[w] & rest;
        if bits == 0 {
            let mut w2 = w >> 6;
            let rest2 = if (w & 63) == 63 {
                0
            } else {
                !0u64 << ((w & 63) + 1)
            };
            let mut bits2 = self.occ2[w2] & rest2;
            while bits2 == 0 {
                w2 += 1;
                bits2 = self.occ2[w2];
            }
            w = (w2 << 6) + bits2.trailing_zeros() as usize;
            bits = self.occ1[w];
        }
        let s = (w << 6) + bits.trailing_zeros() as usize;
        self.cur = s;
        self.occ1[w] &= !(1u64 << (s & 63));
        if self.occ1[w] == 0 {
            self.occ2[w >> 6] &= !(1u64 << (w & 63));
        }
        self.len -= 1;
        if self.slots[s].len() == 1 {
            // The common late-saturation case: distances span a huge
            // dynamic range, one entry per slot — skip the swap and sort.
            return self.slots[s].pop();
        }
        std::mem::swap(&mut self.cur_vec, &mut self.slots[s]);
        self.cur_vec.sort_unstable_by(|a, b| b.cmp(a));
        self.cur_vec.pop()
    }
}

/// Computes the shortest-path tree from `source`, where every branch of net
/// `e` has length `length[e]`.
///
/// # Panics
///
/// Panics if `length.len() != graph.num_nodes()` (one length per net slot)
/// or any length consumed by the search is negative or NaN (validated in
/// release builds too — see [`DijkstraScratch::run`]).
///
/// # Examples
///
/// ```
/// use ppet_graph::{dijkstra, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let unit = vec![1.0; g.num_nodes()];
/// let spt = dijkstra::shortest_path_tree(&g, g.find("G0").unwrap(), &unit);
/// let g14 = g.find("G14").unwrap(); // NOT(G0): one hop
/// assert_eq!(spt.dist[g14.index()], 1.0);
/// ```
#[must_use]
pub fn shortest_path_tree(
    graph: &CircuitGraph,
    source: CellId,
    length: &[f64],
) -> ShortestPathTree {
    let mut scratch = DijkstraScratch::new(graph.num_nodes());
    scratch.run_fast(graph.csr(), source, length);
    ShortestPathTree {
        dist: scratch.dist.clone(),
        parent_net: scratch.parent_net.clone(),
        source,
    }
}

/// Reusable work buffers for repeated shortest-path-tree computations.
///
/// `Saturate_Network` runs tens of thousands of Dijkstra trees over the
/// same graph; reallocating and re-initializing the distance/parent/done
/// arrays every time dominates small-tree runs. The scratch keeps the
/// arrays alive and resets them lazily through a visitation stamp, so a run
/// touching `k` nodes costs `O(k)`-ish regardless of `|V|`, and the tree's
/// per-net branch counts are accumulated *while nodes settle* — no
/// post-pass allocation or sort on the hot path.
///
/// # Examples
///
/// ```
/// use ppet_graph::{dijkstra::DijkstraScratch, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let unit = vec![1.0; g.num_nodes()];
/// let mut scratch = DijkstraScratch::new(g.num_nodes());
/// scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
/// let visited = scratch.visited_order().len();
/// assert!(visited >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    parent_net: Vec<Option<NetId>>,
    stamp: Vec<u32>,
    done: Vec<bool>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    slot_queue: SlotQueue,
    visited: Vec<CellId>,
    net_stamp: Vec<u32>,
    net_count: Vec<u32>,
    tree_list: Vec<NetId>,
    stats: DijkstraStats,
}

/// Work counters accumulated across every [`DijkstraScratch`] run since
/// creation (or [`DijkstraScratch::take_stats`]). Plain integers —
/// always maintained, cheap enough to never need a feature gate — so the
/// flow phase can report how much search work its trees cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DijkstraStats {
    /// Heap pops, including stale entries skipped by the `done` check.
    pub heap_pops: u64,
    /// Successful relaxations (`dist` improvements pushed to the heap).
    pub relaxations: u64,
    /// Nodes settled (final distance fixed): the total tree size.
    pub settled: u64,
}

impl DijkstraScratch {
    /// Creates buffers for graphs of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![f64::INFINITY; n],
            parent_net: vec![None; n],
            stamp: vec![0; n],
            done: vec![false; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            slot_queue: SlotQueue::new(),
            visited: Vec::new(),
            net_stamp: vec![0; n],
            net_count: vec![0; n],
            tree_list: Vec::new(),
            stats: DijkstraStats::default(),
        }
    }

    /// The work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DijkstraStats {
        self.stats
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take_stats(&mut self) -> DijkstraStats {
        std::mem::take(&mut self.stats)
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: force full reset.
            self.stamp.fill(u32::MAX);
            self.net_stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        self.heap.clear();
        self.slot_queue.reset();
        self.visited.clear();
        self.tree_list.clear();
    }

    fn fresh(&mut self, v: usize) -> bool {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.dist[v] = f64::INFINITY;
            self.parent_net[v] = None;
            self.done[v] = false;
            true
        } else {
            false
        }
    }

    /// Marks `v` settled: final distance fixed, parent final, tree-net
    /// branch accounting updated.
    fn settle(&mut self, v: usize) {
        self.done[v] = true;
        self.stats.settled += 1;
        self.visited.push(CellId::from_index(v));
        if let Some(p) = self.parent_net[v] {
            let pi = p.index();
            if self.net_stamp[pi] == self.epoch {
                self.net_count[pi] += 1;
            } else {
                self.net_stamp[pi] = self.epoch;
                self.net_count[pi] = 1;
                self.tree_list.push(p);
            }
        }
    }

    /// Runs the reference binary-heap Dijkstra from `source`; results are
    /// readable until the next run via [`DijkstraScratch::distance`],
    /// [`DijkstraScratch::parent`], and [`DijkstraScratch::visited_order`].
    ///
    /// This is the executable specification [`DijkstraScratch::run_fast`]
    /// is property-tested against; the saturation loop uses `run_fast`.
    ///
    /// # Panics
    ///
    /// Panics if `length.len()` differs from the node count, or if any
    /// length the search consumes is negative or NaN. The validation is
    /// always on — not a `debug_assert!` — because a NaN admitted in a
    /// release build makes the heap entry's `partial_cmp` fall back to
    /// `Ordering::Equal`, silently corrupting heap order; each length is
    /// checked once when its node settles, so the check adds O(1) per
    /// settled node and never touches lengths of unreached nodes.
    pub fn run(&mut self, graph: &CircuitGraph, source: CellId, length: &[f64]) {
        assert_eq!(
            length.len(),
            graph.num_nodes(),
            "one length per net slot required"
        );
        self.begin();
        let s = source.index();
        self.fresh(s);
        self.dist[s] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: s as u32,
        });
        while let Some(HeapEntry { dist: d, node }) = self.heap.pop() {
            self.stats.heap_pops += 1;
            let v = node as usize;
            if self.done[v] {
                continue;
            }
            self.settle(v);
            let net = CellId::from_index(v);
            let l = length[v];
            assert!(
                l >= 0.0,
                "net length of node {v} must be non-negative and not NaN, got {l}"
            );
            for &w in graph.net(net).sinks() {
                let wi = w.index();
                self.fresh(wi);
                let nd = d + l;
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(net);
                    self.stats.relaxations += 1;
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: wi as u32,
                    });
                } else if nd == self.dist[wi]
                    && !self.done[wi]
                    && should_replace(self.parent_net[wi], net)
                {
                    // Equal distance: prefer the smaller parent net id so
                    // the tree is unique regardless of heap pop order.
                    self.parent_net[wi] = Some(net);
                }
            }
        }
    }

    /// Runs the fixed-slot bucket-queue Dijkstra over the packed [`Csr`]
    /// adjacency — the `Saturate_Network` hot path.
    ///
    /// The queue keys are the distances' IEEE-754 bit patterns (an exact
    /// monotone quantization for non-negative doubles), bucketed by their
    /// top 16 bits into a fixed array of 2¹⁵ slots
    /// that covers the *entire* non-negative `f64` range — saturation's
    /// clamped-exponential congestion distances span `[1, e^700]`, so no
    /// bounded-range calendar works. Entries never migrate between slots
    /// and the slot being drained is kept sorted, so pops come out in
    /// exactly the `(distance, node)` order of the binary-heap reference:
    /// distances, parents, settle order, and work counters are all
    /// bit-identical to [`DijkstraScratch::run`]. See `DESIGN.md` §13.
    ///
    /// # Panics
    ///
    /// As [`DijkstraScratch::run`]: length-vector size mismatch, or a
    /// negative/NaN length consumed by the search.
    pub fn run_fast(&mut self, csr: &Csr, source: CellId, length: &[f64]) {
        assert_eq!(
            length.len(),
            csr.num_nodes(),
            "one length per net slot required"
        );
        self.begin();
        self.slot_queue.ensure();
        // Bulk-initialize instead of the per-touch lazy `fresh()`: four
        // vectorized fills per tree cost far less than a stamp check and
        // three conditional stores on every edge scanned. Stamping every
        // node keeps the accessor contract: unreached nodes read
        // `INFINITY`/`None` through the now-valid stamp.
        self.stamp.fill(self.epoch);
        self.dist.fill(f64::INFINITY);
        self.parent_net.fill(None);
        self.done.fill(false);
        let s = source.index();
        self.dist[s] = 0.0;
        let mut pops = 0u64;
        let mut relaxations = 0u64;
        self.slot_queue.push(0, s as u32); // 0.0f64.to_bits() == 0
        while let Some((key, node)) = self.slot_queue.pop() {
            pops += 1;
            let v = node as usize;
            if self.done[v] {
                continue;
            }
            let d = f64::from_bits(key);
            self.settle(v);
            let net = CellId::from_index(v);
            let l = length[v];
            assert!(
                l >= 0.0,
                "net length of node {v} must be non-negative and not NaN, got {l}"
            );
            let nd = d + l;
            let bits = nd.to_bits();
            for &w in csr.sinks(net) {
                let wi = w.index();
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent_net[wi] = Some(net);
                    relaxations += 1;
                    self.slot_queue.push(bits, wi as u32);
                } else if nd == self.dist[wi]
                    && !self.done[wi]
                    && should_replace(self.parent_net[wi], net)
                {
                    self.parent_net[wi] = Some(net);
                }
            }
        }
        self.stats.heap_pops += pops;
        self.stats.relaxations += relaxations;
    }

    /// Distance of `node` from the last run's source (`INFINITY` when
    /// unreached).
    #[must_use]
    pub fn distance(&self, node: CellId) -> f64 {
        if self.stamp[node.index()] == self.epoch {
            self.dist[node.index()]
        } else {
            f64::INFINITY
        }
    }

    /// The tree parent net of `node`, if reached.
    #[must_use]
    pub fn parent(&self, node: CellId) -> Option<NetId> {
        if self.stamp[node.index()] == self.epoch {
            self.parent_net[node.index()]
        } else {
            None
        }
    }

    /// Nodes settled by the last run, in settle order (source first).
    #[must_use]
    pub fn visited_order(&self) -> &[CellId] {
        &self.visited
    }

    /// The distinct nets of the last run's tree with their branch counts,
    /// in first-settled order — the allocation-free view the saturation
    /// loop folds its flow updates over. The order is deterministic; use
    /// [`DijkstraScratch::tree_nets`] for the sorted view.
    pub fn tree_net_counts(&self) -> impl Iterator<Item = (NetId, u32)> + '_ {
        self.tree_list
            .iter()
            .map(move |&n| (n, self.net_count[n.index()]))
    }

    /// The distinct nets used by the last run's tree (each net once,
    /// ascending id).
    #[must_use]
    pub fn tree_nets(&self) -> Vec<NetId> {
        let mut nets = self.tree_list.clone();
        nets.sort_unstable();
        nets
    }

    /// Per-net branch counts of the last run's tree, ascending net id.
    #[must_use]
    pub fn tree_net_branch_counts(&self) -> Vec<(NetId, usize)> {
        let mut out: Vec<(NetId, usize)> = self
            .tree_list
            .iter()
            .map(|&n| (n, self.net_count[n.index()] as usize))
            .collect();
        out.sort_unstable();
        out
    }
}

fn should_replace(current: Option<NetId>, candidate: NetId) -> bool {
    match current {
        None => true,
        Some(c) => candidate < c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::data;

    fn s27_graph() -> CircuitGraph {
        CircuitGraph::from_circuit(&data::s27())
    }

    #[test]
    fn source_distance_zero_and_unreachable_infinite() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        let spt = shortest_path_tree(&g, src, &unit);
        assert_eq!(spt.dist[src.index()], 0.0);
        // Primary inputs are unreachable from internal nodes.
        assert!(spt.dist[g.find("G0").unwrap().index()].is_infinite());
    }

    #[test]
    fn tree_parent_edges_are_consistent() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let spt = shortest_path_tree(&g, g.find("G0").unwrap(), &unit);
        for v in g.nodes() {
            if let Some(p) = spt.parent_net[v.index()] {
                // The parent net's branch must land on v and distances must
                // satisfy the tree equality.
                assert!(g.net(p).sinks().contains(&v));
                let d_parent = spt.dist[p.index()];
                assert!((spt.dist[v.index()] - (d_parent + unit[p.index()])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matches_bellman_ford_distances() {
        let g = s27_graph();
        // Varied lengths: net i has length (i % 5) + 0.5.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 5) as f64 + 0.5).collect();
        for src in g.nodes() {
            let spt = shortest_path_tree(&g, src, &lengths);
            // Reference: Bellman-Ford relaxation.
            let mut dist = vec![f64::INFINITY; g.num_nodes()];
            dist[src.index()] = 0.0;
            for _ in 0..g.num_nodes() {
                for b in g.branches() {
                    let nd = dist[b.src.index()] + lengths[b.net.index()];
                    if nd < dist[b.sink.index()] {
                        dist[b.sink.index()] = nd;
                    }
                }
            }
            for v in g.nodes() {
                let a = spt.dist[v.index()];
                let b = dist[v.index()];
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "src {src} node {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_tree() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let a = shortest_path_tree(&g, g.find("G1").unwrap(), &unit);
        let b = shortest_path_tree(&g, g.find("G1").unwrap(), &unit);
        assert_eq!(a.parent_net, b.parent_net);
    }

    #[test]
    fn tree_nets_deduplicate() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let spt = shortest_path_tree(&g, g.find("G0").unwrap(), &unit);
        let nets = spt.tree_nets();
        let mut sorted = nets.clone();
        sorted.dedup();
        assert_eq!(nets, sorted);
        let per_branch = spt.tree_net_branch_counts();
        let total: usize = per_branch.iter().map(|(_, c)| c).sum();
        let used_branches = spt.parent_net.iter().flatten().count();
        assert_eq!(total, used_branches);
    }

    #[test]
    fn tree_net_counts_agree_with_sorted_views() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run_fast(g.csr(), g.find("G0").unwrap(), &unit);
        let mut from_iter: Vec<(NetId, usize)> = scratch
            .tree_net_counts()
            .map(|(n, c)| (n, c as usize))
            .collect();
        from_iter.sort_unstable();
        assert_eq!(from_iter, scratch.tree_net_branch_counts());
    }

    #[test]
    fn slot_queue_run_matches_reference_exactly() {
        let g = s27_graph();
        // A coarse grid with zeros to force distance ties and absorption-
        // style equal keys — the cases a sloppy drain order would break.
        let lengths: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 4) as f64 * 0.5).collect();
        for src in g.nodes() {
            let mut a = DijkstraScratch::new(g.num_nodes());
            a.run(&g, src, &lengths);
            let mut b = DijkstraScratch::new(g.num_nodes());
            b.run_fast(g.csr(), src, &lengths);
            // Bit-identical in every observable, settle order and work
            // counters included: the slot queue reproduces the binary
            // heap's (distance, node) pop order exactly.
            assert_eq!(a.visited_order(), b.visited_order(), "src {src}");
            assert_eq!(a.stats(), b.stats(), "src {src}");
            for v in g.nodes() {
                assert_eq!(
                    a.distance(v).to_bits(),
                    b.distance(v).to_bits(),
                    "src {src}"
                );
                assert_eq!(a.parent(v), b.parent(v), "src {src}");
            }
            assert_eq!(a.tree_nets(), b.tree_nets());
            assert_eq!(a.tree_net_branch_counts(), b.tree_net_branch_counts());
        }
    }

    #[test]
    fn slot_queue_handles_clamped_congestion_range() {
        let g = s27_graph();
        // Clamped-congestion-sized lengths span the whole f64 exponent
        // range; the fixed slots must cover it without any fallback.
        let mut lengths = vec![1.0; g.num_nodes()];
        let src = g.find("G9").unwrap();
        lengths[src.index()] = 1e300;
        lengths[g.find("G0").unwrap().index()] = 1e-12;
        let mut a = DijkstraScratch::new(g.num_nodes());
        a.run(&g, src, &lengths);
        let mut b = DijkstraScratch::new(g.num_nodes());
        b.run_fast(g.csr(), src, &lengths);
        assert_eq!(a.visited_order(), b.visited_order());
        assert_eq!(a.stats(), b.stats());
        for v in g.nodes() {
            assert_eq!(a.distance(v).to_bits(), b.distance(v).to_bits());
            assert_eq!(a.parent(v), b.parent(v));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn slot_queue_rejects_negative_lengths() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -0.5; // the source always settles first
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run_fast(g.csr(), src, &lengths);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let g = s27_graph();
        let unit = vec![1.0; g.num_nodes()];
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, g.find("G0").unwrap(), &unit);
        let one = scratch.stats();
        assert!(one.heap_pops >= one.settled);
        assert!(one.settled >= 2);
        assert!(one.relaxations >= one.settled - 1);
        assert_eq!(one.settled, scratch.visited_order().len() as u64);

        scratch.run(&g, g.find("G0").unwrap(), &unit);
        let two = scratch.stats();
        assert_eq!(
            two.heap_pops,
            2 * one.heap_pops,
            "identical runs add equal work"
        );

        assert_eq!(scratch.take_stats(), two);
        assert_eq!(scratch.stats(), DijkstraStats::default());
    }

    // The rejection tests below are regression tests for a release-mode
    // hole: the length check used to be a `debug_assert!`, so `--release`
    // builds accepted NaN (and negative) lengths and silently corrupted the
    // heap order. CI runs them under the release profile as well. Each
    // engine gets a negative and a NaN case; the `_by_csr_run` pair
    // reaches `run_fast` through `shortest_path_tree`.

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -1.0; // the source always settles first
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        scratch.run(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected_by_csr_run() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = -1.0;
        let _ = shortest_path_tree(&g, src, &lengths);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn nan_length_rejected_by_csr_run() {
        let g = s27_graph();
        let src = g.find("G0").unwrap();
        let mut lengths = vec![1.0; g.num_nodes()];
        lengths[src.index()] = f64::NAN;
        let _ = shortest_path_tree(&g, src, &lengths);
    }
}
