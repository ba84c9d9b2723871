//! Parallel `Saturate_Network`: the visit quota split across independent
//! replica streams, executed on a [`ppet_exec::Pool`].
//!
//! The sequential Table 3 loop is inherently serial — every tree routes
//! over the distances left by all earlier trees. The parallel variant
//! changes the *algorithm*, not just the schedule: the `min_visit` quota
//! is partitioned across [`FlowParams::replicas`] independent replicas,
//! each running the full Table 3 loop over its own share with its own
//! jump-derived PRNG stream and locally evolving distances. Per-net flows
//! are then summed in replica order and the distance function is
//! recomputed from the merged flow (`d(e) = exp(α·flow/cap)`, the paper's
//! own definition — identical to what the sequential loop maintains
//! incrementally).
//!
//! **Determinism contract**: the result is a pure function of
//! `(graph, params, seed)` — including `params.replicas` — and never of
//! the pool's worker count. `replicas = 1` is byte-identical to
//! [`saturate_network`](crate::saturate_network).

use ppet_exec::Pool;
use ppet_graph::{dijkstra::DijkstraStats, CircuitGraph};
use ppet_prng::Xoshiro256PlusPlus;
use ppet_trace::Tracer;

use crate::params::FlowParams;
use crate::profile::CongestionProfile;
use crate::saturate::{run_replica, saturate_network_traced, ReplicaOutcome, SATURATE_SALT};

/// Runs the probabilistic saturation with the visit quota split across
/// `params.replicas` independent streams, scheduled on `pool`.
///
/// See the [crate docs](crate) for the algorithm and determinism
/// contract. With `replicas = 1` this is exactly
/// [`saturate_network`](crate::saturate_network).
///
/// # Panics
///
/// Panics if `params` fail [`FlowParams::validate`].
///
/// # Examples
///
/// ```
/// use ppet_exec::Pool;
/// use ppet_flow::{saturate_network_par, FlowParams};
/// use ppet_graph::CircuitGraph;
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let p = FlowParams::quick().with_replicas(5);
/// let a = saturate_network_par(&g, &p, 7, &Pool::sequential());
/// let b = saturate_network_par(&g, &p, 7, &Pool::new(8));
/// assert_eq!(a, b); // worker count never changes the result
/// ```
#[must_use]
pub fn saturate_network_par(
    graph: &CircuitGraph,
    params: &FlowParams,
    seed: u64,
    pool: &Pool,
) -> CongestionProfile {
    saturate_network_par_traced(graph, params, seed, pool, &Tracer::noop())
}

/// [`saturate_network_par`] with observability.
///
/// Workers never touch the tracer: each replica's counters and tree-size
/// samples are carried back with its result and recorded by the calling
/// thread in replica order, so traced output (including the
/// `flow.tree_nodes` histogram and all `flow.*` counter totals) is as
/// worker-count independent as the congestion profile itself.
#[must_use]
pub fn saturate_network_par_traced(
    graph: &CircuitGraph,
    params: &FlowParams,
    seed: u64,
    pool: &Pool,
    tracer: &Tracer,
) -> CongestionProfile {
    if let Some(problem) = params.validate() {
        panic!("invalid flow parameters: {problem}");
    }
    if params.replicas <= 1 {
        return saturate_network_traced(graph, params, seed, tracer);
    }
    let n = graph.num_nodes();
    if n == 0 {
        return CongestionProfile {
            distance: Vec::new(),
            flow: Vec::new(),
            visits: Vec::new(),
            trees: 0,
            search: DijkstraStats::default(),
            saturated: true,
            shortfall: Vec::new(),
        };
    }

    let replicas = params.replicas as usize;
    let streams = Xoshiro256PlusPlus::seed_from(seed ^ SATURATE_SALT).streams(replicas);
    let quotas = split_u32(params.min_visit, replicas);
    let caps: Vec<Option<u64>> = match params.max_trees {
        Some(total) => split_u64(total, replicas).into_iter().map(Some).collect(),
        None => vec![None; replicas],
    };
    let enabled = tracer.enabled();

    let tasks: Vec<(u32, Option<u64>, Xoshiro256PlusPlus)> = quotas
        .into_iter()
        .zip(caps)
        .zip(streams)
        .map(|((quota, cap), stream)| (quota, cap, stream))
        .collect();
    let outcomes: Vec<ReplicaOutcome> = pool.par_map(&tasks, |_, (quota, cap, stream)| {
        run_replica(graph, params, *quota, *cap, stream.clone(), enabled)
    });

    // Merge in replica order: every accumulation below is a fixed-order
    // fold, so the merged profile is bit-identical at any worker count.
    let mut flow = vec![0.0f64; n];
    let mut visits = vec![0u32; n];
    let mut shortfall = vec![0u32; n];
    let mut trees = 0usize;
    let mut search = DijkstraStats::default();
    for outcome in &outcomes {
        for (slot, &f) in flow.iter_mut().zip(&outcome.flow) {
            *slot += f;
        }
        for (slot, &v) in visits.iter_mut().zip(&outcome.visits) {
            *slot += v;
        }
        for (slot, &s) in shortfall.iter_mut().zip(&outcome.shortfall) {
            *slot += s;
        }
        trees += outcome.trees;
        search.heap_pops += outcome.search.heap_pops;
        search.relaxations += outcome.search.relaxations;
        search.settled += outcome.search.settled;
    }
    let distance: Vec<f64> = flow
        .iter()
        .map(|&f| {
            if f == 0.0 {
                1.0
            } else {
                params.congestion_distance(f)
            }
        })
        .collect();
    let saturated = shortfall.iter().all(|&s| s == 0);

    if enabled {
        for outcome in &outcomes {
            for &size in &outcome.tree_sizes {
                tracer.record("flow.tree_nodes", size);
            }
        }
        tracer.add("flow.replicas", replicas as u64);
        tracer.add("flow.csr.nodes", graph.csr().num_nodes() as u64);
        tracer.add("flow.csr.branches", graph.csr().num_branches() as u64);
        tracer.add("flow.trees_built", trees as u64);
        tracer.add("flow.heap_pops", search.heap_pops);
        tracer.add("flow.relaxations", search.relaxations);
        tracer.add("flow.nodes_settled", search.settled);
    }

    CongestionProfile {
        distance,
        flow,
        visits,
        trees,
        search,
        saturated,
        shortfall,
    }
}

/// Splits `total` into `parts` shares differing by at most one, largest
/// shares first (`split_u32(20, 8) = [3,3,3,3,2,2,2,2]`).
fn split_u32(total: u32, parts: usize) -> Vec<u32> {
    let parts_u = parts as u32;
    let base = total / parts_u;
    let rem = total % parts_u;
    (0..parts_u).map(|i| base + u32::from(i < rem)).collect()
}

/// As [`split_u32`], for the `max_trees` budget.
fn split_u64(total: u64, parts: usize) -> Vec<u64> {
    let parts_u = parts as u64;
    let base = total / parts_u;
    let rem = total % parts_u;
    (0..parts_u).map(|i| base + u64::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate_network;
    use ppet_netlist::data;

    fn s27() -> CircuitGraph {
        CircuitGraph::from_circuit(&data::s27())
    }

    #[test]
    fn quota_splits_cover_the_total() {
        assert_eq!(split_u32(20, 8), vec![3, 3, 3, 3, 2, 2, 2, 2]);
        assert_eq!(split_u32(5, 5), vec![1; 5]);
        assert_eq!(split_u64(7, 3), vec![3, 2, 2]);
        assert_eq!(split_u32(20, 8).iter().sum::<u32>(), 20);
    }

    #[test]
    fn single_replica_matches_sequential_exactly() {
        let g = s27();
        let p = FlowParams::quick(); // replicas = 1
        let seq = saturate_network(&g, &p, 11);
        for workers in [1, 2, 8] {
            let par = saturate_network_par(&g, &p, 11, &Pool::new(workers));
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn result_is_worker_count_invariant() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5);
        let baseline = saturate_network_par(&g, &p, 3, &Pool::sequential());
        for workers in [2, 4, 8] {
            let par = saturate_network_par(&g, &p, 3, &Pool::new(workers));
            assert_eq!(par, baseline, "workers = {workers}");
        }
    }

    #[test]
    fn replica_count_changes_the_experiment() {
        let g = s27();
        let one = saturate_network_par(&g, &FlowParams::quick(), 3, &Pool::sequential());
        let five = saturate_network_par(
            &g,
            &FlowParams::quick().with_replicas(5),
            3,
            &Pool::sequential(),
        );
        assert_ne!(one, five);
    }

    #[test]
    fn merged_profile_respects_the_quota() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5); // quota 1 per replica
        let prof = saturate_network_par(&g, &p, 9, &Pool::new(4));
        // Every replica visits every node at least quota+1 times, so the
        // merged count is at least min_visit + replicas.
        for (i, &v) in prof.visits().iter().enumerate() {
            assert!(
                v >= p.min_visit + p.replicas,
                "node {i} visited only {v} times"
            );
        }
        assert!(prof.num_trees() >= g.num_nodes());
    }

    #[test]
    fn merged_distances_consistent_with_merged_flow() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5);
        let prof = saturate_network_par(&g, &p, 2, &Pool::new(3));
        for (net, _) in g.nets() {
            if prof.flow(net) == 0.0 {
                assert_eq!(prof.distance(net), 1.0);
            } else {
                let expected = (p.alpha * prof.flow(net) / p.capacity).exp();
                assert!((prof.distance(net) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tree_budget_is_partitioned() {
        let g = s27();
        let mut p = FlowParams::quick().with_replicas(5);
        p.max_trees = Some(10);
        let prof = saturate_network_par(&g, &p, 4, &Pool::new(2));
        assert!(prof.num_trees() <= 10);
        // 10 trees cannot cover |V|·(quota+1) visits: the merged profile
        // must report the shortfall instead of staying silent.
        assert!(!prof.is_saturated());
        assert!(prof.unsaturated_nodes() > 0);
    }

    #[test]
    fn unbudgeted_parallel_run_is_saturated() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5);
        let prof = saturate_network_par(&g, &p, 4, &Pool::new(2));
        assert!(prof.is_saturated());
        assert_eq!(prof.unsaturated_nodes(), 0);
    }

    #[test]
    fn extreme_congestion_stays_finite_in_the_merged_distances() {
        // Regression: the merged-recompute path had its own raw
        // `exp(α·flow/cap)` — it must clamp exactly like the sequential
        // update so determinism parity holds under extreme parameters.
        let g = s27();
        let mut p = FlowParams::quick().with_replicas(5);
        p.alpha = 1e6;
        let prof = saturate_network_par(&g, &p, 4, &Pool::new(3));
        for (net, _) in g.nets() {
            assert!(
                prof.distance(net).is_finite(),
                "net {net}: merged distance overflowed"
            );
        }
    }

    #[test]
    fn tracing_does_not_perturb_results_and_counters_match() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5);
        let plain = saturate_network_par(&g, &p, 6, &Pool::new(4));
        let (tracer, sink) = Tracer::collecting();
        let traced = saturate_network_par_traced(&g, &p, 6, &Pool::new(4), &tracer);
        assert_eq!(plain, traced);

        let report = sink.report();
        assert_eq!(report.counters["flow.replicas"], 5);
        assert_eq!(
            report.counters["flow.trees_built"],
            traced.num_trees() as u64
        );
        let stats = traced.search_stats();
        assert_eq!(report.counters["flow.heap_pops"], stats.heap_pops);
        assert_eq!(report.counters["flow.relaxations"], stats.relaxations);
        assert_eq!(report.counters["flow.nodes_settled"], stats.settled);
        let hist = &report.histograms["flow.tree_nodes"];
        assert_eq!(hist.count, traced.num_trees() as u64);
        assert_eq!(hist.sum, stats.settled);
    }

    #[test]
    fn traced_counters_are_worker_count_invariant() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(5);
        let counters = |workers: usize| {
            let (tracer, sink) = Tracer::collecting();
            let _ = saturate_network_par_traced(&g, &p, 8, &Pool::new(workers), &tracer);
            sink.report().counters
        };
        let baseline = counters(1);
        assert_eq!(counters(4), baseline);
    }

    #[test]
    fn empty_graph_is_fine() {
        let c = ppet_netlist::Circuit::new("empty");
        let g = CircuitGraph::from_circuit(&c);
        let p = FlowParams::paper().with_replicas(4);
        let prof = saturate_network_par(&g, &p, 0, &Pool::new(4));
        assert_eq!(prof.num_trees(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid flow parameters")]
    fn invalid_parameters_panic() {
        let g = s27();
        let p = FlowParams::quick().with_replicas(0);
        let _ = saturate_network_par(&g, &p, 0, &Pool::sequential());
    }
}
