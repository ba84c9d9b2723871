//! The metrics a run prints, their names and units, and the result line.

use std::fmt::Write as _;

use crate::replay::{self_times, Counts, Span, StoreFigures};
use crate::stats::median;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            // A layer a workload never calls reads 0, never NaN.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The end-to-end metrics with their units, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("success_rate", "ratio"),
    ("server_rss_mb", "MiB"),
];

/// A traced layer: the span name the replay records and the metric
/// prefix it reports under.
struct Layer {
    span: &'static str,
    metric: &'static str,
    unit: &'static str,
}

const fn layer(span: &'static str, metric: &'static str, unit: &'static str) -> Layer {
    Layer { span, metric, unit }
}

/// Every timed layer, in the order the server calls them. Each reports
/// the p50 of its self time per call under `metric` and its total self
/// time per request under `metric.per_req`.
const LAYERS: [Layer; 19] = [
    layer("http.read", "http.read_us", "us"),
    layer("request.parse", "request.parse_us", "us"),
    layer("normalize", "normalize.us", "us"),
    layer("key", "key.us", "us"),
    layer("ring.route", "ring.route_ns", "ns"),
    layer("cache.claim", "cache.claim_us", "us"),
    layer("store.get", "store.get_us", "us"),
    layer("verify_stored", "verify_stored.us", "us"),
    layer("compile", "compile.self_ms", "ms"),
    layer("scc", "phase.scc.ms", "ms"),
    layer("saturate_network", "phase.saturate_network.ms", "ms"),
    layer("make_group", "phase.make_group.ms", "ms"),
    layer("assign_cbit", "phase.assign_cbit.ms", "ms"),
    layer("cost_retime", "phase.cost_retime.ms", "ms"),
    layer("power_sched", "phase.power_sched.ms", "ms"),
    layer("manifest.to_json", "manifest.to_json_us", "us"),
    layer("store.put", "store.put_us", "us"),
    layer("cache.complete", "cache.complete_us", "us"),
    layer("http.write", "http.write_us", "us"),
];

/// Deterministic compile counters reported as a mean per compile.
const COUNTERS: [&str; 6] = [
    "flow.heap_pops",
    "flow.nodes_settled",
    "flow.relaxations",
    "flow.trees_built",
    "flow.reused",
    "assign.merge_attempts",
];

/// Layer metrics that are not per-layer times.
const OTHER_LAYER_METRICS: [(&str, &str); 15] = [
    ("compile.ms", "ms"),
    ("compile.ms.per_req", "ms"),
    ("phase.saturate_network.share", "ratio"),
    ("normalize.cells", "count"),
    ("key.bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("store.recovered", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.delta_ratio", "ratio"),
    ("store.live_bytes", "bytes"),
    ("store.chain_depth_mean", "count"),
    ("client.mean_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("largest_layer_share", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
#[cfg(test)]
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for l in &LAYERS {
        names.push((l.metric.to_owned(), l.unit));
        names.push((format!("{}.per_req", l.metric), l.unit));
    }
    names.extend(COUNTERS.iter().map(|c| ((*c).to_owned(), "count")));
    names.extend(
        OTHER_LAYER_METRICS
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u)),
    );
    names
}

/// Builds the end-to-end metrics, in [`END_TO_END`] order, from name →
/// value pairs.
#[must_use]
pub fn end_to_end(values: &[(&str, f64)]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            Metric::new(*name, value, unit)
        })
        .collect()
}

/// What the traced replay measured, beyond its spans.
#[derive(Debug)]
pub struct ReplayInputs<'a> {
    /// Every span the replay recorded.
    pub spans: &'a [Span],
    /// Work counts.
    pub counts: &'a Counts,
    /// Store figures, when the server has a store.
    pub store: Option<(&'a StoreFigures, ppet_store::StoreStats)>,
    /// `serve.cache_hits / serve.requests` over the untraced timed phase.
    pub cache_hit_ratio: f64,
}

/// Per-request sums of the traced replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Requests replayed.
    pub requests: usize,
    /// Requests whose self times did not add up to their root span.
    pub inconsistent: Vec<u32>,
    /// Σ client-side latency, ns.
    pub client_ns: f64,
    /// Σ root span duration (all traced layer time), ns.
    pub traced_ns: f64,
}

/// Checks that every request's span self times add up to its root span
/// and that no child overruns its parent; the client-side remainder is
/// then the unattributed part, so the parts add up to the client total
/// by construction.
#[must_use]
pub fn attribute(spans: &[Span], client_ns: &[(u32, u64)]) -> Attribution {
    let own = self_times(spans);
    let mut per_request: std::collections::HashMap<u32, (i128, i128, bool)> = client_ns
        .iter()
        .map(|(id, _)| (*id, (0, 0, true)))
        .collect();
    for (s, own) in spans.iter().zip(&own) {
        if let Some(entry) = per_request.get_mut(&s.request) {
            entry.0 += own;
            entry.2 &= *own >= 0;
            if s.parent.is_none() {
                entry.1 += i128::from(s.duration_ns());
            }
        }
    }
    let mut inconsistent: Vec<u32> = per_request
        .iter()
        .filter(|(_, (parts, root, sane))| parts != root || *root == 0 || !sane)
        .map(|(id, _)| *id)
        .collect();
    inconsistent.sort_unstable();
    Attribution {
        requests: client_ns.len(),
        inconsistent,
        client_ns: client_ns.iter().map(|(_, ns)| *ns as f64).sum(),
        traced_ns: per_request.values().map(|(_, root, _)| *root as f64).sum(),
    }
}

/// The per-layer metrics of one traced replay.
#[must_use]
pub fn per_layer(inputs: &ReplayInputs<'_>, attribution: &Attribution) -> Vec<Metric> {
    let requests = attribution.requests.max(1) as f64;
    let own = self_times(inputs.spans);
    let scale = |unit: &str| match unit {
        "ns" => 1.0,
        "us" => 1e3,
        _ => 1e6,
    };
    let mut metrics = Vec::new();
    let mut largest_share = 0.0f64;
    for l in &LAYERS {
        let calls: Vec<f64> = inputs
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == l.span)
            .map(|(_, own)| *own as f64)
            .collect();
        let total: f64 = calls.iter().sum();
        largest_share = largest_share.max(total / attribution.client_ns);
        metrics.push(Metric::new(
            l.metric,
            median(&calls).unwrap_or(0.0) / scale(l.unit),
            l.unit,
        ));
        metrics.push(Metric::new(
            format!("{}.per_req", l.metric),
            total / requests / scale(l.unit),
            l.unit,
        ));
    }
    let counts = inputs.counts;
    for c in COUNTERS {
        let sum = counts
            .counters
            .iter()
            .find(|(n, _)| n == c)
            .map_or(0, |(_, v)| *v);
        metrics.push(Metric::new(c, sum as f64 / counts.compiles as f64, "count"));
    }
    let compiles: Vec<f64> = inputs
        .spans
        .iter()
        .filter(|s| s.name == "compile")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let compile_total: f64 = compiles.iter().sum();
    let saturate_total: f64 = inputs
        .spans
        .iter()
        .filter(|s| s.name == "saturate_network")
        .map(|s| s.duration_ns() as f64)
        .sum();
    let (open_ms, recovered, hit_ratio, delta_ratio, live_bytes, depth_mean) = match &inputs.store {
        Some((figures, stats)) => {
            let depths: u64 = stats.chain_depths.iter().sum();
            let weighted: u64 = stats
                .chain_depths
                .iter()
                .enumerate()
                .map(|(d, n)| d as u64 * n)
                .sum();
            (
                median(&figures.open_ms).unwrap_or(0.0),
                figures.recovered as f64,
                stats.hits as f64 / (stats.hits + stats.misses) as f64,
                stats.delta_ratio,
                stats.live_bytes as f64,
                weighted as f64 / depths as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let values = [
        median(&compiles).unwrap_or(0.0) / 1e6,
        compile_total / requests / 1e6,
        saturate_total / compile_total,
        counts.cells as f64 / counts.normalized as f64,
        counts.key_bytes as f64 / counts.normalized as f64,
        inputs.cache_hit_ratio,
        open_ms,
        recovered,
        hit_ratio,
        delta_ratio,
        live_bytes,
        depth_mean,
        attribution.client_ns / requests / 1e6,
        1.0 - attribution.traced_ns / attribution.client_ns,
        largest_share,
    ];
    for ((name, unit), value) in OTHER_LAYER_METRICS.iter().zip(values) {
        metrics.push(Metric::new(*name, value, unit));
    }
    metrics
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_trace::json::{self, Value};

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn per_layer_prints_every_listed_name_in_order() {
        let spans = vec![Span {
            request: 0,
            parent: None,
            name: "request",
            start_ns: 0,
            end_ns: 1000,
        }];
        let client = [(0, 4000)];
        let attribution = attribute(&spans, &client);
        let metrics = per_layer(
            &ReplayInputs {
                spans: &spans,
                counts: &Counts::default(),
                store: None,
                cache_hit_ratio: 1.0,
            },
            &attribution,
        );
        let names: Vec<(String, &str)> = metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        assert_eq!(names, per_layer_names());
        let share = metrics
            .iter()
            .find(|m| m.name == "unattributed_share")
            .unwrap();
        assert_eq!(share.value, 0.75);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn attribution_flags_children_that_overrun_their_parent() {
        let span = |parent, name, start_ns, end_ns| Span {
            request: 3,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let good = vec![span(None, "request", 0, 100), span(Some(0), "key", 10, 20)];
        assert!(attribute(&good, &[(3, 150)]).inconsistent.is_empty());
        let bad = vec![
            span(None, "request", 0, 100),
            span(Some(0), "compile", 10, 90),
            span(Some(1), "scc", 10, 95),
        ];
        assert_eq!(attribute(&bad, &[(3, 150)]).inconsistent, vec![3]);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
