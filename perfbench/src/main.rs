//! `perfbench`: the service benchmark of the `merced` compile server.
//!
//! One run sets up the servers a workload talks to (three times without
//! `--trace`, reporting the median set-up time), drives them with
//! [`drive::CLIENTS`] closed-loop clients for `--seconds`, checks every
//! answer, audits one answer per circuit with `merced audit`, and prints
//! the end-to-end metrics. With `--trace 1` it instead sets up once,
//! runs the same timed phase, then replays the answered requests
//! in-process with spans around every layer call and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it records how the run was produced.
//!
//! Usage (from the repository root, after building `merced` in release):
//!
//! ```text
//! perfbench --merced PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds both binaries and passes `--merced` and
//! `--work`.

mod check;
mod client;
mod deploy;
mod drive;
mod replay;
mod report;
mod stats;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use check::Goldens;
use deploy::{Deployment, StoreMode};
use drive::{closed_loop, Answers, Load, Until};
use report::Metric;
use workload::{Plan, Workload};

/// Set-up rounds per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// Problems echoed to standard error before the result line.
const SHOWN_PROBLEMS: usize = 5;

const USAGE: &str = "usage: perfbench --merced PATH --work DIR --workload \
                     cold-compile|hot-hit|store-restart|routed-hit --seed N --seconds S --trace 0|1";

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    merced: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, text: String| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} expects a number"))
    };
    let parsed = Args {
        merced: take("--merced")?.into(),
        work: take("--work")?.into(),
        workload: {
            let name = take("--workload")?;
            Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?
        },
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?.max(1),
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(parsed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for problem in outcome.problems.iter().take(SHOWN_PROBLEMS) {
                eprintln!("perfbench: {problem}");
            }
            println!("{}", outcome.provenance);
            println!(
                "{}",
                report::result_line(
                    outcome.correct(),
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run measured and found.
#[derive(Debug)]
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    provenance: String,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// A per-run scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(work: &Path, workload: Workload) -> Result<Self, String> {
        let dir = work.join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let plan = Plan::new(workload, args.seed);
    let goldens = Goldens::load(Path::new("recorded/golden"))?;
    let scratch = Scratch::create(&args.work, workload)?;
    let dir = &scratch.0;
    let answers = Answers::default();
    let mut problems = Vec::new();

    if workload == Workload::StoreRestart {
        fill_store(args, &plan, &dir.join("store"), &answers)?;
        if args.trace {
            copy_files(&dir.join("store"), &dir.join("replay-store"))?;
        }
    }

    // Set-up: spawn, wait for /healthz, answer the warm-up requests.
    let rounds = if args.trace { 1 } else { SETUP_ROUNDS };
    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for round in 0..rounds {
        if let Some(previous) = deployment.take() {
            previous.stop()?;
        }
        let store = store_mode(workload, dir, round);
        if workload != Workload::StoreRestart {
            answers.clear();
        }
        let started = Instant::now();
        let fresh = Deployment::start(&args.merced, workload, &store)?;
        let warm = closed_loop(
            fresh.entry(),
            Until::Count(plan.warmup.len()),
            &|i| plan.warmup[i].clone(),
            &answers,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        require_clean("warm-up", &warm)?;
        deployment = Some(fresh);
    }
    let deployment = deployment.expect("at least one set-up round");

    // The timed phase.
    let before = cache_counters(&deployment)?;
    let load = closed_loop(
        deployment.entry(),
        Until::Deadline {
            time: Duration::from_secs(args.seconds),
            block: plan.block,
        },
        &|i| plan.request(i),
        &answers,
    );
    let after = cache_counters(&deployment)?;
    let rss_mib = deployment.peak_rss_mib()?;
    deployment.stop()?;

    // Correctness: every distinct answer, then one full audit per circuit.
    let entries = answers.entries();
    let mut bad: HashSet<usize> = HashSet::new();
    let mut golden_checked = 0usize;
    for (id, entry) in entries.iter().enumerate() {
        match check::check_answer(&entry.req, &entry.body, &goldens) {
            Ok(checked) => golden_checked += usize::from(checked.golden),
            Err(e) => {
                problems.push(format!(
                    "{} seed {}: {e}",
                    entry.req.circuit, entry.req.seed
                ));
                bad.insert(id);
            }
        }
    }
    let picks = audit_picks(&load, &entries);
    let verdicts = check::audit(
        &args.merced,
        dir,
        &picks.iter().map(|&id| &entries[id]).collect::<Vec<_>>(),
    );
    for (&id, verdict) in picks.iter().zip(verdicts) {
        if let Err(e) = verdict {
            problems.push(format!("{}: {e}", entries[id].req.circuit));
            bad.insert(id);
        }
    }

    let mut failed_index: HashSet<usize> = HashSet::new();
    for sample in &load.samples {
        if let Some(failure) = &sample.failure {
            problems.push(format!("request {}: {failure}", sample.index));
            failed_index.insert(sample.index);
        } else if sample.answer.is_some_and(|id| bad.contains(&id)) {
            failed_index.insert(sample.index);
        }
    }

    let latencies = correct_latencies_ms(&load, &failed_index);
    let metrics = if args.trace {
        let spans = record_dir(&args.work, workload).join("spans.jsonl");
        let replayed = traced_replay(
            &plan,
            dir,
            &spans,
            &load,
            &entries,
            cache_hit_ratio(before, after),
        )?;
        for (index, problem) in replayed.problems {
            problems.push(format!("replay of request {index}: {problem}"));
            failed_index.insert(index);
        }
        replayed.metrics
    } else {
        end_to_end_metrics(&load, &latencies, &setup_s, rss_mib)
    };

    let attempted = load.samples.len();
    let failed = failed_index.len();
    let provenance = provenance(
        args,
        &plan,
        &load,
        &latencies,
        golden_checked,
        picks.len(),
        failed,
    );
    write_record(&args.work, workload, &provenance);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        provenance,
    })
}

/// store-restart's earlier server: fills the store, then drains so the
/// timed server starts from what it left on disk.
fn fill_store(args: &Args, plan: &Plan, store: &Path, answers: &Answers) -> Result<(), String> {
    let filler = Deployment::start(
        &args.merced,
        Workload::StoreRestart,
        &StoreMode::WriteThrough(store.to_path_buf()),
    )?;
    let fill = closed_loop(
        filler.entry(),
        Until::Count(plan.fill.len()),
        &|i| plan.fill[i].clone(),
        answers,
    );
    require_clean("store fill", &fill)?;
    filler.stop()
}

fn store_mode(workload: Workload, dir: &Path, round: usize) -> StoreMode {
    match workload {
        Workload::ColdCompile => StoreMode::WriteThrough(dir.join(format!("store-{round}"))),
        Workload::StoreRestart => StoreMode::ColdCache(dir.join("store")),
        Workload::HotHit | Workload::RoutedHit => StoreMode::None,
    }
}

/// Set-up traffic must answer cleanly; anything else aborts the run.
fn require_clean(phase: &str, load: &Load) -> Result<(), String> {
    match load.samples.iter().find_map(|s| s.failure.as_ref()) {
        Some(failure) => Err(format!("{phase} failed: {failure}")),
        None => Ok(()),
    }
}

/// `serve_cache_hits` and `serve_requests`, summed over the compile
/// servers' `/metrics`.
fn cache_counters(deployment: &Deployment) -> Result<(f64, f64), String> {
    let mut sums = (0.0, 0.0);
    for addr in deployment.shard_addrs() {
        let (status, body) = client::exchange(addr, "GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics on {addr} answered {status}"));
        }
        let text = String::from_utf8_lossy(&body);
        let counter = |name: &str| -> f64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        sums.0 += counter("serve_cache_hits");
        sums.1 += counter("serve_requests");
    }
    Ok(sums)
}

fn cache_hit_ratio(before: (f64, f64), after: (f64, f64)) -> f64 {
    (after.0 - before.0) / (after.1 - before.1)
}

/// One answer per circuit name among the timed phase's answers: the
/// first one answered.
fn audit_picks(load: &Load, entries: &[drive::Answer]) -> Vec<usize> {
    let mut ids: Vec<usize> = load.samples.iter().filter_map(|s| s.answer).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut seen = HashSet::new();
    ids.into_iter()
        .filter(|&id| seen.insert(entries[id].req.circuit.clone()))
        .collect()
}

/// Latencies of the correctly answered requests, ms, ascending.
fn correct_latencies_ms(load: &Load, failed: &HashSet<usize>) -> Vec<f64> {
    let mut latencies: Vec<f64> = load
        .samples
        .iter()
        .filter(|s| !failed.contains(&s.index))
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

fn end_to_end_metrics(
    load: &Load,
    latencies: &[f64],
    setup_s: &[f64],
    rss_mib: f64,
) -> Vec<Metric> {
    let tail = stats::tail(latencies, 95, 10).map_or(f64::NAN, |t| t.value);
    let ok = latencies.len() as f64;
    report::end_to_end(&[
        ("setup_s", stats::median(setup_s).unwrap_or(f64::NAN)),
        (
            "latency_p50_ms",
            stats::median(latencies).unwrap_or(f64::NAN),
        ),
        ("latency_p95_ms", tail),
        ("throughput_rps", ok / load.elapsed.as_secs_f64()),
        ("success_rate", ok / load.samples.len() as f64),
        ("server_rss_mb", rss_mib),
    ])
}

/// What the traced replay produced.
struct Replayed {
    metrics: Vec<Metric>,
    /// Requests whose replay disagreed with the timed run, by index.
    problems: Vec<(usize, String)>,
}

/// Replays every answered request of the timed phase in-process, in
/// index order, and derives the per-layer metrics.
fn traced_replay(
    plan: &Plan,
    dir: &Path,
    spans_path: &Path,
    load: &Load,
    entries: &[drive::Answer],
    cache_hit_ratio: f64,
) -> Result<Replayed, String> {
    let store = match plan.workload {
        Workload::ColdCompile => Some(dir.join("replay-cold-store")),
        Workload::StoreRestart => Some(dir.join("replay-store")),
        Workload::HotHit | Workload::RoutedHit => None,
    };
    let routed = plan.workload == Workload::RoutedHit;
    let mut replayer = replay::Replayer::new(&replay::Layout {
        routed,
        cache_capacity: if plan.workload == Workload::StoreRestart {
            1
        } else {
            ppet_serve::DEFAULT_CACHE_CAPACITY
        },
        store: store.as_deref(),
    })?;
    replayer.warm(&plan.warmup)?;

    let mut answered: Vec<&drive::Sample> =
        load.samples.iter().filter(|s| s.answer.is_some()).collect();
    answered.sort_by_key(|s| s.index);
    let mut problems = Vec::new();
    let mut client_ns = Vec::new();
    for sample in answered {
        let id = u32::try_from(sample.index).map_err(|_| "too many requests to replay")?;
        let timed = &entries[sample.answer.expect("filtered to answered samples")];
        let result = replayer
            .replay(id, &plan.request(sample.index))
            .and_then(|body| {
                let replayed = check::result_section(body.as_bytes())?;
                if replayed == check::result_section(&timed.body)? {
                    Ok(())
                } else {
                    Err("result section differs from the timed run's answer".to_owned())
                }
            });
        if let Err(e) = result {
            problems.push((sample.index, e));
        }
        client_ns.push((
            id,
            u64::try_from(sample.latency.as_nanos()).unwrap_or(u64::MAX),
        ));
    }

    let attribution = report::attribute(replayer.log().spans(), &client_ns);
    for &id in &attribution.inconsistent {
        problems.push((
            id as usize,
            "span self times do not add up to the request".to_owned(),
        ));
    }
    let metrics = report::per_layer(
        &report::ReplayInputs {
            spans: replayer.log().spans(),
            counts: replayer.counts(),
            store: replayer.store_report(),
            cache_hit_ratio,
        },
        &attribution,
    );
    replayer
        .log()
        .write_jsonl(spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(Replayed { metrics, problems })
}

/// Copies the regular files of `from` into a new directory `to`.
fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("a file has a name")))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Where a workload's last run leaves its provenance and spans.
fn record_dir(work: &Path, workload: Workload) -> PathBuf {
    let dir = work.join(workload.name());
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn write_record(work: &Path, workload: Workload, provenance: &str) {
    let _ = std::fs::write(
        record_dir(work, workload).join("provenance.json"),
        format!("{provenance}\n"),
    );
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// How the run was produced: machine, toolchain, source, flags, counts.
fn provenance(
    args: &Args,
    plan: &Plan,
    load: &Load,
    latencies: &[f64],
    golden_checked: usize,
    audited: usize,
    failed: usize,
) -> String {
    use ppet_trace::json::escaped;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    let git_rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = git_rev
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain", "--untracked-files=no"]));
    let (git_rev, dirty) = match (git_rev, dirty) {
        (Some(rev), Some(status)) => (escaped(&rev), (!status.is_empty()).to_string()),
        _ => ("null".to_owned(), "null".to_owned()),
    };
    let store = store_mode(plan.workload, Path::new("<dir>"), 0);
    let servers: Vec<String> = Deployment::command_lines(plan.workload, &store)
        .iter()
        .map(|c| escaped(c))
        .collect();
    let p95_rank = stats::tail(latencies, 95, 10).map_or(0.0, |t| t.percentile);
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {git_rev}, \"git_dirty\": {dirty}, \
         \"profile\": \"release\", \"servers\": [{}], \"clients\": {}, \"setup_rounds\": {}, \
         \"requests\": {}, \"blocks\": {}, \"latency_samples\": {}, \"p95_read_at\": {p95_rank}, \
         \"error_rate\": {}, \"golden_checked\": {golden_checked}, \"audited\": {audited}}}}}",
        escaped(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        escaped(&rustc),
        servers.join(", "),
        drive::CLIENTS,
        if args.trace { 1 } else { SETUP_ROUNDS },
        load.samples.len(),
        load.samples.len() / plan.block,
        latencies.len(),
        failed as f64 / load.samples.len().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--merced",
            "m",
            "--work",
            "w",
            "--workload",
            "hot-hit",
            "--seed",
            "4",
            "--seconds",
            "9",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, Workload::HotHit);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (4, 9, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        let base = [
            "--merced",
            "m",
            "--work",
            "w",
            "--seed",
            "4",
            "--seconds",
            "9",
            "--trace",
            "0",
        ];
        let mut bad = base.to_vec();
        bad.extend(["--workload", "nope"]);
        assert!(args(&bad).unwrap_err().contains("unknown workload"));
        let mut extra = base.to_vec();
        extra.extend(["--workload", "hot-hit", "--bogus", "1"]);
        assert!(args(&extra).unwrap_err().contains("--bogus"));
    }
}
