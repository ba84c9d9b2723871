//! The correctness checker: every answer must be a well-formed,
//! self-consistent `ppet-trace/v1` manifest for the request that asked
//! for it, agree with the golden corpus wherever the corpus covers it,
//! and survive a full `merced audit` for one answer per circuit.

use std::path::Path;
use std::process::{Command, Stdio};

use ppet_trace::{RunManifest, SCHEMA};

use crate::drive::Answer;
use crate::workload::Req;

/// The recorded golden manifests (`recorded/golden/*.json`).
#[derive(Debug, Default)]
pub struct Goldens(Vec<RunManifest>);

impl Goldens {
    /// Loads every manifest in `dir`.
    ///
    /// # Errors
    ///
    /// An unreadable directory or a file that is not a manifest.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut goldens = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            goldens.push(
                RunManifest::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
        Ok(Goldens(goldens))
    }

    /// The golden manifest of the same circuit, seed and configuration
    /// (worker count aside), if the corpus has one.
    fn covering(&self, manifest: &RunManifest) -> Option<&RunManifest> {
        let config = |m: &RunManifest| -> Vec<(String, String)> {
            m.config
                .iter()
                .filter(|(k, _)| k != "jobs")
                .cloned()
                .collect()
        };
        self.0.iter().find(|g| {
            g.circuit == manifest.circuit
                && g.seed == manifest.seed
                && config(g) == config(manifest)
        })
    }
}

/// What a passing answer showed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// The golden corpus covered the answer and agreed with it.
    pub golden: bool,
}

/// Checks one answer body against the request that produced it.
///
/// # Errors
///
/// The first problem found.
pub fn check_answer(req: &Req, body: &[u8], goldens: &Goldens) -> Result<Checked, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_owned())?;
    let manifest =
        RunManifest::from_json(text).map_err(|e| format!("answer is not a manifest: {e}"))?;
    if manifest.schema != SCHEMA {
        return Err(format!("schema {:?}, expected {SCHEMA:?}", manifest.schema));
    }
    if manifest.circuit != req.circuit || manifest.seed != req.seed {
        return Err(format!(
            "answered {} seed {} for {} seed {}",
            manifest.circuit, manifest.seed, req.circuit, req.seed
        ));
    }
    for (key, value) in &req.config {
        if !manifest.config.iter().any(|(k, v)| k == key && v == value) {
            return Err(format!("config {key}={value} missing from the answer"));
        }
    }
    if manifest.result.is_empty() {
        return Err("answer has no result section".to_owned());
    }
    let mut recomputed = manifest.clone();
    recomputed.compute_totals();
    let report = ppet_audit::manifest::cross_check(&manifest, &recomputed);
    if let Some(failure) = report.first_failure() {
        return Err(format!(
            "cross-check failed: {}: {}",
            failure.code, failure.detail
        ));
    }
    let golden = match goldens.covering(&manifest) {
        Some(golden) if golden.result != manifest.result => {
            let differs = golden
                .result
                .iter()
                .zip(&manifest.result)
                .find(|(g, m)| g != m)
                .map_or_else(
                    || "key sets differ".to_owned(),
                    |(g, m)| format!("{} = {:?}, golden {:?}", m.0, m.1, g.1),
                );
            return Err(format!(
                "golden mismatch for {}: {differs}",
                manifest.circuit
            ));
        }
        Some(_) => true,
        None => false,
    };
    Ok(Checked { golden })
}

/// The `result` section of a manifest body, for comparing two answers
/// that differ only in wall-clock fields.
///
/// # Errors
///
/// A body that is not a manifest.
pub fn result_section(body: &[u8]) -> Result<Vec<(String, String)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_owned())?;
    RunManifest::from_json(text).map(|m| m.result)
}

/// Runs a full `merced audit` (recompile, invariant checks, manifest
/// cross-check) on each of `picks`, two at a time. Returns each pick's
/// verdict in order.
#[must_use]
pub fn audit(merced: &Path, dir: &Path, picks: &[&Answer]) -> Vec<Result<(), String>> {
    let mut verdicts = Vec::new();
    for (chunk_index, chunk) in picks.chunks(2).enumerate() {
        let running: Vec<_> = chunk
            .iter()
            .enumerate()
            .map(|(i, answer)| spawn_audit(merced, dir, chunk_index * 2 + i, answer))
            .collect();
        for run in running {
            verdicts.push(run.and_then(|child| {
                let out = child.wait_with_output().map_err(|e| e.to_string())?;
                if out.status.success() {
                    Ok(())
                } else {
                    Err(format!(
                        "merced audit failed: {}{}",
                        String::from_utf8_lossy(&out.stdout).trim(),
                        String::from_utf8_lossy(&out.stderr).trim()
                    ))
                }
            }));
        }
    }
    verdicts
}

fn spawn_audit(
    merced: &Path,
    dir: &Path,
    n: usize,
    answer: &Answer,
) -> Result<std::process::Child, String> {
    let dir = dir.join(format!("audit-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let manifest = dir.join("manifest.json");
    std::fs::write(&manifest, &answer.body).map_err(|e| e.to_string())?;
    let mut command = Command::new(merced);
    command.arg("audit").arg(&manifest);
    if let Some(source) = &answer.req.bench {
        // `merced audit` names a `.bench` circuit after its file stem.
        let bench = dir.join(format!("{}.bench", answer.req.circuit));
        std::fs::write(&bench, source).map_err(|e| e.to_string())?;
        command.arg("--bench").arg(bench);
    }
    command
        .args(["--jobs", "1", "--quiet"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start merced audit: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Plan, Workload};

    fn goldens() -> Goldens {
        Goldens::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../recorded/golden")).unwrap()
    }

    /// The cold-compile request that the golden s27 manifest answers.
    fn golden_s27_request() -> Req {
        let plan = Plan::new(Workload::ColdCompile, 1);
        (0..16)
            .map(|i| plan.request(i))
            .find(|r| r.circuit == "s27")
            .unwrap()
    }

    fn golden_s27_body() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../recorded/golden/s27.json");
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn accepts_the_golden_answer() {
        let checked = check_answer(
            &golden_s27_request(),
            golden_s27_body().as_bytes(),
            &goldens(),
        );
        assert_eq!(checked, Ok(Checked { golden: true }));
    }

    #[test]
    fn rejects_one_mutated_result_value_as_a_golden_mismatch() {
        let body = golden_s27_body();
        let mutated = body.replacen("\"nets_cut\": \"1\"", "\"nets_cut\": \"2\"", 1);
        assert_ne!(body, mutated);
        let err = check_answer(&golden_s27_request(), mutated.as_bytes(), &goldens()).unwrap_err();
        assert!(
            err.contains("golden mismatch") && err.contains("nets_cut"),
            "{err}"
        );
    }

    #[test]
    fn rejects_inconsistent_totals_and_wrong_requests() {
        let body = golden_s27_body();
        let bad_total = body.replacen("\"flow.heap_pops\": ", "\"flow.heap_pops\": 1", 1);
        let err =
            check_answer(&golden_s27_request(), bad_total.as_bytes(), &goldens()).unwrap_err();
        assert!(err.contains("cross-check"), "{err}");
        let mut other = golden_s27_request();
        other.seed += 1;
        let err = check_answer(&other, body.as_bytes(), &goldens()).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
