//! Result sets: one JSON object per full pass over the workloads, appended
//! one per line to `history.jsonl` (keyed by commit, never overwritten), and
//! the comparison of two groups of sets against the frozen bounds.

use crate::json::Json;
use crate::spec;
use crate::stats::{median, quartiles, spread};
use crate::workloads::RunResult;
use std::io::Write as _;
use std::path::Path;

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// repository (the driver's checkout is not one).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What tracing cost: 1 - traced / untraced `instances_per_s`.
pub fn trace_overhead_share(untraced: &RunResult, traced: &RunResult) -> Option<f64> {
    let plain = untraced.metric("instances_per_s")?;
    let with_trace = traced.metric("driver.instances_per_s_traced")?;
    Some(1.0 - with_trace / plain.max(1e-9))
}

/// One pass over the workloads as a result set. `runs` holds, per workload,
/// the untraced run and the traced one.
pub fn result_set(seed: u64, seconds: f64, runs: &[(RunResult, RunResult)]) -> Json {
    let values = |r: &RunResult| Json::obj(r.metrics.iter().map(|m| (m.name, Json::Num(m.value))));
    let workloads = runs.iter().map(|(untraced, traced)| {
        let mut fields = vec![
            ("attempted", Json::Num(untraced.attempted as f64)),
            ("failed", Json::Num(untraced.failed as f64)),
            ("correct", Json::Bool(untraced.correct)),
            ("end_to_end", values(untraced)),
            ("per_layer", values(traced)),
        ];
        if let Some(share) = trace_overhead_share(untraced, traced) {
            fields.push(("trace_overhead_share", Json::Num(share)));
        }
        (untraced.workload.clone(), Json::obj(fields))
    });
    Json::obj([
        ("commit", Json::Str(commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(crate::procfs::nproc() as f64)),
        ("workloads", Json::obj(workloads)),
    ])
}

pub fn append_line(path: &Path, set: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", set.encode()).map_err(|e| e.to_string())
}

/// Result sets of a file: one JSON object per non-empty line.
pub fn load_sets(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

/// Values of one end-to-end metric of one workload across sets.
fn values_of(sets: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|s| {
            s.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        "higher" => (ma - mb) / ma.abs().max(1e-12),
        _ => (mb - ma) / ma.abs().max(1e-12),
    };
    // Quartiles of fewer than three values say nothing about spread.
    let wide = |v: &[f64]| v.len() >= 3 && spread(v) > bound;
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison table, and whether every row is ok.
pub fn compare(a: &[Json], b: &[Json]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let describe = |v: &[f64]| {
        if v.len() >= 3 {
            let [q1, _, q3] = quartiles(v);
            format!(
                "{:.4} [{:.4} {:.4}] ±{:.1}%",
                median(v),
                q1,
                q3,
                100.0 * spread(v)
            )
        } else {
            format!("{:.4} (n={})", median(v), v.len())
        }
    };
    out.push_str(&format!(
        "{:<15} {:<20} {:>36} {:>36} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median [q1 q3] spread",
        "B median [q1 q3] spread",
        "B vs A",
        "bound"
    ));
    for w in &spec::WORKLOADS {
        for e in &spec::END_TO_END {
            let (va, vb) = (values_of(a, w.name, e.name), values_of(b, w.name, e.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, e.better, e.bound);
            all_ok &= verdict == Verdict::Ok;
            out.push_str(&format!(
                "{:<15} {:<20} {:>36} {:>36} {:>+7.1}% {:>5.0}%  {}\n",
                w.name,
                e.name,
                describe(&va),
                describe(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs().max(1e-12),
                100.0 * e.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, value: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::obj([(
                workload,
                Json::obj([("end_to_end", Json::obj([(metric, Json::Num(value))]))]),
            )]),
        )])
    }

    #[test]
    fn judges_direction_bound_and_spread() {
        // Lower is better: 12 % slower against a 10 % bound regresses.
        assert_eq!(judge(&[1.0], &[1.12], "lower", 0.10), Verdict::Regressed);
        assert_eq!(judge(&[1.0], &[1.08], "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(&[1.0], &[0.5], "lower", 0.10), Verdict::Ok);
        // Higher is better: the sign flips.
        assert_eq!(judge(&[100.0], &[85.0], "higher", 0.10), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[130.0], "higher", 0.10), Verdict::Ok);
        // A side that cannot repeat itself resolves nothing, whatever the medians.
        let noisy = [1.0, 1.6, 0.7, 1.3, 0.9];
        assert_eq!(
            judge(&noisy, &[1.0, 1.0, 1.0], "lower", 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compares_sets_by_workload_and_metric() {
        let a = vec![set("tcp_small", "latency_p50_ms", 10.0)];
        let b = vec![set("tcp_small", "latency_p50_ms", 13.0)];
        let (table, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(
            table.contains("tcp_small") && table.contains("regressed"),
            "{table}"
        );
        let (_, ok) = compare(&a, &a);
        assert!(ok);
    }
}
