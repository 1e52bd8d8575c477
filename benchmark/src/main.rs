//! `benchmark`: the SELF-SERV reproduction's measuring instrument. Five
//! named workloads, end-to-end metrics with regression bounds, per-layer
//! metrics from a traced pass, and a per-instance cost budget. README.md in
//! this directory says what each number means and how to read it.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload; the last line of stdout is the JSON result
//!     (end-to-end metrics untraced, per-layer metrics traced).
//! benchmark [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]
//!     Every workload untraced, then a short traced pass; prints every
//!     metric and appends a result set per pass to <out>/history.jsonl.
//! benchmark compare <a.jsonl> <b.jsonl>
//!     Compares two groups of result sets against the frozen bounds.
//! benchmark spec | glossary
//!     Prints BENCHMARK.json, or README.md's metric tables, as the metric
//!     tables in spec.rs define them.
//! ```

mod compare;
mod driver;
mod json;
mod probes;
mod procfs;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunArgs, RunResult};

/// A run whose share of failed operations exceeds this exits non-zero.
const MAX_FAILED_SHARE: f64 = 0.01;
/// The seed used when none is given (recorded in every result set).
const DEFAULT_SEED: u64 = 20_020_820;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     benchmark [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]\n       \
     benchmark compare <a.jsonl> <b.jsonl>\n       \
     benchmark spec | glossary"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    // Build outputs go where cargo put the binary's: the driver points
    // CARGO_TARGET_DIR into its checkout, and nothing may be written
    // outside it.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
        out_dir: target.join("benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |what: &str| format!("{flag}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(cli.seconds >= 0.5 && cli.seconds <= 600.0) {
                    return Err(bad("must be between 0.5 and 600"));
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if cli.repeat == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument '{flag}'\n{}", usage())),
        }
    }
    Ok(cli)
}

fn print_notes(result: &RunResult) {
    for line in &result.notes {
        println!("{line}");
    }
}

impl Cli {
    fn run_args(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            smoke: self.smoke,
            out_dir: self.out_dir.clone(),
        }
    }
}

/// Refuses a run on which too many operations failed.
fn checked(result: RunResult) -> Result<RunResult, String> {
    if result.failed_share() > MAX_FAILED_SHARE {
        // No result line: the notes go to stderr with the verdict.
        for line in &result.notes {
            eprintln!("{line}");
        }
        return Err(format!(
            "{}: {} of {} operations failed",
            result.workload, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// One run of one workload, as the driver invokes it.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let args = cli.run_args(workload, cli.seed, cli.seconds, cli.trace);
    let result = checked(workloads::run(&args)?)?;
    print_notes(&result);
    println!("{}", result.to_json().encode());
    Ok(ExitCode::SUCCESS)
}

/// One run in a process of its own, exactly as the driver makes it: peak
/// memory, lazily created pools and allocator state of one run cannot leak
/// into the next.
fn run_in_child(args: &RunArgs) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{}: the run failed ({})",
            args.workload, output.status
        ));
    }
    RunResult::from_child_output(&args.workload, &String::from_utf8_lossy(&output.stdout))
}

/// Every workload untraced, then traced; `cli.repeat` passes, each run made
/// by `run`. Returns the result sets.
fn run_all(
    cli: &Cli,
    run: &dyn Fn(&RunArgs) -> Result<RunResult, String>,
) -> Result<Vec<json::Json>, String> {
    // The traced pass exists for the per-layer numbers and the trace
    // overhead; a third of the window is enough for both.
    let (seconds, traced_seconds) = if cli.smoke {
        (2.0, 1.0)
    } else {
        (cli.seconds, (cli.seconds / 3.0).max(2.0))
    };
    let mut sets = Vec::new();
    for pass in 0..cli.repeat {
        let seed = cli.seed.wrapping_add(pass as u64);
        let mut runs = Vec::new();
        for w in &spec::WORKLOADS {
            println!(
                "== {} (pass {} of {}): {}",
                w.name,
                pass + 1,
                cli.repeat,
                w.why
            );
            let untraced = checked(run(&cli.run_args(w.name, seed, seconds, false))?)?;
            print_notes(&untraced);
            let traced = checked(run(&cli.run_args(w.name, seed, traced_seconds, true))?)?;
            print_notes(&traced);
            if let Some(share) = compare::trace_overhead_share(&untraced, &traced) {
                println!(
                    "  trace_overhead_share {share:.4} (1 - traced / untraced instances_per_s)"
                );
            }
            runs.push((untraced, traced));
        }
        let set = compare::result_set(seed, seconds, &runs);
        compare::append_line(&cli.out_dir.join("history.jsonl"), &set)?;
        sets.push(set);
    }
    Ok(sets)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("glossary") => {
            print!("{}", spec::glossary());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err(usage());
            };
            let a = compare::load_sets(a.as_ref())?;
            let b = compare::load_sets(b.as_ref())?;
            let (table, all_ok) = compare::compare(&a, &b);
            print!("{table}");
            Ok(if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => {
            let cli = parse_cli(&args)?;
            if let Some(workload) = &cli.workload {
                return run_one(&cli, workload);
            }
            let sets = run_all(&cli, &run_in_child)?;
            println!(
                "result sets appended to {}",
                cli.out_dir.join("history.jsonl").display()
            );
            if sets.len() >= 2 {
                // The same commit against itself: first half of the passes
                // against the second half.
                let (a, b) = sets.split_at(sets.len() / 2);
                let (table, all_ok) = compare::compare(a, b);
                print!("{table}");
                if !all_ok {
                    return Ok(ExitCode::FAILURE);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `--smoke` in-process: every workload, both passes. What it prints
    /// must be exactly what `BENCHMARK.json` declares.
    #[test]
    fn smoke_reports_exactly_the_declared_metrics() {
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("smoke-test-{}", std::process::id()));
        let cli = Cli {
            workload: None,
            seed: 1,
            seconds: 2.0,
            trace: false,
            repeat: 1,
            smoke: true,
            out_dir: out_dir.clone(),
        };
        let started = std::time::Instant::now();
        let sets = run_all(&cli, &workloads::run).expect("smoke run succeeds");
        assert!(
            started.elapsed().as_secs() < 60,
            "smoke took {:?}",
            started.elapsed()
        );
        let _ = std::fs::remove_dir_all(&out_dir);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> BTreeSet<String> {
            declared
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let (end_to_end, per_layer, workloads) =
            (names("end_to_end"), names("per_layer"), names("workloads"));
        assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);

        let set = &sets[0];
        let ran = set.get("workloads").unwrap().as_obj().unwrap();
        assert_eq!(ran.keys().cloned().collect::<BTreeSet<_>>(), workloads);
        for (workload, result) in ran {
            for (key, declared_names) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
                let printed: BTreeSet<String> = result
                    .get(key)
                    .unwrap()
                    .as_obj()
                    .unwrap()
                    .keys()
                    .cloned()
                    .collect();
                assert_eq!(&printed, declared_names, "{workload} {key}");
            }
            assert_eq!(
                result.get("failed").unwrap().as_f64(),
                Some(0.0),
                "{workload}"
            );
            for (name, value) in result.get("end_to_end").unwrap().as_obj().unwrap() {
                assert!(
                    value.as_f64().unwrap() > 0.0,
                    "{workload} {name} must never be 0"
                );
            }
        }

        // fabric_direct really bypasses the layers it claims to bypass.
        let fabric = ran["fabric_direct"].get("per_layer").unwrap();
        for name in [
            "net.frames_per_instance",
            "net.frames_per_writev",
            "community.delegations_per_instance",
            "discovery.gossip_frames_per_s",
        ] {
            assert_eq!(fabric.get(name).unwrap().as_f64(), Some(0.0), "{name}");
        }
        let tcp = ran["tcp_small"].get("per_layer").unwrap();
        assert!(
            tcp.get("net.frames_per_instance")
                .unwrap()
                .as_f64()
                .unwrap()
                > 10.0
        );
        assert!(
            tcp.get("community.delegations_per_instance")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 2.0
        );
    }

    #[test]
    fn rejects_malformed_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args(
            "--workload tcp_small --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds -1")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }
}
