//! Whole-suite modes: `all`, `repeat` and `--smoke`, and the reading
//! of `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ppcs_telemetry::json::Json;

use crate::run::{end_to_end, run, Metric};
use crate::workloads::{Observers, Workload};
use crate::Options;

/// `BENCHMARK.json` sits beside this package's directory, at the root
/// of the repository.
fn manifest_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// The parsed `BENCHMARK.json`.
pub fn manifest() -> Json {
    let path = manifest_path();
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(manifest: &Json) -> Vec<(String, f64)> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string(),
                m.get("bound").and_then(Json::as_f64).expect("metric bound"),
            )
        })
        .collect()
}

/// One run of `workload` in a process of its own; returns its result
/// line, parsed.
fn child_run(workload: Workload, opts: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{}: result line: {e:?}", workload.name()))
}

/// Runs every workload, one process each.
pub fn all(opts: &Options) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        if let Err(e) = child_run(workload, opts) {
            eprintln!("ppcs-benchmark: {e}");
            code = ExitCode::FAILURE;
        }
        println!();
    }
    code
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Metrics that count protocol traffic: seeded, so two runs of one seed
/// must agree to the byte.
const EXACT: [&str; 2] = ["wire_bytes_per_result", "frames_per_result"];

/// Runs the untraced suite twice and compares the two sets: every
/// workload × end-to-end metric must agree within the metric's bound
/// in `BENCHMARK.json`, traffic counts exactly, and nothing may fail.
pub fn repeat(opts: &Options) -> ExitCode {
    let opts = Options {
        trace: false,
        ..opts.clone()
    };
    let bounds = bounds(&manifest());
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for pass in 1..=2 {
        println!("== repeat: pass {pass} of 2 ==");
        let mut set = Vec::new();
        for workload in Workload::ALL {
            match child_run(workload, &opts) {
                Ok(result) => set.push(result),
                Err(e) => {
                    eprintln!("ppcs-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    println!(
        "\n{:<18} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    let mut breaches = 0;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (name, bound) in &bounds {
            let (Some(a), Some(b)) = (
                metric_value(&sets[0][w], name),
                metric_value(&sets[1][w], name),
            ) else {
                println!("{:<18} {name:<24} missing from a result", workload.name());
                breaches += 1;
                continue;
            };
            let diff = (b - a).abs() / a.abs();
            let breach = if EXACT.contains(&name.as_str()) {
                a != b
            } else {
                diff > *bound
            };
            println!(
                "{:<18} {name:<24} {a:>16.6} {b:>16.6} {diff:>9.4} {bound:>7.3}{}",
                workload.name(),
                if breach { "  BREACH" } else { "" }
            );
            breaches += usize::from(breach);
        }
        for set in &sets {
            if set[w].get("failed").and_then(Json::as_u64) != Some(0) {
                println!("{:<18} a run reported failed results", workload.name());
                breaches += 1;
            }
        }
    }
    if breaches == 0 {
        println!("\nrepeat: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("\nrepeat: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

/// Timed requests of the smoke run: at most 1 % of a full run, two on
/// the MODP-2048 path.
fn smoke_requests(workload: Workload) -> usize {
    match workload {
        Workload::ColdNp2048Tcp | Workload::PolyBatchFp256 => 2,
        _ => workload.requests_for(crate::RUN_SECONDS) / 100,
    }
}

/// Every workload at smoke size, in this process, oracle included.
/// Returns the end-to-end metrics per workload.
///
/// # Panics
///
/// Panics if any result fails its oracle check.
pub fn smoke_run(seed: u64) -> Vec<(Workload, Vec<Metric>)> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            let requests = smoke_requests(workload);
            let r = run(workload, seed, requests, 1, &Observers::default());
            assert_eq!(
                r.stats.failed(),
                0,
                "{}: results failed the oracle check",
                workload.name()
            );
            assert_eq!(r.stats.latencies_ms.len(), requests);
            (workload, end_to_end(&r))
        })
        .collect()
}

/// `--smoke`: the whole path in under 20 s.
pub fn smoke() -> ExitCode {
    let start = std::time::Instant::now();
    for (workload, metrics) in smoke_run(1) {
        println!(
            "{} ({} requests)",
            workload.name(),
            smoke_requests(workload)
        );
        for (name, unit, value) in metrics {
            println!("  {name:<24} {value:>16.6} {unit}");
        }
    }
    println!("smoke: ok in {:.1} s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::run::END_TO_END;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(String::from);
                (
                    field("name").expect("name"),
                    field("unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!well_formed(".x") && !well_formed("a b") && !well_formed(""));
    }

    #[test]
    fn the_manifest_and_the_harness_name_the_same_things() {
        let m = manifest();
        let workloads: Vec<String> = listed(&m, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&m, "end_to_end"), pairs(&END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(listed(&m, "per_layer"), pairs(&per_layer));
        for (entry, row) in m
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(row.2));
        }
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_u64),
            Some(crate::RUN_SECONDS)
        );
        // The contract's limits on the bounds.
        for (name, bound) in bounds(&m) {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
    }

    #[test]
    fn full_runs_are_whole_blocks_in_whole_epochs() {
        for w in Workload::ALL {
            for seconds in [1, 7, crate::RUN_SECONDS, 60] {
                let n = w.requests_for(seconds);
                assert!(
                    n > 0 && n % (w.epochs() * w.block_len()) == 0,
                    "{}",
                    w.name()
                );
            }
            let n = w.requests_for(crate::RUN_SECONDS);
            // A block of sub-millisecond requests has a first decile
            // with samples below it, and every block position is seen
            // in at least four epochs.
            assert!(w.block_len() == 1 || w.block_len() >= 100, "{}", w.name());
            assert!(w.epochs() >= 4, "{}", w.name());
            // Smoke is at most 1 % of a full run, except where that
            // would be less than the two requests a loop needs.
            assert!(smoke_requests(w) <= (n / 100).max(2), "{}", w.name());
        }
    }

    #[test]
    fn smoke_exercises_every_workload_and_emits_every_end_to_end_metric() {
        let start = std::time::Instant::now();
        let runs = smoke_run(5);
        assert_eq!(runs.len(), Workload::ALL.len());
        for (workload, metrics) in runs {
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{}", workload.name());
            for (name, _, value) in metrics {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {name} = {value}",
                    workload.name()
                );
            }
        }
        assert!(start.elapsed().as_secs() < 20, "smoke took too long");
    }
}
