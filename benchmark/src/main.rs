//! The ppcs benchmark: four workloads, end-to-end metrics, and a layer
//! ladder from `crypto` to `fleet`. See `README.md` in this directory.
//!
//! ```text
//! ppcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ppcs-benchmark all    [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ppcs-benchmark repeat [--seed <n>] [--seconds <s>]
//! ppcs-benchmark --smoke
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result as one JSON object. `all` and
//! `repeat` start one such process per workload.

// One `unsafe` block, in `sys::pin_to_one_cpu`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod inputs;
mod ladder;
mod layers;
mod run;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use ppcs_telemetry::json::{obj, Json};

use crate::run::Metric;
use crate::workloads::{Observers, Workload};

/// `run_seconds` of `BENCHMARK.json`: what the request rates of
/// [`Workload::requests_per_second`] were calibrated for.
pub const RUN_SECONDS: u64 = 20;

/// Command-line options shared by every mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// `--workload`, when given.
    pub workload: Option<Workload>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace 1`.
    pub trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => opts.trace = number()? != 0,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                obj(vec![
                    ("value", Json::Number(value)),
                    ("unit", Json::String(unit.into())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

fn print_metrics(metrics: &[Metric]) {
    for (name, unit, value) in metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
}

/// One run of one workload in this process.
fn run_one(workload: Workload, opts: &Options) -> ExitCode {
    let (attempted, failed, metrics) = if opts.trace {
        let requests = layers::traced_requests(workload, opts.seconds);
        println!(
            "{}: traced run, seed {}, 2 x {requests} requests (observers off, then on), then the ladder",
            workload.name(),
            opts.seed
        );
        let report = layers::traced_run(workload, opts.seed, opts.seconds);
        print_metrics(&report.metrics);
        println!(
            "untraced pass: process.request_p50_ms = {:.6}; ladder (top rung first; self = rung minus \
             the rung below):",
            report.untraced_p50_ms
        );
        for (i, (name, ms)) in report.ladder.iter().enumerate() {
            let below = report.ladder.get(i + 1).map_or(0.0, |r| r.1);
            println!("  {name:<32} {ms:>14.6} ms   self {:>14.6} ms", ms - below);
        }
        println!("trace written to {}", report.trace_path.display());
        (report.attempted, report.failed, report.metrics)
    } else {
        let requests = workload.requests_for(opts.seconds);
        let epochs = workload.epochs();
        println!(
            "{}: seed {}, {requests} timed requests in a closed loop, {epochs} epochs of {}",
            workload.name(),
            opts.seed,
            requests / epochs
        );
        let run = run::run(workload, opts.seed, requests, epochs, &Observers::default());
        let metrics = run::end_to_end(&run);
        print_metrics(&metrics);
        println!(
            "setup_s is the first quartile of {epochs} set-ups; request_p10_ms is over blocks of {} \
             request(s); {} results attempted, {} failed the oracle check",
            run.block_len,
            run.stats.attempted,
            run.stats.failed()
        );
        (run.stats.attempted, run.stats.failed(), metrics)
    };
    println!("{}", result_json(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        Some("--smoke") => ("smoke", &args[1..]),
        _ => ("one", &args[..]),
    };
    let opts = match parse_options(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ppcs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that all of them inherit it.
    match sys::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => eprintln!("ppcs-benchmark: could not pin to one cpu; timings will be noisier"),
    }
    match (mode, opts.workload) {
        ("one", Some(workload)) => run_one(workload, &opts),
        ("one", None) => {
            eprintln!(
                "usage: ppcs-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
                 ppcs-benchmark all|repeat [--seed <n>] [--seconds <s>]\n       \
                 ppcs-benchmark --smoke",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
        ("all", _) => suite::all(&opts),
        ("repeat", _) => suite::repeat(&opts),
        _ => suite::smoke(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_command_line_parses() {
        let args: Vec<String> = "--workload fleet_sim_tcp --seed 42 --seconds 7 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        assert_eq!(
            parse_options(&args).unwrap(),
            Options {
                workload: Some(Workload::FleetSimTcp),
                seed: 42,
                seconds: 7,
                trace: true,
            }
        );
        assert!(parse_options(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_options(&["--seed".into()]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_json(10, 0, &[("request_p10_ms", "ms", 1.25)]).to_string();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("request_p10_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(!line.contains('\n'));
    }
}
