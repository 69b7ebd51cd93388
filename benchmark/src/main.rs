//! The repo benchmark: four executor workloads, wall-clock end-to-end
//! metrics, and a separate traced run for per-layer metrics. See
//! `README.md` beside this package; `run.sh` is the one command.

mod catalog;
mod compare;
mod env;
mod host;
mod probes;
mod report;
mod stats;
mod trace;
mod traced_backend;
mod workloads;

use std::process::ExitCode;

use workloads::Args;

const USAGE: &str = "\
usage: apc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]
       apc-benchmark manifest                 print BENCHMARK.json
       apc-benchmark workloads                print the workload names
       apc-benchmark check <dir-a> <dir-b>    compare two result sets against the bounds
       apc-benchmark spread <dir>             run-to-run spread of a result set";

fn parse_run(argv: &[String]) -> Result<(Args, Option<String>), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: catalog::RUN_SECONDS as f64,
        traced: false,
    };
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok((args, out))
}

fn run_workload(argv: &[String]) -> Result<bool, String> {
    let (args, out) = parse_run(argv)?;
    let report = workloads::run(&args)?;
    print!("{}", report.lines());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.driver_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::benchmark_json());
            Ok(true)
        }
        Some("workloads") => {
            for (name, _) in catalog::WORKLOADS {
                println!("{name}");
            }
            Ok(true)
        }
        Some("check") if argv.len() == 3 => compare::check(&argv[1], &argv[2]),
        Some("spread") if argv.len() == 2 => compare::spread(&argv[1]),
        Some(_) => run_workload(&argv),
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
