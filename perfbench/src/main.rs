//! `perfbench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]`
//!
//! Without `--workload` every workload runs, interleaved in rounds.
//! `--trace 0` (the default) measures the end-to-end metrics and writes
//! `perfbench-results.json`; `--trace 1` measures the per-layer metrics and
//! writes `perfbench-layers.json` plus a Chrome trace per workload. Either
//! way the last line of standard output is the JSON summary. Exit status:
//! 0 when every op was correct, 1 when the correctness gate or an op
//! failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::report;
use perfbench::timed::{self, Options};
use perfbench::trace;
use perfbench::workloads::{Workload, DEFAULT_SEED};

/// Measuring time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: perfbench [--workload paper|steady|chaos|recovery] [--seed S] \
                     [--seconds T] [--trace 0|1] [--smoke]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
    };
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                opts.workloads = vec![w];
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((opts, traced))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = if traced {
        report::emit(&trace::run(&opts), "perfbench-layers.json")
    } else {
        report::emit(&timed::run(&opts), "perfbench-results.json")
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
