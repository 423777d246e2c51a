//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `table1`, `wide-100k`, `serve-durable`, or `all` for the
//! three in turn from one process. With `--trace 0`
//! the run measures the end-to-end metrics untraced; with `--trace 1` it
//! records spans around its calls into each crate and reports the
//! per-layer metrics plus the tracing overhead. The last line of standard
//! output is the result object (`correct`, `attempted`, `failed`,
//! `metrics`); the line before it carries the full detail (host
//! fingerprint, sample counts, every check, the workload-specific numbers).
//! Results and traces are also written under `.perfbench-out/` in the
//! working directory. `--smoke` shrinks every input to a seconds-long run.

mod report;
mod serve;
mod solver;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Options, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        out_dir: PathBuf::from(".perfbench-out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // `--workload all` runs the three workloads one after another in this
    // process, each printing its own detail and result lines.
    let names: Vec<String> = if opts.workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        vec![opts.workload.clone()]
    };
    for name in names {
        let opts = Options {
            workload: name,
            ..opts.clone()
        };
        match workloads::run(&opts) {
            Ok(mut report) => report.emit(&opts.workload, opts.seed, opts.traced, &opts.out_dir),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
