//! Runs one benchmark workload and prints its result line last.
//!
//! Usage: `sparkxd-perfbench --workload <pipeline_n400|serve_n400>
//! [--seed N] [--seconds N] [--trace 0|1]`
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer ones, timed around the public calls each
//! workload makes.

use sparkxd_perfbench::{host_json, Outcome, END_TO_END, LAYER_METRICS};
use sparkxd_snn::engine::busy_peak;
use sparkxd_snn::WorkerPool;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = match args.workload.as_str() {
        "pipeline_n400" => sparkxd_perfbench::pipeline::run,
        "serve_n400" => sparkxd_perfbench::serve::run,
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (pipeline_n400 or serve_n400)"
            );
            std::process::exit(2);
        }
    };
    println!("{}", host_json(&args.workload, args.seed, args.trace));
    let mut out = Outcome::default();
    workload(args.seed, args.seconds, args.trace, &mut out);
    let expected = if args.trace {
        out.put("pool.busy_peak", busy_peak() as f64, "count");
        out.put(
            "pool.dispatches",
            WorkerPool::global().dispatches() as f64,
            "count",
        );
        LAYER_METRICS
    } else {
        END_TO_END
    };
    for (name, unit) in expected {
        if !out.metrics.contains_key(*name) {
            if args.trace {
                out.put(name, 0.0, unit);
            } else {
                // A workload that failed before measuring still prints a
                // complete, failed result.
                out.check(false, &format!("{name} not measured"));
                out.put(name, 0.0, unit);
            }
        }
    }
    println!("{}", out.to_json());
}
