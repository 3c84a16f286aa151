//! The rega benchmark: one named workload, one seed, one measurement
//! window. Prints every metric by name and unit as the last line of
//! standard output and exits non-zero when a correctness check fails.
//!
//! ```text
//! rega-benchmark --workload <views|decide|serve|cluster> --seed <n> \
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same workload under an in-memory trace sink and
//! reports the per-layer ledger instead. See `README.md`.

mod cluster;
mod common;
mod decide;
mod serve;
mod sessions;
mod views;

use common::{Args, Outcome};

/// The benchmark's definition: its metric names and units are read from
/// here, so the program and `BENCHMARK.json` cannot disagree.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`).
fn declared_metrics(list: &str) -> Vec<(String, String)> {
    let bench: serde_json::Value =
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    bench[list]
        .as_array()
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("metric name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: rega-benchmark --workload <views|decide|serve|cluster> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    // Process-cluster workers are re-execs of this binary.
    rega_cluster::maybe_worker_entry();
    let args = parse_args();
    let outcome: Outcome = match args.workload.as_str() {
        "views" => views::run(&args),
        "decide" => decide::run(&args),
        "serve" => serve::run(&args),
        "cluster" => cluster::run(&args),
        _ => usage(),
    };
    let mut outcome = outcome;
    let declared = declared_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    if args.trace {
        // A layer this workload does not run reads 0.
        for (name, unit) in &declared {
            outcome
                .metrics
                .entry(name.clone())
                .or_insert((0.0, unit.clone()));
        }
    }
    let mut reported: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
        .collect();
    let mut declared = declared;
    reported.sort();
    declared.sort();
    assert_eq!(
        reported, declared,
        "the workload reports the metrics BENCHMARK.json declares, in its units"
    );
    for note in &outcome.notes {
        eprintln!("{}: {note}", args.workload);
    }
    let line = serde_json::to_string(&outcome.to_json()).expect("serializable result");
    println!("{line}");
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
