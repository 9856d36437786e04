//! The repository's one standing benchmark. See `README.md`.
//!
//! ```text
//! tcpfo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tcpfo-benchmark suite [--seed n] [--runs k] [--seconds s] [--out file]
//! tcpfo-benchmark compare <a.json> <b.json>
//! tcpfo-benchmark manifest          # prints BENCHMARK.json
//! ```

mod adapter;
mod alloc;
mod client;
mod compare;
mod json;
mod layers;
mod report;
mod segments;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunArgs;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed `BENCHMARK.json` records as the default; 0x5EED2 is held
/// out for later claims and never used while writing a change.
const DEFAULT_SEED: u64 = 1;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tcpfo-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir dir]\n\
         \x20      tcpfo-benchmark suite [--seed n] [--runs k] [--seconds s] [--out file]\n\
         \x20      tcpfo-benchmark compare <a.json> <b.json>",
        report::WORKLOADS.join("|")
    );
    ExitCode::from(64)
}

/// `--key value` pairs after the optional subcommand.
fn options(args: &[String]) -> Option<Vec<(&str, &str)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        out.push((k.strip_prefix("--")?, it.next()?.as_str()));
    }
    Some(out)
}

fn main() -> ExitCode {
    adapter::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("suite") => ("suite", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest());
            return ExitCode::SUCCESS;
        }
        None => ("suite", &args[..]),
        Some(_) => ("run", &args[..]),
    };
    if command == "compare" {
        let [a, b] = rest else { return usage() };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(opts) = options(rest) else {
        return usage();
    };
    let get = |key: &str| opts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let num = |key: &str, default: u64| get(key).map_or(Some(default), |v| v.parse().ok());
    let (Some(seed), Some(seconds), Some(trace), Some(runs)) = (
        num("seed", DEFAULT_SEED),
        num("seconds", report::RUN_SECONDS),
        num("trace", 0),
        num("runs", 3),
    ) else {
        return usage();
    };
    let out_dir = PathBuf::from(get("out-dir").unwrap_or("benchmark/out"));
    if command == "suite" {
        let out = get("out").map_or_else(
            || out_dir.join(format!("result-{seed}.json")),
            PathBuf::from,
        );
        return match compare::suite(seed, runs, seconds.max(1), &out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("suite: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = get("workload") else {
        return usage();
    };
    // Violations write their flight-recorder bundle beside the traces.
    std::env::set_var("TCPFO_AUDIT_BUNDLE_DIR", out_dir.join("audit-bundles"));
    let run_args = RunArgs {
        seed,
        seconds: seconds.max(1),
        trace: trace != 0,
        out_dir,
        smoke: false,
    };
    let Some(outcome) = workloads::run(workload, &run_args) else {
        return usage();
    };
    print!("{}", report::table(workload, &outcome, run_args.trace));
    println!("{}", report::result_line(&outcome, run_args.trace));
    ExitCode::SUCCESS
}
