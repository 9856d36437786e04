//! `suite`: every workload in child processes, untraced runs then the
//! traced run, one result file. `compare`: two result files, every
//! metric × workload with its delta and bound.

use crate::json::{self, Value};
use crate::report::{cell_bound, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median_f64;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the driver's definition of spread).
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative when the clamp bites: Python extrapolates there too.
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |(q1, q3)| {
        (q3 - q1) / median_f64(xs).abs().max(f64::MIN_POSITIVE)
    })
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the result line is the human-readable table.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    println!("{}", lines.join("\n"));
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    json::parse(&last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    Ok(last)
}

/// Runs everything and writes `out` (nothing is written on a failure).
pub fn suite(seed: u64, runs: u64, seconds: u64, out: &Path) -> Result<(), String> {
    let mut doc = format!(
        "{{\n  \"seed\": {seed}, \"runs\": {runs}, \"seconds\": {seconds},\n  \"workloads\": {{\n"
    );
    let mut spreads = String::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut lines = Vec::new();
        for r in 0..runs {
            lines.push(run_child(workload, seed + r, seconds, false)?);
        }
        for m in &END_TO_END {
            let xs: Vec<f64> = lines
                .iter()
                .filter_map(|l| {
                    json::parse(l)
                        .ok()?
                        .get("metrics")?
                        .get(m.name)?
                        .get("value")?
                        .num()
                })
                .collect();
            let _ = writeln!(
                spreads,
                "{workload:<16} {:<20} {:>16.4} {:<3} {:>8.2}",
                m.name,
                median_f64(&xs),
                m.unit,
                spread(&xs) * 100.0
            );
        }
        let traced = run_child(workload, seed, seconds, true)?;
        let _ = write!(
            doc,
            "    \"{workload}\": {{\n      \"runs\": [\n        {}\n      ],\n      \"traced\": {traced}\n    }}{}\n",
            lines.join(",\n        "),
            if w + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    doc.push_str("  }\n}\n");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, doc).map_err(|e| e.to_string())?;
    println!("median and spread (quartile distance as % of the median) over {runs} seeds:");
    print!("{spreads}");
    println!("results written to {}", out.display());
    Ok(())
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_values(workload: &Value, name: &str) -> Vec<f64> {
    workload
        .get("runs")
        .map_or(&[][..], Value::arr)
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.num())
        .collect()
}

fn failed_share(workload: &Value) -> f64 {
    let sum = |key: &str| -> f64 {
        workload
            .get("runs")
            .map_or(&[][..], Value::arr)
            .iter()
            .filter_map(|r| r.get(key)?.num())
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Prints the comparison; `Ok(true)` when `b` is no worse than `a`.
///
/// Runs are paired by position (the suite gives run `i` seed `seed + i`
/// in both files): a cell's change is the median of the per-seed
/// changes, and its noise the distance between their quartiles. Pairing
/// takes the seed's own effect out, which is what lets the simulated
/// cells be held to 1 %.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!("end-to-end: {a_path} (a) against {b_path} (b), runs paired by seed;");
    println!("worse% is the median per-seed change, positive when b is worse");
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse%", "noise%", "bound%"
    );
    for workload in WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(workload)),
            b.get("workloads").and_then(|w| w.get(workload)),
        ) else {
            println!("{workload:<16} missing from one file");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (xa, xb) = (metric_values(wa, m.name), metric_values(wb, m.name));
            if xa.is_empty() || xa.len() != xb.len() {
                println!("{workload:<16} {:<20} runs do not pair up", m.name);
                ok = false;
                continue;
            }
            let changes: Vec<f64> = xa
                .iter()
                .zip(&xb)
                .map(|(&x, &y)| match m.better {
                    Better::Lower => (y - x) / x,
                    Better::Higher => (x - y) / x,
                })
                .collect();
            let worse = median_f64(&changes);
            let noise = quartiles(&changes).map_or(0.0, |(q1, q3)| q3 - q1);
            let bound = cell_bound(workload, m);
            let verdict = if worse > bound {
                ok = false;
                "REGRESSION"
            } else if noise > bound {
                // The runs disagree by more than the bound: the cell is
                // neither shown worse nor shown unchanged.
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<20} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>7.1}  {verdict}",
                m.name,
                median_f64(&xa),
                median_f64(&xb),
                worse * 100.0,
                noise * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{workload:<16} failed operations rose from {fa:.6} to {fb:.6} of attempted");
            ok = false;
        }
    }
    println!("\nper-layer (traced run; no bounds): value a, value b, change%");
    for m in PER_LAYER {
        let mut row = format!("{:<34}", m.name);
        let mut any = false;
        for workload in WORKLOADS {
            let get = |doc: &Value| {
                doc.get("workloads")?
                    .get(workload)?
                    .get("traced")?
                    .get("metrics")?
                    .get(m.name)?
                    .get("value")?
                    .num()
            };
            match (get(&a), get(&b)) {
                (Some(x), Some(y)) if x != 0.0 || y != 0.0 => {
                    any = true;
                    let change = if x == 0.0 {
                        f64::INFINITY
                    } else {
                        (y - x) / x * 100.0
                    };
                    let _ = write!(row, "  {workload}: {x:.4} -> {y:.4} ({change:+.2}%)");
                }
                _ => {}
            }
        }
        if any {
            println!("{row} [{}]", m.unit);
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
