//! `tcpfo-inspect` end to end: every subcommand that drives a scene
//! exits 0 (no invariant violation) and shows what its view is for.

use std::process::Command;

/// Runs the inspector with `args`; its stdout, once it exited 0.
fn inspect(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpfo-inspect"))
        .args(args)
        .output()
        .expect("tcpfo-inspect runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The line number of the first line of `text` that contains every
/// one of `parts`.
fn line_of(text: &str, parts: &[&str]) -> Option<usize> {
    text.lines()
        .position(|l| parts.iter().all(|p| l.contains(p)))
}

#[test]
fn run_failover_reports_the_takeover_and_every_ring_drop() {
    let out = inspect(&["run", "--failover"]);
    assert!(out.contains("=== connections (primary bridge, mid-transfer) ==="));
    assert!(out.contains("auditor [primary]") && out.contains("auditor [secondary]"));
    let drops = ["drops: journal", "span ring", "lost ends", "packet trace"];
    let auditors = ["primary auditor ring", "secondary auditor ring"];
    assert!(line_of(&out, &drops).is_some(), "{out}");
    assert!(line_of(&out, &auditors).is_some(), "{out}");
    assert!(out.contains("replica 0 (10.0.0.2) DEAD"), "{out}");
    assert!(
        line_of(&out, &["core.control.r1 promoted"]).is_some(),
        "{out}"
    );
}

#[test]
fn run_prom_prints_the_exposition_alone() {
    let out = inspect(&["run", "--prom"]);
    assert!(out.starts_with("# HELP "), "{out}");
    let stray = out
        .lines()
        .find(|l| !l.starts_with("# ") && !l.starts_with("tcpfo_"));
    assert_eq!(stray, None);
    assert!(out.contains("# TYPE tcpfo_core_control_r1_peer0_health_state gauge"));
}

/// The killed head's hub stays in the exposition: its counters frozen at
/// the kill, the simulator's `net.*` series still live.
#[test]
fn run_failover_prom_keeps_the_dead_heads_hub() {
    let out = inspect(&["run", "--failover", "--prom"]);
    assert!(out.contains("# end of replica 0 (10.0.0.2) DEAD"), "{out}");
    assert!(out.lines().any(|l| l.starts_with("tcpfo_net_")), "{out}");
}

#[test]
fn watch_pair_shows_the_failover() {
    let out = inspect(&["watch", "pair", "--failover", "--frames", "4", "--plain"]);
    assert_eq!(out.matches("tcpfo-inspect watch pair").count(), 4, "{out}");
    assert!(out.contains("primary KILLED — takeover"), "{out}");
    assert!(
        line_of(&out, &["core.control.r1 promoted"]).is_some(),
        "{out}"
    );
}

#[test]
fn watch_degrade_warns_with_a_reason_before_the_detector_fires() {
    let out = inspect(&["watch", "degrade", "--frames", "6", "--plain"]);
    let warn = line_of(&out, &["health.alert", "to=warn", "reason="]);
    let dead = line_of(&out, &["peer_dead"]);
    assert!(warn.is_some() && dead.is_some(), "{out}");
    assert!(warn < dead, "a warn must show before peer_dead:\n{out}");
}

#[test]
fn watch_chain_shows_the_promotion_and_the_redundancy_view() {
    let out = inspect(&["watch", "chain", "--frames", "6", "--plain"]);
    assert!(out.contains("replica 0 (10.0.0.2) DEAD"), "{out}");
    assert!(
        line_of(&out, &["core.control.r1 promoted"]).is_some(),
        "{out}"
    );
    // The reprovisioning round, stamped on the views of the hubs.
    let round = ["reprovision_start", "ms"];
    assert!(line_of(&out, &["redundancy timeline:"]).is_some(), "{out}");
    assert!(line_of(&out, &round).is_some(), "{out}");
    assert!(line_of(&out, &["handoff_done", "(+"]).is_some(), "{out}");
}

#[test]
fn trace_writes_a_chrome_trace() {
    let path = format!("{}/failover-trace.json", env!("CARGO_TARGET_TMPDIR"));
    let out = inspect(&["trace", "--replicas", "3", "--out", &path]);
    assert!(out.contains("§5 failover waterfall"), "{out}");
    let written = std::fs::metadata(&path).expect("trace written").len();
    assert!(written > 0, "{path} is empty");
}
