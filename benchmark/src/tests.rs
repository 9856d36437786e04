//! Self-tests that cross module boundaries: the timing wrappers must be
//! transparent, the generated scripts must be clean input for the
//! bridge, every workload must report every metric of its kind, and
//! `BENCHMARK.json` must say what the catalogue says.

use crate::adapter::Mode;
use crate::json::{self, Value};
use crate::report::{manifest, result_line, END_TO_END, PER_LAYER, WORKLOADS};
use crate::segments::Mix;
use crate::spans::Spans;
use crate::workloads::bridge_datapath::{chunk, digest_run, window_input, Datapath};
use crate::workloads::failover::{run_scene, Topology};
use crate::workloads::{self, bulk_stream, conn_churn, RunArgs};

#[test]
fn timed_wrappers_leave_a_bulk_pass_unchanged() {
    let plain = bulk_stream::run_pass(Mode::Failover, 7, 512 << 10, None);
    let spans = Spans::new();
    let timed = bulk_stream::run_pass(Mode::Failover, 7, 512 << 10, Some(&spans));
    assert_eq!(plain.failed + timed.failed, 0);
    assert_eq!(plain.counters.events, timed.counters.events);
    assert_eq!(plain.download_ns, timed.download_ns);
    assert_eq!(plain.upload_ns, timed.upload_ns);
    let (p, t) = (plain.stats.unwrap(), timed.stats.unwrap());
    assert_eq!(p.merged_bytes, t.merged_bytes);
    assert_eq!(p.empty_acks, t.empty_acks);
    assert_eq!(
        p.mismatched_bytes + p.drops + t.mismatched_bytes + t.drops,
        0
    );
    // Both bridges and every app were timed, inside net.run.
    for name in ["net.run", "core.filter_in", "core.filter_out", "core.tick"] {
        assert!(spans.aggregate(name).count > 0, "{name} recorded nothing");
    }
    assert!(spans.aggregate("apps.poll.server").count > 0);
    assert!(spans.aggregate("apps.poll.client").count > 0);
    let run = spans.aggregate("net.run");
    assert!(run.self_ns < run.total_ns);
}

#[test]
fn timed_wrappers_leave_a_churn_pass_unchanged() {
    let spec = conn_churn::PassSpec {
        mode: Mode::Failover,
        seed: 3,
        residents: 16,
        conns: 150,
        rate: 500.0,
    };
    let mut plain = conn_churn::run_pass(spec, None);
    let spans = Spans::new();
    let mut timed = conn_churn::run_pass(spec, Some(&spans));
    assert_eq!(plain.failed + timed.failed, 0);
    assert_eq!(plain.events_in_run, timed.events_in_run);
    for q in [0.5, 0.9, 1.0] {
        assert_eq!(plain.latencies.quantile(q), timed.latencies.quantile(q));
    }
}

#[test]
fn timed_wrappers_leave_an_audited_failover_scene_unchanged() {
    let plain = run_scene(Topology::Pair, 5, 6, 64 << 10, None);
    let spans = Spans::new();
    let timed = run_scene(Topology::Pair, 5, 6, 64 << 10, Some(&spans));
    assert_eq!(plain.failure, None);
    assert_eq!(timed.failure, None);
    assert_eq!(plain.counters.events, timed.counters.events);
    assert_eq!(plain.client_stall_ns, timed.client_stall_ns);
    assert_eq!(plain.report.detect_ns, timed.report.detect_ns);
    assert_eq!(plain.report.takeover_ns, timed.report.takeover_ns);
    assert!(plain.client_stall_ns > 0);
}

#[test]
fn a_chain_scene_restores_redundancy_with_a_drained_ledger() {
    let s = run_scene(Topology::Chain, 5, 6, 64 << 10, None);
    assert_eq!(s.failure, None);
    let r = &s.report;
    assert!(r.takeover_ns.unwrap() >= r.detect_ns.unwrap());
    assert!(r.restored_ns.unwrap() > r.takeover_ns.unwrap());
    assert_eq!(r.lag_unmatched_bytes + r.audit_violations, 0);
    let (parts, total) = r.mttr.expect("timeline complete");
    assert_eq!(parts.iter().sum::<u64>(), total);
}

#[test]
fn the_bridge_accepts_every_script_shape_cleanly() {
    for mix in [
        Mix::UploadOnly,
        Mix::DownloadOnly,
        Mix::MiceOnly,
        Mix::Mixed,
    ] {
        let mut dp = Datapath::new(9, 256, 4, 4096);
        let before = dp.stats();
        let steps = dp.script.next(3000, mix);
        let rounds = steps.len() as u64 / 3;
        dp.feed(chunk(steps));
        let s = dp.stats();
        assert_eq!(s.drops + s.mismatched_bytes + s.evicted_flows, 0, "{mix:?}");
        match mix {
            // Client data goes up translated; the minimum advances on
            // the secondary's ACK and one bare ACK goes out a round.
            Mix::UploadOnly => {
                assert_eq!(s.empty_acks - before.empty_acks, rounds);
                assert_eq!(s.acks_translated - before.acks_translated, rounds);
                assert_eq!(s.merged_bytes, before.merged_bytes);
            }
            Mix::DownloadOnly => {
                assert_eq!(s.merged_segments - before.merged_segments, rounds);
                assert_eq!(s.merged_bytes - before.merged_bytes, rounds * 64);
            }
            Mix::MiceOnly => assert_eq!(s.conns_closed, 300),
            Mix::Mixed => assert!(s.conns_closed > 0 && s.empty_acks > before.empty_acks),
        }
    }
}

#[test]
fn bridge_output_is_the_same_at_one_and_sixteen_shards_and_follows_the_seed() {
    let ((d1, s1), (d16, _)) = (digest_run(21, 1), digest_run(21, 16));
    assert_eq!(d1, d16);
    assert_eq!(s1.drops + s1.mismatched_bytes, 0);
    assert_ne!(d1, digest_run(22, 1).0);
}

#[test]
fn an_open_loop_window_times_every_segment_and_ends_with_no_backlog() {
    let mut dp = Datapath::new(4, 256, 4, 4096);
    // 20 000 seg/s is far below what even a debug build carries.
    let (steps, sched) = window_input(&mut dp.script, 4, 0, 20_000.0, 0.1);
    assert!(sched.windows(2).all(|w| w[0] <= w[1]));
    let n = steps.len();
    let w = dp.open_loop_window(steps, &sched);
    assert_eq!(w.backlog_end, 0);
    assert_eq!(w.latency_ns.len(), n);
    assert_eq!(w.late_ns.len(), n);
    assert!(w.backlog_peak >= 1);
    let s = dp.stats();
    assert_eq!(s.drops + s.mismatched_bytes, 0);
}

fn smoke(trace: bool) -> RunArgs {
    RunArgs {
        seed: 2,
        seconds: 1,
        trace,
        out_dir: std::env::temp_dir().join("tcpfo-benchmark-selftest"),
        smoke: true,
    }
}

/// Every workload, at the smoke size: no operation fails, every
/// end-to-end metric is measured and positive, and the traced run names
/// only catalogued per-layer metrics (`Metrics::set` panics otherwise).
#[test]
fn every_workload_reports_every_metric_of_its_kind() {
    for name in WORKLOADS {
        let run = |args: &RunArgs| workloads::run(name, args).expect("a workload of that name");
        let o = run(&smoke(false));
        assert!(o.attempted >= 1, "{name}");
        assert_eq!(o.failed, 0, "{name}: {:?}", o.notes);
        for m in &END_TO_END {
            let v = o
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{name}: {} missing", m.name));
            assert!(v > 0.0, "{name}: {} = {v}", m.name);
        }
        let line = json::parse(&result_line(&o, false)).expect("valid JSON");
        assert_eq!(
            line.get("metrics").unwrap().entries().len(),
            END_TO_END.len()
        );

        let t = run(&smoke(true));
        assert_eq!(t.failed, 0, "{name} traced: {:?}", t.notes);
        let line = json::parse(&result_line(&t, true)).expect("valid JSON");
        assert_eq!(
            line.get("metrics").unwrap().entries().len(),
            PER_LAYER.len()
        );
        if name != "bridge_datapath" {
            let coverage = t.metrics.get("trace.span_coverage_pct").expect("measured");
            assert!(
                coverage > 90.0,
                "{name}: spans cover {coverage} % of the traced pass"
            );
        }
    }
}

#[test]
fn benchmark_json_repeats_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        manifest(),
        "regenerate with `tcpfo-benchmark manifest > BENCHMARK.json`"
    );
    let doc = json::parse(&file).expect("valid JSON");
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for w in doc.get("workloads").unwrap().arr() {
        match w.get("why") {
            Some(Value::Str(why)) => assert!(why.len() <= 200 && !why.contains('\n'), "{why}"),
            other => panic!("why: {other:?}"),
        }
    }
    assert!(file.len() <= 64 * 1024);
}
