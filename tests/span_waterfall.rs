//! A traced failover explains itself: with span tracing armed, the
//! synthetic §5 waterfall sums *exactly* to the hub's MTTR, every
//! moment on the flight path (the kill, heartbeat misses, the decision,
//! the VIP takeover, the first client byte — and on a chain the three
//! reprovisioning moments) is in the exported record set, reprovisioning
//! is drawn once, and the Chrome-trace export is well-formed JSON. Ring
//! ordering and loss accounting are property-tested in
//! `crates/telemetry/tests/span_props.rs`.

mod common;

use common::is_json;
use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::chain_testbed::{ChainConfig, ChainTestbed};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{
    chrome_trace_json, waterfall_records, SpanKind, SpanRecord, Telemetry,
};

const TOTAL: u64 = 4_000_000;

fn download_client() -> RequestReplyClient {
    RequestReplyClient::new(
        SocketAddr::new(addrs::A_P, 80),
        format!("SEND {TOTAL}\n").into_bytes(),
        TOTAL,
    )
}

/// The checks shared by the pair and the chain, over the live ring plus
/// the synthetic waterfall of `hub`: the five phase spans are contiguous
/// from the failure instant and sum to the MTTR, every name in
/// `must_see` is present, and the export parses.
fn assert_waterfall(hub: &Telemetry, must_see: &[&str]) {
    let mttr = hub.timeline.mttr().expect("complete §5 timeline");
    assert_eq!(mttr.deltas().iter().sum::<u64>(), mttr.total_ns);

    let waterfall = waterfall_records(hub);
    let root = waterfall
        .iter()
        .find(|r| r.name == "failover")
        .expect("failover root span");
    assert_eq!(root.dur_ns, mttr.total_ns, "root span is the MTTR");
    let phases: Vec<&SpanRecord> = waterfall.iter().filter(|r| r.parent == root.id).collect();
    assert_eq!(phases.len(), 5, "five §5 phases under the root");
    let mut cursor = root.start_ns;
    for p in &phases {
        assert_eq!(p.kind, SpanKind::Span);
        assert_eq!(p.start_ns, cursor, "phase {} is not contiguous", p.name);
        cursor += p.dur_ns;
    }
    assert_eq!(
        cursor - root.start_ns,
        mttr.total_ns,
        "phase durations do not sum to the timeline MTTR"
    );

    let live = hub.trace.records();
    assert!(!live.is_empty(), "armed ring recorded nothing");
    assert_eq!(hub.trace.dropped(), 0, "ring overflowed in a smoke run");
    let mut all = live;
    all.extend_from_slice(&waterfall);
    for name in must_see {
        assert!(
            all.iter().any(|r| r.name == *name),
            "no `{name}` record on the flight path"
        );
    }
    let chrome = chrome_trace_json(&all);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(is_json(&chrome), "chrome trace is not JSON:\n{chrome}");
}

/// What a head failure leaves on the successor's flight path, in the
/// control plane's one vocabulary — the same at every depth.
const TAKEOVER: [&str; 11] = [
    "kill",
    "hb.miss",
    "peer_dead",
    "promote",
    "promotion",
    "takeover",
    "takeover.withdraw",
    "takeover.arp",
    "takeover.retransmit",
    "promoted",
    "first_client_byte",
];

/// The recall and the retransmit step sit under the `promotion` span at
/// the instant of the ARP, one before it and one after; the download
/// being mid-stream, the one flow was kicked, with nothing queued ahead
/// of its retransmission (one flow's window is long gone from the
/// successor's queue by the time the detector fires — the loaded scenes
/// of `tests/failover.rs` are where the recall finds frames).
fn assert_kicked(hub: &Telemetry) {
    let records = hub.trace.records();
    let at = |name: &str| records.iter().position(|r| r.name == name).unwrap();
    let steps = ["takeover.withdraw", "takeover.arp", "takeover.retransmit"].map(at);
    assert!(steps.is_sorted(), "recall, then the ARP, then the kick");
    let [recall, arp, kick] = steps.map(|i| &records[i]);
    let promotion = &records[at("promotion")];
    for step in [recall, kick] {
        assert_eq!(step.parent, promotion.id);
        assert_eq!(step.start_ns, arp.start_ns);
    }
    assert_eq!(recall.args, [Some(("frames", 0)), Some(("freed_ns", 0))]);
    assert_eq!(kick.args[0], Some(("flows", 1)));
    assert_eq!(kick.args[1], Some(("backlog_ns", 0)));
}

#[test]
fn pair_failover_waterfall_sums_to_the_mttr() {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 0xFA,
        span_trace: Some(true),
        ..TestbedConfig::default()
    });
    for node in [tb.primary, tb.secondary.expect("replicated testbed")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(download_client()));
    });
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));
    let done = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        c.is_done() && c.mismatches == 0
    });
    tb.expect(done, "download did not survive the failover");
    assert_waterfall(&tb.telemetry, &TAKEOVER);
    assert_kicked(&tb.telemetry);
}

#[test]
fn chain_failover_waterfall_covers_reprovisioning() {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        seed: 0xFA,
        health: Some(true),
        span_trace: Some(true),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(download_client()));
    });
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    chain_ops::reprovision_tail(&mut tb);
    assert!(
        tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30)),
        "catch-up never drained"
    );
    tb.run_for(SimDuration::from_secs(20));
    let done = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        c.is_done() && c.mismatches == 0
    });
    assert!(done, "download did not survive takeover + reprovisioning");

    // The promoting replica (B1) carries the complete §5 timeline and
    // the control-plane spans of the takeover it performed.
    let mut must_see = TAKEOVER.to_vec();
    must_see.extend([
        "reprovision.begin",
        "reprovision.handoff_done",
        "reprovision.restored",
        "redundancy_restore",
    ]);
    assert_waterfall(&tb.hubs[1], &must_see);
    assert_kicked(&tb.hubs[1]);
    // The round is drawn once: as the waterfall's `redundancy_restore`,
    // over instants in the live ring.
    let live = tb.hubs[1].trace.records();
    let mut drawn = live.iter().filter(|r| r.kind == SpanKind::Span);
    assert!(drawn.all(|r| !r.name.starts_with("reprovision")));
}

#[test]
fn json_check_accepts_json_and_rejects_near_misses() {
    for ok in [
        "{}",
        "[]",
        " {\"a\":[1,-2.5e3,\"x\\n\",true,null],\"b\":{}} ",
    ] {
        assert!(is_json(ok), "{ok}");
    }
    for bad in [
        "",
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\" 1}",
        "\"x",
        "{}x",
        "[\"\t\"]",
        "[nan]",
    ] {
        assert!(!is_json(bad), "{bad}");
    }
}
