//! The online invariant auditor, end to end.
//!
//! Five angles: (a) a clean audited testbed run exercises the rule
//! catalogue with zero violations; (b) an intentionally broken bridge
//! (primary-only acknowledgments instead of `min(ack_P, ack_S)`) trips
//! the auditor and produces a complete flight-recorder bundle; (c) the
//! §3.4 bare-ACK synthesis holds under mismatched replica segmentation
//! and delayed client acknowledgment, with the auditor attached and
//! armed to panic; (d) a §5 failover run is sequenced by the secondary
//! auditor's takeover-ordering checks; (e) replicas whose bytes differ,
//! in a released range or in an overlapping re-send, trip `queue_agree`
//! with the divergent bytes in the violation.

mod common;

use bytes::Bytes;
use common::is_json;
use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainConfig, ChainTestbed, FailoverConfig, PrimaryBridge};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::filter::{AddressedSegment, FilterOutput, SegmentFilter};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{AuditConfig, HealthObservatory, InvariantAuditor, Rule, Telemetry};
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::pcapng::read_packets;
use tcp_failover::wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

// ---------------------------------------------------------------------
// Bridge-level scaffolding (mirrors the primary bridge's unit tests)
// ---------------------------------------------------------------------

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISS_P: u32 = 5_000;
const ISS_S: u32 = 9_000;
const ISS_C: u32 = 100;
const MS: u64 = 1_000_000;

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
}

/// Builds a segment as the secondary bridge would divert it.
fn diverted(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(A_S, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, A_S, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(A_P);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

fn decode_wire(out: &FilterOutput, i: usize) -> TcpSegment {
    TcpSegment::decode(&out.to_wire[i].bytes).expect("wire segment decodes")
}

/// Runs the client-initiated handshake through an audited bridge and
/// returns it established.
fn established(audit: InvariantAuditor) -> PrimaryBridge {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    b.set_audit(Some(Box::new(audit)));
    let syn = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    );
    b.on_inbound(syn, 0);
    let p_synack = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50_000)
            .build(),
    );
    let held = b.on_outbound(p_synack, 0);
    assert!(held.to_wire.is_empty(), "P's SYN+ACK is held");
    let s_synack = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1200)
            .window(40_000)
            .build(),
    );
    let merged = b.on_inbound(s_synack, 0);
    assert_eq!(merged.to_wire.len(), 1, "merged SYN+ACK released");
    b
}

fn client_data(seq_off: u32, payload: &'static [u8]) -> AddressedSegment {
    raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1 + seq_off)
            .ack(ISS_S + 1)
            .window(60_000)
            .payload(Bytes::from_static(payload))
            .build(),
    )
}

fn p_seg(seq_off: u32, payload: &'static [u8], ack: u32) -> AddressedSegment {
    raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1 + seq_off)
            .ack(ack)
            .window(50_000)
            .payload(Bytes::from_static(payload))
            .build(),
    )
}

fn s_seg(seq_off: u32, payload: &'static [u8], ack: u32) -> AddressedSegment {
    diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1 + seq_off)
            .ack(ack)
            .window(40_000)
            .payload(Bytes::from_static(payload))
            .build(),
    )
}

/// Installs the same app on both replicas (active replication).
macro_rules! replicate {
    ($tb:expr, $mk:expr) => {{
        let tb: &mut Testbed = $tb;
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.add_app(Box::new($mk));
        });
        let s = tb.secondary.expect("replicated testbed");
        tb.sim.with::<Host, _>(s, |h, _| {
            h.add_app(Box::new($mk));
        });
    }};
}

// ---------------------------------------------------------------------
// (a) Clean audited run: the catalogue is exercised, nothing fires.
// ---------------------------------------------------------------------

#[test]
fn clean_run_exercises_rules_without_violations() {
    let mut tb = Testbed::new(TestbedConfig {
        audit: Some(true),
        ..TestbedConfig::default()
    });
    replicate!(&mut tb, SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            100_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(5));

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "audited transfer did not complete");
    assert_eq!(tb.audit_violations(), 0, "clean run must not trip a rule");
    let p_ledger = tb
        .with_primary_audit(|a| a.ledger().clone())
        .expect("primary auditor attached");
    assert!(
        p_ledger.total_checks() > 0,
        "auditor never checked anything"
    );
    for rule in [
        Rule::AckMin,
        Rule::WinMin,
        Rule::MatchedOnly,
        Rule::SeqSpace,
    ] {
        assert!(
            p_ledger.stat(rule).checks > 0,
            "rule {} never exercised:\n{}",
            rule.id(),
            p_ledger.to_table()
        );
    }
    let s_ledger = tb
        .with_secondary_audit(|a| a.ledger().clone())
        .expect("secondary auditor attached");
    assert!(
        s_ledger.stat(Rule::Translate).checks > 0,
        "secondary translation never audited:\n{}",
        s_ledger.to_table()
    );
    // No violation → no flight-recorder bundle.
    assert_eq!(
        tb.with_primary_audit(|a| a.bundle_path().is_some()),
        Some(false)
    );
}

// ---------------------------------------------------------------------
// (b) Broken bridge: the ablation flag trips the auditor and the
//     flight recorder dumps a complete bundle.
// ---------------------------------------------------------------------

#[test]
fn broken_bridge_trips_auditor_and_dumps_bundle() {
    let dir = std::env::temp_dir().join(format!("tcpfo-audit-test-{}", std::process::id()));
    let audit = InvariantAuditor::new(
        AuditConfig::new("broken")
            .panic_on_violation(false)
            .bundle_dir(&dir),
    );
    let mut b = established(audit);
    b.unsafe_ack_without_min = true;

    // The client sends two bytes; P acknowledges them, S does not.
    // The broken bridge treats P's lone ack advance as a min(ack)
    // advance and leaks an acknowledgment for bytes the secondary has
    // not confirmed — exactly the §2 requirement-2 violation, caught
    // by the auditor at the moment of release.
    b.on_inbound(client_data(0, b"hi"), 0);
    let leaked = b.on_outbound(p_seg(0, b"resp", ISS_C + 3), MS);
    assert!(
        leaked
            .to_wire
            .iter()
            .any(|s| TcpSegment::decode(&s.bytes).is_ok_and(|t| t.ack == ISS_C + 3)),
        "broken bridge must leak the unsafe primary-only ack"
    );
    // S's copy still acknowledges only the SYN: the matched data
    // release repeats the unsafe ack.
    let out = b.on_inbound(s_seg(0, b"resp", ISS_C + 1), 2 * MS);
    assert_eq!(out.to_wire.len(), 1, "matched data still released");
    assert_eq!(
        decode_wire(&out, 0).ack,
        ISS_C + 3,
        "broken bridge released the unsafe primary-only ack"
    );

    let aud = b
        .observers()
        .audit
        .as_deref()
        .expect("auditor still attached");
    assert!(
        aud.ledger().stat(Rule::AckMin).violations >= 1,
        "ack_min must have fired:\n{}",
        aud.ledger().to_table()
    );
    let v = aud
        .violations()
        .iter()
        .find(|v| v.rule == Rule::AckMin)
        .expect("ack_min violation recorded");
    assert!(
        !v.chain.is_empty(),
        "violation must carry a causal chain: {}",
        v.render()
    );
    assert!(
        v.detail.contains("min"),
        "detail should state expected minimum: {}",
        v.detail
    );

    // The bundle is complete: ledger, trace ring, parseable capture.
    let bundle = aud
        .bundle_path()
        .expect("bundle written on violation")
        .clone();
    let ledger = std::fs::read_to_string(bundle.join("ledger.txt")).expect("ledger.txt");
    assert!(ledger.contains("ack_min"), "{ledger}");
    assert!(ledger.contains("invariant violation"), "{ledger}");
    let ring = std::fs::read_to_string(bundle.join("trace_ring.txt")).expect("trace_ring.txt");
    assert!(!ring.trim().is_empty(), "trace ring must not be empty");
    let pcap = std::fs::read(bundle.join("capture.pcapng")).expect("capture.pcapng");
    let pkts = read_packets(&pcap).expect("bundle capture parses");
    assert!(!pkts.is_empty(), "capture must hold the recent segments");
    std::fs::remove_dir_all(&dir).ok();
}

/// What a head's auditor recorded before the head was killed still
/// counts: the broken bridge above runs as the head of a chain of three,
/// which then loses it.
#[test]
fn a_killed_heads_violations_still_count() {
    let dir = std::env::temp_dir().join(format!("tcpfo-audit-dead-head-{}", std::process::id()));
    let audit = InvariantAuditor::new(
        AuditConfig::new("head")
            .panic_on_violation(false)
            .bundle_dir(&dir),
    );
    let mut b = established(audit);
    b.unsafe_ack_without_min = true;
    b.on_inbound(client_data(0, b"hi"), 0);
    b.on_outbound(p_seg(0, b"resp", ISS_C + 3), MS);
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        audit: Some(false),
        ..ChainConfig::default()
    });
    let head = tb.replicas[0];
    tb.sim
        .with::<Host, _>(head, |h, _| h.set_filter(Box::new(b)));
    tb.kill_replica(0);
    assert!(
        tb.audit_violations() >= 1,
        "the dead head's ack_min vanished"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The bundle's `health.json` is the replication-lag ledger as it stood
/// at the last host tick before the violation — stored on the tick as a
/// plain copy, rendered only here, when a bundle is written.
#[test]
fn bundle_health_json_is_the_ledger_at_the_last_tick() {
    let dir = std::env::temp_dir().join(format!("tcpfo-audit-health-{}", std::process::id()));
    let audit = InvariantAuditor::new(
        AuditConfig::new("health")
            .panic_on_violation(false)
            .bundle_dir(&dir),
    );
    let mut b = established(audit);
    b.set_telemetry(&Telemetry::new());
    b.set_health(Some(Box::new(HealthObservatory::new())));
    let ledger = |b: &PrimaryBridge| {
        b.observers()
            .health
            .as_deref()
            .expect("observatory attached")
            .to_json()
    };

    // A matched release, so the ledger has something to say; then the
    // tick that copies it to the auditor.
    b.on_outbound(p_seg(0, b"resp", ISS_C + 1), MS);
    let out = b.on_inbound(s_seg(0, b"resp", ISS_C + 1), 2 * MS);
    assert_eq!(out.to_wire.len(), 1, "matched data released");
    b.on_tick(3 * MS);
    let at_tick = ledger(&b);
    assert_eq!(
        b.observers()
            .health
            .as_deref()
            .expect("attached")
            .lag
            .releases(),
        1
    );

    // The ledger moves on after the tick; the bundle must not see it.
    b.on_outbound(p_seg(4, b"more", ISS_C + 1), 4 * MS);
    b.on_inbound(s_seg(4, b"more", ISS_C + 1), 5 * MS);
    assert_ne!(ledger(&b), at_tick, "a second release moved the ledger");

    // The violation, forced as in the test above.
    b.unsafe_ack_without_min = true;
    b.on_inbound(client_data(0, b"hi"), 6 * MS);
    b.on_outbound(p_seg(8, b"", ISS_C + 3), 7 * MS);
    let aud = b
        .observers()
        .audit
        .as_deref()
        .expect("auditor still attached");
    assert!(aud.ledger().stat(Rule::AckMin).violations >= 1);

    let bundle = aud.bundle_path().expect("bundle written on violation");
    let health = std::fs::read_to_string(bundle.join("health.json")).expect("health.json");
    assert!(is_json(&health), "{health}");
    assert_eq!(health, at_tick);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// (c) §3.4 regression: bare-ACK synthesis under mismatched replica
//     segmentation and delayed client acknowledgment, audited.
// ---------------------------------------------------------------------

#[test]
fn bare_ack_synthesised_before_retransmission_timer_under_audit() {
    // Auditor panics on violation: reaching the end of this test is
    // itself the proof that no rule (bare_ack included) fired.
    let audit = InvariantAuditor::new(AuditConfig::new("bare-ack"));
    let mut b = established(audit);

    // Mismatched replica segmentation: P emits "ab"+"cd", S emits
    // "abcd" in one segment. Matched release is byte-wise.
    b.on_inbound(client_data(0, b"q"), 0);
    assert!(b
        .on_outbound(p_seg(0, b"ab", ISS_C + 2), 0)
        .to_wire
        .is_empty());
    assert!(b
        .on_outbound(p_seg(2, b"cd", ISS_C + 2), 0)
        .to_wire
        .is_empty());
    let out = b.on_inbound(s_seg(0, b"abcd", ISS_C + 2), MS);
    assert_eq!(out.to_wire.len(), 1, "byte-matched data released");
    let data = decode_wire(&out, 0);
    assert_eq!(&data.payload[..], b"abcd");
    assert_eq!(data.seq, ISS_S + 1, "released in S's sequence space");

    // Delayed-ACK scenario: the client sends more data; each replica
    // acknowledges with a pure ACK (no data to piggyback on). When
    // min(ack) advances at S's ACK, the bridge must synthesise a bare
    // ACK immediately — not wait for server data that may never come,
    // which would deadlock a delayed-ACK client against the server RTO
    // (~200 ms); here it is released at t = 3 ms, in the same event.
    b.on_inbound(client_data(1, b"xy"), 2 * MS);
    let held = b.on_outbound(p_seg(4, b"", ISS_C + 4), 2 * MS + 1);
    assert!(
        held.to_wire.is_empty(),
        "P-only ack advance releases nothing"
    );
    let out = b.on_inbound(s_seg(4, b"", ISS_C + 4), 3 * MS);
    assert_eq!(out.to_wire.len(), 1, "min(ack) advance must release an ACK");
    let bare = decode_wire(&out, 0);
    assert!(bare.payload.is_empty(), "synthesised ACK carries no data");
    assert!(bare.flags.contains(TcpFlags::ACK));
    assert_eq!(bare.ack, ISS_C + 4, "acknowledges the client bytes");

    let aud = b.observers().audit.as_deref().expect("auditor attached");
    assert!(
        aud.ledger().stat(Rule::BareAck).checks >= 1,
        "§3.4 rule must have been evaluated:\n{}",
        aud.ledger().to_table()
    );
    assert_eq!(aud.ledger().total_violations(), 0);
}

// ---------------------------------------------------------------------
// (d) §5 failover run: the secondary auditor sequences the takeover.
// ---------------------------------------------------------------------

#[test]
fn failover_is_sequenced_by_secondary_auditor() {
    let mut tb = Testbed::new(TestbedConfig {
        audit: Some(true),
        ..TestbedConfig::default()
    });
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    let (done, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.mismatches)
    });
    assert!(done, "audited failover transfer did not complete");
    assert_eq!(mismatches, 0, "stream corrupted across failover");
    assert_eq!(tb.audit_violations(), 0, "failover must not trip a rule");
    let s_ledger = tb
        .with_secondary_audit(|a| a.ledger().clone())
        .expect("secondary auditor attached");
    assert!(
        s_ledger.stat(Rule::FailoverOrder).checks >= 1,
        "takeover ordering never audited:\n{}",
        s_ledger.to_table()
    );
}

// ---------------------------------------------------------------------
// (e) queue_agree: the two replica streams disagree. The violation says
//     where and carries the bytes there, and the bundle's capture (the
//     recorded headers, snapped) still parses.
// ---------------------------------------------------------------------

/// Drives an established, recording bridge through `drive` and returns
/// the detail of the one violation it must record, a `queue_agree`.
fn one_queue_agree(label: &str, drive: impl FnOnce(&mut PrimaryBridge)) -> String {
    let dir = std::env::temp_dir().join(format!("tcpfo-audit-{label}-{}", std::process::id()));
    let audit = InvariantAuditor::new(
        AuditConfig::new(label)
            .panic_on_violation(false)
            .bundle_dir(&dir),
    );
    let mut b = established(audit);
    drive(&mut b);
    let aud = b.observers().audit.as_deref().expect("auditor attached");
    assert_eq!(aud.ledger().total_violations(), 1, "{}", aud.report());
    let v = &aud.violations()[0];
    assert_eq!(v.rule, Rule::QueueAgree, "{}", v.render());
    let bundle = aud.bundle_path().expect("bundle written on violation");
    let pcap = std::fs::read(bundle.join("capture.pcapng")).expect("capture.pcapng");
    let pkts = read_packets(&pcap).expect("bundle capture parses");
    assert!(
        pkts.iter().any(|p| p.orig_len > p.frame.len()),
        "a data segment is captured up to its headers"
    );
    std::fs::remove_dir_all(&dir).ok();
    v.detail.clone()
}

#[test]
fn replicas_disagreeing_in_a_released_range_trip_queue_agree() {
    let detail = one_queue_agree("disagree", |b| {
        b.on_outbound(p_seg(0, b"abcd", ISS_C + 1), MS);
        let out = b.on_inbound(s_seg(0, b"abXd", ISS_C + 1), 2 * MS);
        assert_eq!(out.to_wire.len(), 1, "the bridge releases S's bytes");
    });
    // 'X' (0x58) released and held by S where P holds 'c' (0x63).
    assert!(detail.contains("(stream offset 2)"), "{detail}");
    let bytes = "released [58, 64], primary [63, 64], secondary [58, 64]";
    assert!(detail.contains(bytes), "{detail}");
}

#[test]
fn a_resend_with_other_bytes_trips_queue_agree() {
    let detail = one_queue_agree("resend", |b| {
        b.on_outbound(p_seg(0, b"abcd", ISS_C + 1), MS);
        b.on_outbound(p_seg(0, b"abXd", ISS_C + 1), 2 * MS);
    });
    assert!(detail.contains("primary replica re-sent"), "{detail}");
    assert!(detail.contains("stream offset 2"), "{detail}");
    assert!(
        detail.contains("recorded [63, 64], re-sent [58, 64]"),
        "{detail}"
    );
}
