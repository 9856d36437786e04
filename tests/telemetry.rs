//! Integration: the unified telemetry layer.
//!
//! * Counter semantics at the bridge level: `empty_acks` increments
//!   exactly when `min(ack_P, ack_S)` advances without matched payload,
//!   and `retransmissions_forwarded` increments on a recognised §4
//!   retransmission — mirrored onto the shared registry.
//! * A §5 takeover stamps every phase of the failover timeline in
//!   monotone sim-time order.
//! * A full failover run exports a JSON metrics snapshot carrying
//!   counters from all layers, and the client-side capture round-trips
//!   through pcapng at `TcpView` level.

use bytes::Bytes;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::designation::FailoverConfig;
use tcp_failover::core::primary::PrimaryBridge;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::ChainController;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::filter::{AddressedSegment, SegmentFilter};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{FailoverPhase, Telemetry};
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::pcapng::read_packets;
use tcp_failover::wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment, TcpView};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISS_P: u32 = 5_000;
const ISS_S: u32 = 9_000;
const ISS_C: u32 = 100;

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

/// A primary bridge with a merged handshake, wired to a fresh hub.
fn established() -> (PrimaryBridge, Telemetry) {
    let hub = Telemetry::new();
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    b.set_telemetry(&hub);
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
    let _ = b.on_inbound(syn, 0);
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
    let _ = b.on_outbound(p_synack, 0);
    let s_synack = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1200)
            .window(40_000)
            .build(),
    );
    let out = b.on_inbound(s_synack, 0);
    assert_eq!(out.to_wire.len(), 1, "merged SYN+ACK released");
    (b, hub)
}

fn p_ack(ack: u32) -> AddressedSegment {
    raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1)
            .ack(ack)
            .window(50_000)
            .build(),
    )
}

fn s_ack(ack: u32) -> AddressedSegment {
    diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1)
            .ack(ack)
            .window(40_000)
            .build(),
    )
}

/// `empty_acks` counts exactly the §3.4 events: the minimum of the
/// replica acknowledgments advancing with no matched payload to carry
/// it.
#[test]
fn empty_ack_counter_tracks_min_ack_advance() {
    let (mut b, hub) = established();
    let base = b.stats.empty_acks;
    // P acks 50 bytes; min(ack_P, ack_S) still at the handshake value:
    // no empty ACK may be emitted.
    let out = b.on_outbound(p_ack(ISS_C + 50), 1_000);
    assert!(out.to_wire.is_empty(), "P-only ack advance is held");
    assert_eq!(b.stats.empty_acks, base, "minimum did not advance");
    // S catches up: the minimum advances without any payload — exactly
    // one empty ACK.
    let out = b.on_inbound(s_ack(ISS_C + 50), 2_000);
    assert_eq!(out.to_wire.len(), 1);
    let seg = TcpSegment::decode(&out.to_wire[0].bytes).unwrap();
    assert!(seg.payload.is_empty());
    assert_eq!(seg.ack, ISS_C + 50);
    assert_eq!(b.stats.empty_acks, base + 1);
    // S repeats the same ack: a genuine replica re-ACK, forwarded as
    // the degenerate §4 retransmission (an empty segment) and counted
    // with a distinguishing journal kind.
    let out = b.on_inbound(s_ack(ISS_C + 50), 3_000);
    assert_eq!(out.to_wire.len(), 1, "re-ACK forwarded");
    assert_eq!(b.stats.empty_acks, base + 2);
    assert!(
        hub.journal.events().iter().any(|e| e.kind == "empty_ack"
            && e.at_ns == 3_000
            && e.fields.iter().any(|(k, v)| k == "kind" && v == "re_ack")),
        "re-ACK journal event missing"
    );
    // Now matched payload carries the next advance: no *empty* ACK.
    let p_data = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1)
            .ack(ISS_C + 80)
            .window(50_000)
            .payload(Bytes::from_static(b"hello"))
            .build(),
    );
    let _ = b.on_outbound(p_data, 4_000);
    let s_data = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1)
            .ack(ISS_C + 80)
            .window(40_000)
            .payload(Bytes::from_static(b"hello"))
            .build(),
    );
    let out = b.on_inbound(s_data, 5_000);
    assert_eq!(out.to_wire.len(), 1, "matched payload released");
    assert_eq!(
        b.stats.empty_acks,
        base + 2,
        "payload segment carried the ack: no empty ACK"
    );
    assert_eq!(b.stats.merged_bytes, 5);
    // The registry mirror observed the same counts.
    b.sync_telemetry(6_000);
    let snap = hub.registry.snapshot(6_000);
    assert_eq!(snap.counter("core.primary.empty_acks"), Some(base + 2));
    assert_eq!(snap.counter("core.primary.merged_bytes"), Some(5));
}

/// `retransmissions_forwarded` increments when a replica resends
/// content entirely below `send_next` (§4) — and only then.
#[test]
fn retransmission_counter_tracks_paragraph4_recognition() {
    let (mut b, hub) = established();
    let payload = b"0123456789";
    let p_data = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1)
            .ack(ISS_C + 1)
            .window(50_000)
            .payload(Bytes::from_static(payload))
            .build(),
    );
    let _ = b.on_outbound(p_data.clone(), 1_000);
    let s_data = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1)
            .ack(ISS_C + 1)
            .window(40_000)
            .payload(Bytes::from_static(payload))
            .build(),
    );
    let out = b.on_inbound(s_data, 2_000);
    assert_eq!(out.to_wire.len(), 1, "matched payload released");
    assert_eq!(b.stats.retransmissions_forwarded, 0, "first copies merge");
    // P resends the same bytes: now entirely below send_next, so the
    // bridge must recognise the retransmission and forward immediately.
    let out = b.on_outbound(p_data, 3_000);
    assert_eq!(out.to_wire.len(), 1, "retransmission forwarded at once");
    let seg = TcpSegment::decode(&out.to_wire[0].bytes).unwrap();
    assert_eq!(seg.seq, ISS_S + 1, "normalised into client space");
    assert_eq!(&seg.payload[..], payload);
    assert_eq!(b.stats.retransmissions_forwarded, 1);
    b.sync_telemetry(4_000);
    let snap = hub.registry.snapshot(4_000);
    assert_eq!(
        snap.counter("core.primary.retransmissions_forwarded"),
        Some(1)
    );
    // The journal recorded the event at the stamped segment time.
    let events = hub.journal.events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "retransmission" && e.at_ns == 3_000),
        "journal missing the retransmission event: {events:?}"
    );
}

/// Every [`PrimaryStats`] counter reaches the registry: a tail's §8
/// join gate drops a client segment of a flow it never witnessed, and
/// `core.secondary.unwitnessed_dropped` says so.
///
/// [`PrimaryStats`]: tcp_failover::core::PrimaryStats
#[test]
fn a_tail_publishes_its_unwitnessed_drops() {
    let hub = Telemetry::new();
    let config = FailoverConfig::from_ports([80]);
    let mut tail = PrimaryBridge::link(A_P, A_S, Some(A_P), None, config);
    tail.set_telemetry(&hub);
    let mid_stream = TcpSegment::builder(5555, 80)
        .seq(ISS_C + 1)
        .ack(ISS_S + 1)
        .window(60_000)
        .build();
    let out = tail.on_inbound(raw(A_C, A_P, mid_stream), 1_000);
    assert!(out.to_tcp.is_empty() && out.to_wire.is_empty(), "dropped");
    assert_eq!(tail.stats.unwitnessed_dropped, 1);
    tail.sync_telemetry(2_000);
    let snap = hub.registry.snapshot(2_000);
    assert_eq!(snap.counter("core.secondary.unwitnessed_dropped"), Some(1));
}

/// A §5 takeover run: every phase of the view present, in monotone order,
/// and the exported artifacts (JSON snapshot, pcapng capture) carry the
/// run.
#[test]
fn failover_timeline_is_complete_and_monotone() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.set_trace_enabled(true);
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 400000\n".to_vec(),
            400_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(60));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(10));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "transfer died at {} bytes", c.received_len());
    });

    // (b) The §5 phase timeline: all phases, monotonically ordered.
    let tl = &tb.telemetry.timeline;
    assert!(tl.mttr().is_some(), "missing phases:\n{}", tl.breakdown());
    assert!(tl.is_monotone(), "out of order:\n{}", tl.breakdown());
    let failure = tl.at(FailoverPhase::Failure).unwrap();
    let detection = tl.at(FailoverPhase::Detection).unwrap();
    let first_byte = tl.at(FailoverPhase::FirstClientByte).unwrap();
    assert!(detection > failure, "detection cannot precede the kill");
    assert!(first_byte >= tl.at(FailoverPhase::ArpTakeover).unwrap());
    assert_eq!(tl.total_ns(), Some(first_byte - failure));

    // (a) The JSON export carries counters from every layer.
    let json = tb.export_telemetry_json();
    for key in [
        "core.primary.merged_bytes",
        "core.primary.pq_depth",
        "core.secondary.diverted_upstream",
        "core.control.r1.heartbeats_sent",
        "net.n", // per-link scopes
        "tcp.client.",
        "\"timeline\"",
        "\"first_client_byte\"",
    ] {
        assert!(json.contains(key), "export missing {key}:\n{json}");
    }
    let snap = tb.metrics_snapshot(0);
    assert!(snap.counter("core.primary.merged_bytes").unwrap() > 0);
    assert!(
        tb.metrics_snapshot(1)
            .counter("core.secondary.diverted_upstream")
            .unwrap()
            > 0,
        "secondary diverted nothing"
    );

    // (c) The client-side capture round-trips through pcapng and
    // parses at TcpView level.
    let pcap = tb.client_capture_pcapng();
    let packets = read_packets(&pcap).expect("well-formed pcapng");
    assert!(!packets.is_empty(), "client capture is empty");
    let mut tcp_frames = 0usize;
    let mut last_ts = 0u64;
    for p in &packets {
        assert!(p.ts_ns >= last_ts, "capture timestamps out of order");
        last_ts = p.ts_ns;
        // Ethernet (14) + IPv4 (20, no options in this stack).
        if p.frame.len() > 34 && p.frame[12..14] == [0x08, 0x00] && p.frame[23] == 6 {
            let view = TcpView::new(&p.frame[34..]).expect("TCP segment parses");
            let _ = (view.seq(), view.ack(), view.flags());
            tcp_frames += 1;
        }
    }
    assert!(
        tcp_frames > 10,
        "expected a TCP conversation in the capture"
    );
}

/// The §6 path (secondary dies) stamps Failure + Detection but no
/// takeover phases — and the journal records the degradation.
#[test]
fn degradation_journals_without_takeover_phases() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    let tl = &tb.hubs[0].timeline;
    assert!(tl.at(FailoverPhase::Failure).is_some());
    assert!(tl.at(FailoverPhase::Detection).is_some());
    assert!(tl.is_monotone());
    assert!(
        tl.at(FailoverPhase::ArpTakeover).is_none(),
        "§6 must not run the §5 takeover"
    );
    let events = tb.hubs[0].journal.events();
    assert!(
        events.iter().any(|e| e.kind == "degraded"),
        "journal missing degradation: {events:?}"
    );
    assert!(events.iter().any(|e| e.kind == "downstream_failed"));
}

/// The §5 view outlives the journal's ring: a pair whose hub keeps two
/// entries still reports the whole takeover, each phase where the
/// controller saw it.
#[test]
fn a_two_entry_journal_still_reports_the_takeover() {
    let mut tb = Testbed::new(TestbedConfig {
        journal_capacity: Some(2),
        ..TestbedConfig::default()
    });
    let s = tb.secondary.unwrap();
    for node in [tb.primary, s] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 400000\n".to_vec(),
            400_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(60));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(10));
    let (detected, promoted) = tb.sim.with::<Host, _>(s, |h, _| {
        let c = h.controller_mut::<ChainController>();
        (
            c.detected_at.unwrap().as_nanos(),
            c.promoted_at.unwrap().as_nanos(),
        )
    });
    let hub = &tb.telemetry;
    assert_eq!(hub.journal.len(), 2);
    assert!(hub.journal.dropped() > 0, "the ring wrapped");
    // The ring evicted the kill, the detection and the takeover entries:
    // the §5 stamps below outlive them.
    let kept: Vec<String> = hub.journal.events().into_iter().map(|e| e.kind).collect();
    let story = ["kill", "peer_dead", "takeover.arp"];
    assert!(
        kept.iter().all(|k| !story.contains(&k.as_str())),
        "{kept:?}"
    );
    let tl = &hub.timeline;
    let m = tl.mttr().expect("complete §5 view");
    assert_eq!(tl.at(FailoverPhase::Failure), Some(60_000_000));
    assert_eq!(tl.at(FailoverPhase::Detection), Some(detected));
    assert_eq!(tl.at(FailoverPhase::ArpTakeover), Some(promoted));
    assert!(tl.at(FailoverPhase::FirstClientByte) >= Some(promoted));
    assert_eq!(m.deltas().iter().sum::<u64>(), m.total_ns);
}
