//! Connection-churn regression test for the PR-4 leak fix: before the
//! flow table, the primary kept a §8 tombstone and the secondary kept
//! a witness ("seen") entry for every connection *forever* — sequential
//! churn grew both without bound. With lifecycle GC, steady-state
//! occupancy must plateau at (TimeWait TTL ÷ churn period) and drain
//! to zero once the churn stops.

use tcp_failover::core::flow::FlowTableConfig;
use tcp_failover::core::{FailoverConfig, PrimaryBridge};
use tcp_failover::tcp::filter::{AddressedSegment, SegmentFilter};
use tcp_failover::telemetry::audit::{AuditConfig, InvariantAuditor};
use tcp_failover::telemetry::ObserverSwitches;
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const SEC: u64 = 1_000_000_000;

/// Churn parameters: 500 sequential connections, one every 2 sim-
/// seconds. TimeWait TTL is 60 s, so tombstones from at most the last
/// 30 cycles coexist.
const CYCLES: u16 = 500;
const PERIOD: u64 = 2 * SEC;
const BOUND: usize = 64;

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
}

fn diverted(client_port: u16, seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(A_S, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, A_S, A_C);
    p.push_orig_dest_option(A_C, client_port);
    p.set_pseudo_dst(A_P);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

/// One full open→close cycle against the primary bridge.
fn primary_cycle(b: &mut PrimaryBridge, port: u16, now: u64) {
    let (iss_c, iss_p, iss_s) = (1000, 5000, 9000);
    let _ = b.on_inbound(
        raw(
            A_C,
            A_P,
            TcpSegment::builder(port, 80)
                .seq(iss_c)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60_000)
                .build(),
        ),
        now,
    );
    let _ = b.on_outbound(
        raw(
            A_P,
            A_C,
            TcpSegment::builder(80, port)
                .seq(iss_p)
                .ack(iss_c + 1)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        ),
        now,
    );
    let _ = b.on_inbound(
        diverted(
            port,
            TcpSegment::builder(80, port)
                .seq(iss_s)
                .ack(iss_c + 1)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(40_000)
                .build(),
        ),
        now,
    );
    // Bidirectional close (§8).
    let _ = b.on_outbound(
        raw(
            A_P,
            A_C,
            TcpSegment::builder(80, port)
                .seq(iss_p + 1)
                .ack(iss_c + 1)
                .window(50_000)
                .flags(TcpFlags::FIN)
                .build(),
        ),
        now,
    );
    let _ = b.on_inbound(
        diverted(
            port,
            TcpSegment::builder(80, port)
                .seq(iss_s + 1)
                .ack(iss_c + 1)
                .window(40_000)
                .flags(TcpFlags::FIN)
                .build(),
        ),
        now,
    );
    let _ = b.on_inbound(
        raw(
            A_C,
            A_P,
            TcpSegment::builder(port, 80)
                .seq(iss_c + 1)
                .ack(iss_s + 2)
                .window(60_000)
                .flags(TcpFlags::FIN)
                .build(),
        ),
        now,
    );
    let _ = b.on_outbound(
        raw(
            A_P,
            A_C,
            TcpSegment::builder(80, port)
                .seq(iss_p + 2)
                .ack(iss_c + 2)
                .window(50_000)
                .build(),
        ),
        now,
    );
    let _ = b.on_inbound(
        diverted(
            port,
            TcpSegment::builder(80, port)
                .seq(iss_s + 2)
                .ack(iss_c + 2)
                .window(40_000)
                .build(),
        ),
        now,
    );
}

#[test]
fn primary_tombstones_do_not_accumulate_under_churn() {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    // The CI soak runs this under `TCPFO_AUDIT=1`: the online auditor
    // rides along the whole churn, checking every segment.
    if ObserverSwitches::resolve(None, None, None, None).audit {
        b.set_audit(Some(Box::new(InvariantAuditor::new(
            AuditConfig::from_env("primary"),
        ))));
    }
    let mut peak = 0usize;
    for i in 0..CYCLES {
        let now = u64::from(i) * PERIOD;
        // Distinct tuple per cycle — the worst case for tombstone
        // accumulation (tuple reuse would replace in place).
        primary_cycle(&mut b, 10_000 + i, now);
        b.on_tick(now + PERIOD / 2);
        peak = peak.max(b.flow_count());
        assert!(
            b.flow_count() <= BOUND,
            "cycle {i}: {} flow entries — tombstones leaking",
            b.flow_count()
        );
    }
    assert_eq!(b.conn_count(), 0);
    assert_eq!(b.stats.conns_closed, u64::from(CYCLES));
    assert!(
        peak >= 16,
        "churn too slow to exercise tombstone overlap (peak {peak})"
    );
    assert!(b.stats.flows_reaped > 0, "the GC must actually run");

    // Churn stops: everything drains.
    let end = u64::from(CYCLES) * PERIOD + 120 * SEC;
    b.on_tick(end);
    assert_eq!(b.flow_count(), 0, "table drains once churn stops");
    assert_eq!(b.stats.flows_reaped, u64::from(CYCLES));
    if let Some(audit) = b.observers().audit.as_deref() {
        assert!(audit.ledger().total_checks() > 0, "auditor saw the churn");
        assert!(
            audit.violations().is_empty(),
            "churn tripped invariants: {:?}",
            audit.violations()
        );
    }
}

#[test]
fn degraded_entries_do_not_accumulate_under_churn() {
    // The same churn through a primary whose secondary is gone (§6):
    // every connection is born a pass-through entry, and FINs both ways
    // walk it to TimeWait like any other.
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    let _ = b.secondary_failed(0);
    let mut peak = 0usize;
    for i in 0..CYCLES {
        let now = u64::from(i) * PERIOD;
        primary_cycle(&mut b, 10_000 + i, now);
        b.on_tick(now + PERIOD / 2);
        peak = peak.max(b.flow_count());
        assert!(
            b.flow_count() <= BOUND,
            "cycle {i}: {} §6 entries — degraded flows leaking",
            b.flow_count()
        );
    }
    assert!(peak >= 16, "churn must overlap TimeWait windows");
    let end = u64::from(CYCLES) * PERIOD + 120 * SEC;
    b.on_tick(end);
    assert_eq!(b.flow_count(), 0, "table drains once churn stops");
    assert_eq!(b.stats.flows_reaped, u64::from(CYCLES));
}

#[test]
fn a_busy_degraded_flow_outlives_churn() {
    // At capacity 64 a §6 flow with Δseq ≠ 0 keeps forwarding while 200
    // short connections come and go: the least recently used entries are
    // theirs, not the busy flow's, so its client's acknowledgments still
    // reach the stack raised by Δseq.
    let (iss_p, iss_s) = (5_000u32, 9_000u32);
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    b.set_flow_config(FlowTableConfig::new(1, 64));
    let syn = TcpSegment::builder(5555, 80)
        .seq(999)
        .flags(TcpFlags::SYN)
        .window(60_000)
        .build();
    let synack = |iss: u32| {
        TcpSegment::builder(80, 5555)
            .seq(iss)
            .ack(1000)
            .flags(TcpFlags::SYN)
            .window(40_000)
            .build()
    };
    let _ = b.on_inbound(raw(A_C, A_P, syn), 0);
    let _ = b.on_outbound(raw(A_P, A_C, synack(iss_p)), 0);
    let merged = b.on_inbound(diverted(5555, synack(iss_s)), 0);
    assert_eq!(merged.to_wire.len(), 1, "handshake merged");
    let _ = b.secondary_failed(0);

    let client_ack = |acked: u32| {
        let ack = TcpSegment::builder(5555, 80)
            .seq(1000)
            .ack(iss_s + 1 + acked)
            .window(60_000)
            .build();
        raw(A_C, A_P, ack)
    };
    for i in 0..200u16 {
        let now = u64::from(i + 1) * 1_000_000;
        primary_cycle(&mut b, 10_000 + i, now);
        let sent = u32::from(i) * 10;
        let data = TcpSegment::builder(80, 5555)
            .seq(iss_p + 1 + sent)
            .ack(1000)
            .window(50_000)
            .payload(vec![7; 10].into())
            .build();
        let out = b.on_outbound(raw(A_P, A_C, data), now);
        assert_eq!(out.to_wire.len(), 1, "round {i}: passed through");
        let _ = b.on_inbound(client_ack(sent + 10), now);
    }
    assert!(b.stats.evicted_flows > 0, "the churn filled the table");
    let up = b.on_inbound(client_ack(2_000), 300_000_000);
    let ack = TcpSegment::decode(&up.to_tcp[0].bytes).unwrap().ack;
    assert_eq!(ack, iss_p + 1 + 2_000, "the busy flow's ack untranslated");
}

/// One open→close cycle as the secondary's bridge (the tail) sees it:
/// client SYN and FIN inbound (addressed to the primary), its own server
/// FIN diverted outbound.
fn secondary_cycle(b: &mut PrimaryBridge, port: u16, now: u64) {
    let _ = b.on_inbound(
        raw(
            A_C,
            A_P,
            TcpSegment::builder(port, 80)
                .seq(1000)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60_000)
                .build(),
        ),
        now,
    );
    let _ = b.on_inbound(
        raw(
            A_C,
            A_P,
            TcpSegment::builder(port, 80)
                .seq(1001)
                .ack(9001)
                .window(60_000)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        ),
        now,
    );
    let _ = b.on_outbound(
        raw(
            A_S,
            A_C,
            TcpSegment::builder(80, port)
                .seq(9001)
                .ack(1002)
                .window(40_000)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        ),
        now,
    );
}

#[test]
fn secondary_witness_entries_do_not_accumulate_under_churn() {
    let mut b = PrimaryBridge::link(A_P, A_S, Some(A_P), None, FailoverConfig::from_ports([80]));
    let mut peak = 0usize;
    for i in 0..CYCLES {
        let now = u64::from(i) * PERIOD;
        secondary_cycle(&mut b, 10_000 + i, now);
        b.on_tick(now + PERIOD / 2);
        peak = peak.max(b.flow_count());
        assert!(
            b.flow_count() <= BOUND,
            "cycle {i}: {} witness entries — seen-set leaking",
            b.flow_count()
        );
    }
    assert!(peak >= 16, "churn must overlap TimeWait windows");
    assert!(b.stats.flows_reaped > 0);
    let end = u64::from(CYCLES) * PERIOD + 120 * SEC;
    b.on_tick(end);
    assert_eq!(b.flow_count(), 0, "witness table drains once churn stops");
}
