//! Flow lifecycle edges at the primary bridge: TimeWait tombstones
//! answering late FINs until — and not after — the GC reaps them, a
//! fresh SYN superseding TimeWait residue (tuple reuse), LRU eviction
//! of an established flow resetting the client with an RST, and no
//! eviction while the table has room.

use tcp_failover::core::flow::{FlowState, FlowTable, FlowTableConfig};
use tcp_failover::core::{FailoverConfig, FlowKey, PrimaryBridge};
use tcp_failover::tcp::filter::{AddressedSegment, SegmentFilter};
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

/// One sim-second in nanoseconds.
const SEC: u64 = 1_000_000_000;

fn bridge() -> PrimaryBridge {
    PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]))
}

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

/// Per-flow script constants: distinct ISNs per client port so two
/// concurrent flows cannot alias.
fn isn(client_port: u16) -> (u32, u32, u32) {
    let b = u32::from(client_port) * 10_000;
    (b + 100, b + 5_000, b + 9_000)
}

/// Drives the full client-initiated handshake for `client_port`.
fn establish(b: &mut PrimaryBridge, client_port: u16, now: u64) {
    let (iss_c, iss_p, iss_s) = isn(client_port);
    let syn = raw(
        A_C,
        A_P,
        TcpSegment::builder(client_port, 80)
            .seq(iss_c)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    );
    let _ = b.on_inbound(syn, now);
    let p_synack = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, client_port)
            .seq(iss_p)
            .ack(iss_c + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50_000)
            .build(),
    );
    let _ = b.on_outbound(p_synack, now);
    let s_synack = diverted(
        client_port,
        TcpSegment::builder(80, client_port)
            .seq(iss_s)
            .ack(iss_c + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(40_000)
            .build(),
    );
    let out = b.on_inbound(s_synack, now);
    assert_eq!(out.to_wire.len(), 1, "merged SYN+ACK released");
}

/// Runs the §8 bidirectional close for `client_port`.
fn close_both_sides(b: &mut PrimaryBridge, client_port: u16, now: u64) {
    let (iss_c, iss_p, iss_s) = isn(client_port);
    let p_fin = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, client_port)
            .seq(iss_p + 1)
            .ack(iss_c + 1)
            .window(50_000)
            .flags(TcpFlags::FIN)
            .build(),
    );
    let _ = b.on_outbound(p_fin, now);
    let s_fin = diverted(
        client_port,
        TcpSegment::builder(80, client_port)
            .seq(iss_s + 1)
            .ack(iss_c + 1)
            .window(40_000)
            .flags(TcpFlags::FIN)
            .build(),
    );
    let _ = b.on_inbound(s_fin, now);
    let client_finack = raw(
        A_C,
        A_P,
        TcpSegment::builder(client_port, 80)
            .seq(iss_c + 1)
            .ack(iss_s + 2)
            .window(60_000)
            .flags(TcpFlags::FIN)
            .build(),
    );
    let _ = b.on_inbound(client_finack, now);
    let p_ack = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, client_port)
            .seq(iss_p + 2)
            .ack(iss_c + 2)
            .window(50_000)
            .build(),
    );
    let _ = b.on_outbound(p_ack, now);
    let s_ack = diverted(
        client_port,
        TcpSegment::builder(80, client_port)
            .seq(iss_s + 2)
            .ack(iss_c + 2)
            .window(40_000)
            .build(),
    );
    let _ = b.on_inbound(s_ack, now);
}

fn key(client_port: u16) -> FlowKey {
    FlowKey::new(80, SocketAddr::new(A_C, client_port))
}

fn late_client_fin(client_port: u16) -> AddressedSegment {
    let (iss_c, _, iss_s) = isn(client_port);
    raw(
        A_C,
        A_P,
        TcpSegment::builder(client_port, 80)
            .seq(iss_c + 1)
            .ack(iss_s + 2)
            .window(60_000)
            .flags(TcpFlags::FIN)
            .build(),
    )
}

#[test]
fn late_fin_reacked_until_gc_reaps_the_tombstone() {
    let mut b = bridge();
    establish(&mut b, 5555, 0);
    close_both_sides(&mut b, 5555, 0);
    assert_eq!(b.conn_count(), 0, "live state deleted after close");
    assert_eq!(b.flow_count(), 1, "TimeWait tombstone remains");

    // Within the TimeWait TTL: the tombstone answers (§8).
    let out = b.on_inbound(late_client_fin(5555), SEC);
    assert_eq!(out.to_wire.len(), 1, "tombstone re-ACKs the late FIN");
    assert_eq!(b.stats.late_fin_acks, 1);

    // Past the TTL, the GC tick reaps the tombstone…
    b.on_tick(62 * SEC);
    assert_eq!(b.flow_count(), 0, "tombstone reaped after TimeWait TTL");
    assert_eq!(b.stats.flows_reaped, 1);

    // …after which a later FIN retransmission is no longer ours to
    // answer: it passes through like any unknown-connection segment.
    let out = b.on_inbound(late_client_fin(5555), 63 * SEC);
    assert!(out.to_wire.is_empty(), "no re-ACK after the reap");
    assert_eq!(out.to_tcp.len(), 1, "unknown traffic passes through");
    assert_eq!(b.stats.late_fin_acks, 1, "counter unchanged");
}

#[test]
fn fresh_syn_supersedes_timewait_tombstone() {
    let mut b = bridge();
    establish(&mut b, 5555, 0);
    close_both_sides(&mut b, 5555, 0);
    assert_eq!(b.flow_state(&key(5555)), Some(FlowState::TimeWait));

    // The client reuses the tuple before the tombstone expires: the
    // SYN must win — a new connection establishes end to end.
    establish(&mut b, 5555, 2 * SEC);
    assert_eq!(b.conn_count(), 1, "tuple reuse yields a live flow");
    assert_eq!(b.flow_state(&key(5555)), Some(FlowState::Replicated));
}

#[test]
fn capacity_eviction_resets_established_flow_with_rst() {
    let mut b = bridge();
    // Two slots: the third handshake must push one out.
    b.set_flow_config(FlowTableConfig::new(1, 2));
    establish(&mut b, 6001, 0);
    establish(&mut b, 6002, 1);
    assert_eq!(b.conn_count(), 2);

    // Flow 6001 is now the LRU entry; a third client's SYN evicts it.
    let (iss_c, _, _) = isn(6003);
    let syn = raw(
        A_C,
        A_P,
        TcpSegment::builder(6003, 80)
            .seq(iss_c)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    );
    let out = b.on_inbound(syn, 2);
    assert!(!b.flows_contain(&key(6001)), "LRU flow evicted");
    assert!(b.flows_contain(&key(6002)), "recently-used flow survives");

    // The evicted client is told, not silently wedged: an RST in its
    // sequence space rides out with the SYN's output.
    let rst = out
        .to_wire
        .iter()
        .map(|seg| TcpSegment::decode(&seg.bytes).expect("decodes"))
        .find(|seg| seg.flags.contains(TcpFlags::RST))
        .expect("eviction emits an RST");
    assert_eq!(rst.dst_port, 6001, "RST targets the evicted client");
    let (_, _, iss_s) = isn(6001);
    assert_eq!(rst.seq, iss_s + 1, "RST in the client-facing (S) space");
    assert_eq!(b.stats.evicted_flows, 1);
    assert_eq!(b.stats.evicted_rsts, 1);
}

/// One data segment from each replica for `client_port`'s flow; returns
/// what the bridge released to the client.
fn merge_one(b: &mut PrimaryBridge, client_port: u16, now: u64) -> Vec<TcpSegment> {
    let (iss_c, iss_p, iss_s) = isn(client_port);
    let data = |iss: u32| {
        TcpSegment::builder(80, client_port)
            .seq(iss + 1)
            .ack(iss_c + 1)
            .window(50_000)
            .payload(b"merged".to_vec().into())
            .build()
    };
    let _ = b.on_outbound(raw(A_P, A_C, data(iss_p)), now);
    let out = b.on_inbound(diverted(client_port, data(iss_s)), now);
    out.to_wire
        .iter()
        .map(|seg| TcpSegment::decode(&seg.bytes).expect("decodes"))
        .collect()
}

#[test]
fn no_flow_is_evicted_below_capacity() {
    // 7001, 7006 and 7008 are three keys a four-way split of the table
    // would put in one quarter (capacity 8 / 4 = 2): there the third
    // open evicted the first and reset its client while the table held
    // two flows of eight. The capacity is the table's.
    const PORTS: [u16; 3] = [7001, 7006, 7008];
    let mut b = bridge();
    b.set_flow_config(FlowTableConfig::new(4, 8));
    for (i, &port) in PORTS.iter().enumerate() {
        establish(&mut b, port, i as u64);
    }
    assert_eq!(b.stats.evicted_flows, 0, "no eviction below capacity");
    assert_eq!(b.stats.evicted_rsts, 0, "no client reset below capacity");
    assert_eq!(b.conn_count(), 3);
    for &port in &PORTS {
        let out = merge_one(&mut b, port, 10);
        assert_eq!(out.len(), 1, "flow {port} still merges");
        assert_eq!(&out[0].payload[..], b"merged");
        assert_eq!(out[0].dst_port, port);
    }

    // A table of capacity 2 holds exactly two flows, whichever keys.
    let mut t = FlowTable::new(FlowTableConfig::new(4, 2));
    t.insert(key(7001), FlowState::Replicated, (), 0);
    t.insert(key(7006), FlowState::Replicated, (), 1);
    assert_eq!(t.len(), 2, "two flows fit in a table of two");
    t.insert(key(7008), FlowState::Replicated, (), 2);
    assert_eq!(t.len(), 2, "the third insert evicts");
    assert!(!t.contains(&key(7001)), "the least-recently-used one");
}
