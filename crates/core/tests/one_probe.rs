//! One flow resolution per segment, mechanically: on an established
//! flow every steady-state segment — a primary data segment, a diverted
//! secondary data segment, a client ACK — advances the shard's
//! keyed-probe counter (`ShardStats::lookups`, which counts every
//! `Shard::find` whoever asked) by exactly one. A keyed table call
//! anywhere on the per-segment path other than the entry `find` shows
//! up here as a two.
//!
//! Observers are detached and the table configured explicitly, so the
//! `TCPFO_*` test matrix cannot change what is counted (the auditor's
//! own pre-step probes are its cost, not the datapath's).

use tcpfo_core::flow::FlowTableConfig;
use tcpfo_core::{FailoverConfig, Observers, PrimaryBridge};
use tcpfo_tcp::filter::{AddressedSegment, SegmentFilter};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment, TcpSegmentBuilder};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISS_P: u32 = 5_000;
const ISS_S: u32 = 9_000;
const ISS_C: u32 = 100;
const PAYLOAD: &[u8] = b"one probe per segment, no more.."; // 32 bytes

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst))
}

/// A segment as the secondary bridge diverts it.
fn diverted(seg: TcpSegment) -> AddressedSegment {
    let mut p = SegmentPatcher::new(seg.encode(A_S, A_C), A_S, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(A_P);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

fn server(seq: u32) -> TcpSegmentBuilder {
    TcpSegment::builder(80, 5555).seq(seq).ack(ISS_C + 1)
}

fn client(flags: TcpFlags) -> TcpSegmentBuilder {
    TcpSegment::builder(5555, 80)
        .seq(ISS_C)
        .flags(flags)
        .window(60_000)
}

fn established() -> PrimaryBridge {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    b.set_flow_config(FlowTableConfig::new(4, 1024));
    *b.observers_mut() = Observers::default();
    let syn = |iss: u32, mss: u16| server(iss).flags(TcpFlags::SYN).mss(mss).window(50_000);
    let _ = b.on_inbound(raw(A_C, A_P, client(TcpFlags::SYN).mss(1460).build()), 0);
    let _ = b.on_outbound(raw(A_P, A_C, syn(ISS_P, 1460).build()), 0);
    let merged = b.on_inbound(diverted(syn(ISS_S, 1200).build()), 0);
    assert_eq!(merged.to_wire.len(), 1, "handshake must complete");
    b
}

#[test]
fn each_steady_state_segment_probes_the_index_once() {
    let mut b = established();
    for round in 0..16u32 {
        let off = round * PAYLOAD.len() as u32;
        let data = |iss: u32| {
            server(iss + 1 + off)
                .window(50_000)
                .payload(PAYLOAD.to_vec().into())
                .build()
        };
        let ack = TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1)
            .ack(ISS_S + 1 + off + PAYLOAD.len() as u32)
            .window(60_000)
            .build();

        let before = b.flow_stats().lookups;
        let out = b.on_outbound(raw(A_P, A_C, data(ISS_P)), 0);
        assert!(out.to_wire.is_empty(), "P-only bytes are held");
        assert_eq!(b.flow_stats().lookups, before + 1, "primary data segment");

        let out = b.on_inbound(diverted(data(ISS_S)), 0);
        assert_eq!(out.to_wire.len(), 1, "matched bytes are released");
        assert_eq!(b.flow_stats().lookups, before + 2, "diverted data segment");

        let out = b.on_inbound(raw(A_C, A_P, ack), 0);
        assert_eq!(out.to_tcp.len(), 1, "client ACK passes up, translated");
        assert_eq!(b.flow_stats().lookups, before + 3, "client ACK");
    }
    assert_eq!(b.stats.merged_segments, 16);
    assert_eq!(b.stats.acks_translated, 16);
}

#[test]
fn the_secondary_resolves_a_client_segment_once() {
    let mut s = PrimaryBridge::link(A_P, A_S, Some(A_P), None, FailoverConfig::from_ports([80]));
    s.set_flow_config(FlowTableConfig::new(4, 1024));
    *s.observers_mut() = Observers::default();
    let _ = s.on_inbound(raw(A_C, A_P, client(TcpFlags::SYN).build()), 0);
    // Plain data, then the FIN that moves the witness entry's state:
    // each is the lookup, the flags update and the lifecycle change on
    // one resolution.
    for flags in [TcpFlags::EMPTY, TcpFlags::FIN] {
        let before = s.flow_stats().lookups;
        let seg = client(flags)
            .seq(ISS_C + 1)
            .ack(ISS_S + 1)
            .payload(PAYLOAD.to_vec().into());
        let out = s.on_inbound(raw(A_C, A_P, seg.build()), 0);
        assert_eq!(out.to_tcp.len(), 1, "witnessed flow is translated");
        assert_eq!(s.flow_stats().lookups, before + 1);
    }
    // Our own FIN walks the lifecycle on egress, again on one probe.
    let before = s.flow_stats().lookups;
    let fin = server(ISS_S + 1).flags(TcpFlags::FIN).build();
    let out = s.on_outbound(raw(A_S, A_C, fin), 0);
    assert_eq!(out.to_wire.len(), 1, "diverted upstream");
    assert_eq!(s.flow_stats().lookups, before + 1);
}
