//! Property test on the daisy chain's composition: a stream pushed
//! through a tail-divert plus two stacked [`PrimaryBridge`] links (a
//! middle and the head), each level with its own segmentation and ISN,
//! reaches the client exactly once, in order, in the tail's sequence
//! space.

use bytes::Bytes;
use proptest::prelude::*;
use tcpfo_core::{FailoverConfig, PrimaryBridge};
use tcpfo_tcp::filter::{AddressedSegment, SegmentFilter};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{verify_segment_checksum, SegmentPatcher, TcpFlags, TcpSegment};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2); // head
const B1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3); // middle
const B2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4); // tail

const ISS_HEAD: u32 = 1_000_000;
const ISS_MID: u32 = 77;
const ISS_TAIL: u32 = 0xf000_0000;
const ISS_C: u32 = 42;

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
}

/// What the tail (a link with nobody below) diverts up for `seg`.
fn tail_divert(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(B2, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, B2, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(B1);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

struct Chain {
    middle: PrimaryBridge,
    head: PrimaryBridge,
}

impl Chain {
    fn established() -> Self {
        let cfg = FailoverConfig::from_ports([80]);
        let mut middle = PrimaryBridge::link(VIP, B1, Some(VIP), Some(B2), cfg.clone());
        let mut head = PrimaryBridge::link(VIP, VIP, None, Some(B1), cfg);
        // Client SYN reaches every replica.
        let syn = TcpSegment::builder(5555, 80)
            .seq(ISS_C)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build();
        let _ = head.on_inbound(raw(A_C, VIP, syn.clone()), 0);
        let _ = middle.on_inbound(raw(A_C, VIP, syn), 0);
        // Each level's own SYN+ACK.
        let head_synack = TcpSegment::builder(80, 5555)
            .seq(ISS_HEAD)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50_000)
            .build();
        assert!(head
            .on_outbound(raw(VIP, A_C, head_synack), 0)
            .to_wire
            .is_empty());
        let mid_synack = TcpSegment::builder(80, 5555)
            .seq(ISS_MID)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(45_000)
            .build();
        assert!(middle
            .on_outbound(raw(B1, A_C, mid_synack), 0)
            .to_wire
            .is_empty());
        // The tail's SYN+ACK climbs the chain.
        let tail_synack = TcpSegment::builder(80, 5555)
            .seq(ISS_TAIL)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1300)
            .window(40_000)
            .build();
        let up = middle.on_inbound(tail_divert(tail_synack), 0);
        assert_eq!(up.to_wire.len(), 1, "middle merges and diverts");
        let out = head.on_inbound(up.to_wire.into_iter().next().unwrap(), 0);
        assert_eq!(out.to_wire.len(), 1, "head merges and emits");
        let merged = TcpSegment::decode(&out.to_wire[0].bytes).unwrap();
        assert_eq!(merged.seq, ISS_TAIL, "client space is the tail's");
        assert_eq!(merged.mss(), Some(1300), "min MSS across three levels");
        assert_eq!(merged.window, 40_000, "min window across three levels");
        Chain { middle, head }
    }

    /// Delivers one level's data segment, cascading any diverted output
    /// upward; appends client-bound emissions to `released`.
    fn feed(&mut self, level: usize, off: usize, data: &[u8], released: &mut Vec<(u32, Vec<u8>)>) {
        let collect = |out: tcpfo_tcp::filter::FilterOutput,
                       chain: &mut Chain,
                       released: &mut Vec<(u32, Vec<u8>)>| {
            for w in out.to_wire {
                if w.dst == VIP {
                    // climbing from the middle to the head
                    let up = chain.head.on_inbound(w, 0);
                    for w2 in up.to_wire {
                        assert_eq!(w2.dst, A_C);
                        assert!(verify_segment_checksum(w2.src, w2.dst, &w2.bytes));
                        let seg = TcpSegment::decode(&w2.bytes).unwrap();
                        if !seg.payload.is_empty() {
                            released.push((
                                seg.seq.wrapping_sub(ISS_TAIL.wrapping_add(1)),
                                seg.payload.to_vec(),
                            ));
                        }
                    }
                } else {
                    assert_eq!(w.dst, A_C);
                    let seg = TcpSegment::decode(&w.bytes).unwrap();
                    if !seg.payload.is_empty() {
                        released.push((
                            seg.seq.wrapping_sub(ISS_TAIL.wrapping_add(1)),
                            seg.payload.to_vec(),
                        ));
                    }
                }
            }
        };
        match level {
            0 => {
                // Head's own TCP output.
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_HEAD.wrapping_add(1 + off as u32))
                    .ack(ISS_C + 1)
                    .window(50_000)
                    .payload(Bytes::from(data.to_vec()))
                    .build();
                let out = self.head.on_outbound(raw(VIP, A_C, seg), 0);
                collect(out, self, released);
            }
            1 => {
                // Middle's own TCP output.
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_MID.wrapping_add(1 + off as u32))
                    .ack(ISS_C + 1)
                    .window(45_000)
                    .payload(Bytes::from(data.to_vec()))
                    .build();
                let out = self.middle.on_outbound(raw(B1, A_C, seg), 0);
                collect(out, self, released);
            }
            _ => {
                // Tail stream, diverted into the middle.
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_TAIL.wrapping_add(1 + off as u32))
                    .ack(ISS_C + 1)
                    .window(40_000)
                    .payload(Bytes::from(data.to_vec()))
                    .build();
                let out = self.middle.on_inbound(tail_divert(seg), 0);
                collect(out, self, released);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Three replicas produce the same stream with independent
    /// segmentation in a random interleave; the client receives it
    /// exactly once, in order, in the tail's space.
    #[test]
    fn prop_three_level_release_is_exact(
        stream_len in 1usize..1200,
        cuts_head in proptest::collection::vec(1usize..300, 1..8),
        cuts_mid in proptest::collection::vec(1usize..300, 1..8),
        cuts_tail in proptest::collection::vec(1usize..300, 1..8),
        order in proptest::collection::vec(0usize..3, 1..48),
    ) {
        let stream: Vec<u8> = (0..stream_len).map(|i| (i * 7 % 251) as u8).collect();
        let cut = |cuts: &[usize]| {
            let mut segs = Vec::new();
            let mut off = 0usize;
            let mut i = 0usize;
            while off < stream_len {
                let len = cuts[i % cuts.len()].min(stream_len - off);
                segs.push((off, stream[off..off + len].to_vec()));
                off += len;
                i += 1;
            }
            segs
        };
        let per_level = [cut(&cuts_head), cut(&cuts_mid), cut(&cuts_tail)];
        let mut idx = [0usize; 3];
        let mut chain = Chain::established();
        let mut released = Vec::new();
        let mut step = 0usize;
        while idx.iter().zip(&per_level).any(|(&i, segs)| i < segs.len()) {
            let lvl = order[step % order.len()];
            step += 1;
            let lvl = if idx[lvl] < per_level[lvl].len() {
                lvl
            } else {
                // This level is done; find one that is not.
                (0..3).find(|&l| idx[l] < per_level[l].len()).unwrap()
            };
            let (off, data) = per_level[lvl][idx[lvl]].clone();
            idx[lvl] += 1;
            chain.feed(lvl, off, &data, &mut released);
        }
        // Exactly-once, in-order, complete.
        let mut next = 0u32;
        let mut rebuilt = Vec::new();
        for (off, data) in &released {
            prop_assert_eq!(*off, next, "release out of order");
            rebuilt.extend_from_slice(data);
            next = next.wrapping_add(data.len() as u32);
        }
        prop_assert_eq!(rebuilt, stream);
        prop_assert_eq!(chain.head.stats.mismatched_bytes, 0);
        prop_assert_eq!(chain.middle.stats.mismatched_bytes, 0);
    }
}

// ---------------------------------------------------------------------
// PR9: a converted middle link (old tail after reprovisioning) adopting
// flows at Δseq = 0 must preserve the exactly-once release property.
// ---------------------------------------------------------------------

const B3: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5); // reprovisioned standby
const CURSOR: u32 = 0x2000_0000;
const ISS_C2: u32 = 9_000;

/// What the standby (the new tail) diverts: its adopted socket talks
/// in the tail's (client-facing) space already, diverted to the
/// converted middle.
fn standby_divert(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(B3, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, B3, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(B2);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After `adopt_flow` at the snapshot cursor, the converted
    /// middle's merge — its own continued stream against the standby's
    /// regenerated one, independently segmented and interleaved —
    /// releases every byte from the cursor exactly once, in order, in
    /// the unchanged client-facing space.
    #[test]
    fn prop_adopted_middle_release_is_exact(
        stream_len in 1usize..1200,
        cuts_own in proptest::collection::vec(1usize..300, 1..8),
        cuts_standby in proptest::collection::vec(1usize..300, 1..8),
        order in proptest::collection::vec(0usize..2, 1..32),
    ) {
        use tcpfo_core::FlowHandoff;
        use tcpfo_tcp::types::SocketAddr;

        let cfg = FailoverConfig::from_ports([80]);
        // The converted old tail: upstream toward the head, the fresh
        // standby downstream.
        let mut mid = PrimaryBridge::link(VIP, B2, Some(B1), Some(B3), cfg);
        mid.adopt_flow(
            &FlowHandoff {
                client: SocketAddr::new(A_C, 5555),
                server_port: 80,
                cursor: CURSOR,
                delta: 0,
                rcv_nxt: ISS_C2 + 1,
                mss: 1460,
                win: 40_000,
                offset: 0,
                remaining: stream_len as u64,
            },
            0,
        );

        let stream: Vec<u8> = (0..stream_len).map(|i| (i * 13 % 249) as u8).collect();
        let cut = |cuts: &[usize]| {
            let mut segs = Vec::new();
            let mut off = 0usize;
            let mut i = 0usize;
            while off < stream_len {
                let len = cuts[i % cuts.len()].min(stream_len - off);
                segs.push((off, stream[off..off + len].to_vec()));
                off += len;
                i += 1;
            }
            segs
        };
        let per_side = [cut(&cuts_own), cut(&cuts_standby)];
        let mut idx = [0usize; 2];
        let mut released = Vec::new();
        let mut step = 0usize;
        while idx.iter().zip(&per_side).any(|(&i, segs)| i < segs.len()) {
            let side = order[step % order.len()];
            step += 1;
            let side = if idx[side] < per_side[side].len() {
                side
            } else {
                (0..2).find(|&s| idx[s] < per_side[s].len()).unwrap()
            };
            let (off, data) = per_side[side][idx[side]].clone();
            idx[side] += 1;
            let seg = TcpSegment::builder(80, 5555)
                .seq(CURSOR.wrapping_add(off as u32))
                .ack(ISS_C2 + 1)
                .window(40_000)
                .payload(Bytes::from(data))
                .build();
            let out = if side == 0 {
                // The converted link's own continued stream.
                mid.on_outbound(raw(B2, A_C, seg), 0)
            } else {
                // The standby's regenerated stream, diverted up.
                mid.on_inbound(standby_divert(seg), 0)
            };
            for w in out.to_wire {
                prop_assert_eq!(w.dst, B1, "merged output climbs to the upstream link");
                prop_assert!(verify_segment_checksum(w.src, w.dst, &w.bytes));
                let seg = TcpSegment::decode(&w.bytes).unwrap();
                if !seg.payload.is_empty() {
                    released.push((seg.seq.wrapping_sub(CURSOR), seg.payload.to_vec()));
                }
            }
        }
        let mut next = 0u32;
        let mut rebuilt = Vec::new();
        for (off, data) in &released {
            prop_assert_eq!(*off, next, "release out of order");
            rebuilt.extend_from_slice(data);
            next = next.wrapping_add(data.len() as u32);
        }
        prop_assert_eq!(rebuilt, stream);
        prop_assert_eq!(mid.stats.mismatched_bytes, 0);
        prop_assert_eq!(mid.stats.adopted_flows, 1);
    }
}
