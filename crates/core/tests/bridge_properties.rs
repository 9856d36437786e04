//! Property tests on the primary bridge's central invariant: whatever
//! the replicas' segmentation, interleaving, duplication or lag, the
//! byte stream released to the client is exactly the application
//! stream, in order, exactly once (§3.2-§3.4).

use bytes::Bytes;
use proptest::prelude::*;
use tcpfo_core::{FailoverConfig, PrimaryBridge};
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput, SegmentFilter};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{verify_segment_checksum, SegmentPatcher, TcpFlags, TcpSegment};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISS_P: u32 = 0xdead_0000;
const ISS_S: u32 = 0x0000_ff00;
const ISS_C: u32 = 77;

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
}

fn diverted(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(A_S, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, A_S, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(A_P);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

fn established() -> PrimaryBridge {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
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
            .mss(1460)
            .window(40_000)
            .build(),
    );
    let out = b.on_inbound(s_synack, 0);
    assert_eq!(out.to_wire.len(), 1);
    b
}

/// Collects released client-facing payload keyed by sequence offset.
fn collect(out: &FilterOutput, released: &mut Vec<(u32, Vec<u8>)>) {
    for w in &out.to_wire {
        assert_eq!(w.dst, A_C, "only client-facing emissions expected");
        assert!(
            verify_segment_checksum(w.src, w.dst, &w.bytes),
            "bridge emitted a corrupt checksum"
        );
        let seg = TcpSegment::decode(&w.bytes).expect("decodable");
        if !seg.payload.is_empty() {
            released.push((seg.seq.wrapping_sub(ISS_S + 1), seg.payload.to_vec()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feed one application stream through both replica paths with
    /// independent random segmentation and a random interleave, plus
    /// duplicated segments. Released bytes == stream, exactly once.
    #[test]
    fn prop_released_stream_is_exact(
        stream_len in 1usize..2000,
        p_cuts in proptest::collection::vec(1usize..400, 1..12),
        s_cuts in proptest::collection::vec(1usize..400, 1..12),
        interleave in proptest::collection::vec(any::<bool>(), 1..64),
        dup_every in 2usize..6,
    ) {
        let stream: Vec<u8> = (0..stream_len).map(|i| (i % 251) as u8).collect();

        // Cut the stream into per-replica segments.
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
        let p_segs = cut(&p_cuts);
        let s_segs = cut(&s_cuts);

        let mut b = established();
        let mut released: Vec<(u32, Vec<u8>)> = Vec::new();
        let (mut pi, mut si) = (0usize, 0usize);
        let mut step = 0usize;
        while pi < p_segs.len() || si < s_segs.len() {
            let take_p = if pi >= p_segs.len() {
                false
            } else if si >= s_segs.len() {
                true
            } else {
                interleave[step % interleave.len()]
            };
            step += 1;
            if take_p {
                let (off, data) = &p_segs[pi];
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_P.wrapping_add(1 + *off as u32))
                    .ack(ISS_C + 1)
                    .window(50_000)
                    .payload(Bytes::from(data.clone()))
                    .build();
                let out = b.on_outbound(raw(A_P, A_C, seg.clone()), 0);
                collect(&out, &mut released);
                // Duplicate delivery of some segments (replica
                // retransmission): must not duplicate client bytes
                // beyond what §4 mandates (immediate forward of
                // already-released content, which we filter below by
                // exact-once accounting of fresh bytes).
                if pi % dup_every == 0 {
                    let out = b.on_outbound(raw(A_P, A_C, seg), 0);
                    for w in &out.to_wire {
                        let seg = TcpSegment::decode(&w.bytes).unwrap();
                        // Retransmission forwards are below send_next:
                        // they repeat already-released bytes only.
                        if !seg.payload.is_empty() {
                            let off = seg.seq.wrapping_sub(ISS_S + 1) as usize;
                            prop_assert_eq!(
                                &stream[off..off + seg.payload.len()],
                                &seg.payload[..],
                                "retransmission content diverged"
                            );
                        }
                    }
                }
                pi += 1;
            } else {
                let (off, data) = &s_segs[si];
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_S.wrapping_add(1 + *off as u32))
                    .ack(ISS_C + 1)
                    .window(40_000)
                    .payload(Bytes::from(data.clone()))
                    .build();
                let out = b.on_inbound(diverted(seg), 0);
                collect(&out, &mut released);
                si += 1;
            }
        }

        // Exactly-once, in-order release of the full stream.
        let mut next = 0u32;
        let mut reconstructed = Vec::new();
        for (off, data) in &released {
            prop_assert_eq!(*off, next, "released out of order or with gaps");
            reconstructed.extend_from_slice(data);
            next = next.wrapping_add(data.len() as u32);
        }
        prop_assert_eq!(reconstructed.len(), stream_len, "byte count mismatch");
        prop_assert_eq!(reconstructed, stream);

        // And all of it within the negotiated MSS.
        prop_assert_eq!(b.stats.mismatched_bytes, 0);
    }

    /// The min-ack rule: in any ack interleaving, every emitted ack
    /// value is ≤ both replicas' current acks and never decreases.
    #[test]
    fn prop_emitted_acks_are_monotone_minima(
        acks in proptest::collection::vec((0u32..5000, any::<bool>()), 1..60),
    ) {
        let mut b = established();
        let mut cur_p: Option<u32> = None;
        let mut cur_s: Option<u32> = None;
        let mut last_emitted: Option<u32> = None;
        let mut ack_p_sent = ISS_C + 1; // monotone per replica
        let mut ack_s_sent = ISS_C + 1;
        for (delta, from_p) in acks {
            let out = if from_p {
                ack_p_sent = ack_p_sent.max(ISS_C + 1 + delta);
                cur_p = Some(ack_p_sent);
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_P + 1)
                    .ack(ack_p_sent)
                    .window(50_000)
                    .build();
                b.on_outbound(raw(A_P, A_C, seg), 0)
            } else {
                ack_s_sent = ack_s_sent.max(ISS_C + 1 + delta);
                cur_s = Some(ack_s_sent);
                let seg = TcpSegment::builder(80, 5555)
                    .seq(ISS_S + 1)
                    .ack(ack_s_sent)
                    .window(40_000)
                    .build();
                b.on_inbound(diverted(seg), 0)
            };
            for w in &out.to_wire {
                let seg = TcpSegment::decode(&w.bytes).unwrap();
                prop_assert!(seg.flags.contains(TcpFlags::ACK));
                // Never beyond either replica's acknowledgment.
                if let Some(p) = cur_p {
                    prop_assert!(seg.ack.wrapping_sub(ISS_C) <= p.wrapping_sub(ISS_C));
                }
                if let Some(s) = cur_s {
                    prop_assert!(seg.ack.wrapping_sub(ISS_C) <= s.wrapping_sub(ISS_C));
                }
                // Monotone non-decreasing towards the client.
                if let Some(l) = last_emitted {
                    prop_assert!(seg.ack.wrapping_sub(ISS_C) >= l.wrapping_sub(ISS_C));
                }
                last_emitted = Some(seg.ack);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile input: arbitrary bytes offered to either bridge, on
    /// either path, must never panic — malformed traffic on the shared
    /// segment is reality, not an edge case.
    #[test]
    fn prop_bridges_never_panic_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        src_last in any::<u8>(),
        dst_last in any::<u8>(),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, src_last);
        let dst = Ipv4Addr::new(10, 0, 0, dst_last);
        let mut p = established();
        let seg = AddressedSegment::new(src, dst, bytes.clone());
        let _ = p.on_inbound(seg.clone(), 0);
        let _ = p.on_outbound(seg.clone(), 0);
        let fo = tcpfo_core::FailoverConfig::from_ports([80]);
        let mut s = PrimaryBridge::link(A_P, A_S, Some(A_P), None, fo);
        let _ = s.on_inbound(seg.clone(), 0);
        let _ = s.on_outbound(seg, 0);
    }

    /// Hostile but well-formed: random valid TCP segments with random
    /// flags/fields aimed at an established bridge connection must
    /// never panic, and everything emitted must carry a valid checksum.
    #[test]
    fn prop_bridge_robust_to_random_valid_segments(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..0x40,
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        inbound in any::<bool>(),
        from_client in any::<bool>(),
    ) {
        let mut b = established();
        let mut builder = TcpSegment::builder(src_port, dst_port)
            .seq(seq)
            .window(window)
            .flags(TcpFlags(flags))
            .payload(Bytes::from(payload));
        if TcpFlags(flags).contains(TcpFlags::ACK) {
            builder = builder.ack(ack);
        }
        let seg = builder.build();
        let raw = if from_client {
            AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec())
        } else {
            AddressedSegment::new(A_P, A_C, seg.encode(A_P, A_C).to_vec())
        };
        let out = if inbound {
            b.on_inbound(raw, 0)
        } else {
            b.on_outbound(raw, 0)
        };
        for w in out.to_wire.iter().chain(out.to_tcp.iter()) {
            prop_assert!(
                verify_segment_checksum(w.src, w.dst, &w.bytes),
                "bridge emitted invalid checksum"
            );
        }
    }
}
