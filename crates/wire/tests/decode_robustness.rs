//! Fuzz-style robustness: no decoder in the crate may panic on
//! arbitrary input, and every decoder must round-trip what it accepts.

use proptest::prelude::*;
use tcpfo_wire::arp::ArpPacket;
use tcpfo_wire::eth::EthernetFrame;
use tcpfo_wire::ipv4::{pseudo_header_sum, Ipv4Addr, Ipv4Packet, PROTO_TCP};
use tcpfo_wire::tcp::{
    decode_options, peek_orig_dest, verify_segment_checksum, SegmentPatcher, TcpOption, TcpSegment,
    TcpView, OPT_KIND_ORIG_DEST, TCP_HEADER_LEN,
};

/// A checksummed segment whose option area is exactly `options`
/// (zero-padded to a 4-byte boundary, at most 40 bytes), followed by
/// `payload` — the shape a diverted segment has on arrival at the
/// primary, with the option bytes under the sender's control.
fn segment_with_raw_options(
    options: &[u8],
    payload: &[u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> Vec<u8> {
    let mut bytes = TcpSegment::builder(80, 4242)
        .seq(7)
        .ack(9)
        .build()
        .encode(src, dst)
        .to_vec();
    let mut opts = options[..options.len().min(40)].to_vec();
    opts.resize(opts.len().div_ceil(4) * 4, 0);
    bytes[12] = (((TCP_HEADER_LEN + opts.len()) / 4) as u8) << 4;
    bytes.extend_from_slice(&opts);
    bytes.extend_from_slice(payload);
    bytes[16..18].fill(0);
    let mut ck = pseudo_header_sum(src, dst, PROTO_TCP, bytes.len());
    ck.add_bytes(&bytes);
    let ck = ck.finish();
    bytes[16..18].copy_from_slice(&ck.to_be_bytes());
    bytes
}

/// A valid orig-dest option, then an option whose length byte (1) is
/// malformed: the datapath finds the orig-dest before the scan stops.
const VALID_THEN_MALFORMED: [u8; 10] = [OPT_KIND_ORIG_DEST, 8, 192, 168, 0, 9, 0x15, 0xb3, 5, 1];

/// Whether `inner` lies inside `outer`'s allocation.
fn within(outer: &[u8], inner: &[u8]) -> bool {
    let (o, i) = (outer.as_ptr_range(), inner.as_ptr_range());
    o.start <= i.start && i.end <= o.end
}

/// `decode` (which copies) and `decode_shared` (which narrows a handle
/// of its own, or slices for TCP) agree on `input` at one layer — the
/// same fields or the same error — and a non-empty shared payload is a
/// slice of `input`, not a copy. Hands the shared payload back for the
/// next layer down.
macro_rules! assert_layers_agree {
    ($ty:ty, $input:expr) => {
        assert_layers_agree!($ty, $input, |b: &bytes::Bytes| {
            <$ty>::decode_shared(b.clone())
        })
    };
    ($ty:ty, $input:expr, $decode_shared:expr) => {{
        let input: &bytes::Bytes = $input;
        let copied = <$ty>::decode(input);
        let shared = ($decode_shared)(input);
        assert_eq!(copied, shared);
        shared.ok().map(|d| d.payload).inspect(|p| {
            assert!(p.is_empty() || within(input, p), "payload was copied");
        })
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The copying and the slicing entry points are one parser: on
    /// arbitrary bytes every layer gives the same answer through both.
    #[test]
    fn decode_and_decode_shared_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let input = bytes::Bytes::from(bytes);
        assert_layers_agree!(EthernetFrame, &input);
        assert_layers_agree!(Ipv4Packet, &input);
        assert_layers_agree!(TcpSegment, &input, TcpSegment::decode_shared);
    }

    /// The same down a well-formed Ethernet/IPv4/TCP stack — cut short
    /// anywhere, one byte flipped anywhere — so the accepting branches
    /// are compared too, each layer fed the layer above's shared
    /// payload exactly as `Host::handle_frame` feeds it.
    #[test]
    fn decode_and_decode_shared_agree_down_the_stack(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        with_options in any::<bool>(),
        cut in proptest::option::of(0usize..140),
        flip in proptest::option::of((0usize..140, 0u8..8)),
    ) {
        use tcpfo_wire::eth::EtherType;
        use tcpfo_wire::mac::MacAddr;
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        let mut seg = TcpSegment::builder(80, 81).seq(1).ack(2);
        if with_options {
            seg = seg.mss(1460).orig_dest(src, 4242);
        }
        let seg = seg.payload(bytes::Bytes::from(payload)).build();
        let ip = Ipv4Packet::new(src, dst, PROTO_TCP, seg.encode(src, dst));
        let mut frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            ip.encode(),
        )
        .encode()
        .to_vec();
        if let Some((at, bit)) = flip {
            let at = at % frame.len();
            frame[at] ^= 1 << bit;
        }
        frame.truncate(cut.unwrap_or(usize::MAX));
        let frame = bytes::Bytes::from(frame);
        let data = assert_layers_agree!(EthernetFrame, &frame)
            .and_then(|datagram| assert_layers_agree!(Ipv4Packet, &datagram))
            .and_then(|segment| assert_layers_agree!(TcpSegment, &segment, TcpSegment::decode_shared));
        if flip.is_none() && cut.is_none() {
            prop_assert_eq!(data, Some(seg.payload));
        }
    }

    /// A frame handed over as a view of a larger allocation, with bytes
    /// on both sides of it, and an IPv4 header that checks out whatever
    /// its total length says: the Ethernet and IPv4 decoders give the
    /// copying decoder's answer, and each payload lies inside the view
    /// it was cut from, never in the bytes around it.
    #[test]
    fn shared_payloads_stay_inside_a_view_of_a_larger_allocation(
        datagram in proptest::collection::vec(any::<u8>(), 0..1500),
        total in 0u16..1560,
        eth_header in proptest::collection::vec(any::<u8>(), 14),
        lead in 0usize..40,
        trail in 0usize..40,
    ) {
        let mut datagram = datagram;
        if datagram.len() >= 20 {
            datagram[0] = 0x45;
            datagram[2..4].copy_from_slice(&total.to_be_bytes());
            datagram[10..12].fill(0);
            let ck = tcpfo_wire::checksum::checksum(&datagram[..20]);
            datagram[10..12].copy_from_slice(&ck.to_be_bytes());
        }
        let frame = [&eth_header[..], &datagram[..]].concat();
        let whole = [&vec![0xA5; lead][..], &frame[..], &vec![0x5A; trail][..]].concat();
        let whole = bytes::Bytes::from(whole);
        let view = whole.slice(lead..lead + frame.len());
        let shared = assert_layers_agree!(EthernetFrame, &view)
            .and_then(|payload| assert_layers_agree!(Ipv4Packet, &payload));
        let datagram = bytes::Bytes::from(datagram);
        prop_assert_eq!(
            shared,
            Ipv4Packet::decode(&datagram).ok().map(|p| p.payload)
        );
    }

    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = EthernetFrame::decode(&bytes);
        let _ = Ipv4Packet::decode(&bytes);
        let _ = ArpPacket::decode(&bytes);
        let _ = TcpSegment::decode(&bytes);
        let _ = TcpView::new(&bytes);
        let _ = decode_options(&bytes);
        let _ = peek_orig_dest(&bytes);
    }

    /// Arbitrary option bytes — truncated orig-dest options, wrong
    /// length bytes, an option kind in the header's last byte, a valid
    /// orig-dest followed by a malformed option — never panic the view,
    /// the peek or the in-place strip, the three agree on what they
    /// found, and a strip keeps the checksum valid.
    #[test]
    fn orig_dest_peek_and_strip_survive_arbitrary_options(
        options in prop_oneof![
            1 => Just(VALID_THEN_MALFORMED.to_vec()),
            7 => proptest::collection::vec(any::<u8>(), 0..41),
        ],
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 3);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let bytes = segment_with_raw_options(&options, &payload, src, dst);
        prop_assert!(verify_segment_checksum(src, dst, &bytes));
        let peeked = peek_orig_dest(&bytes);
        prop_assert_eq!(TcpView::new(&bytes).expect("valid header").orig_dest(), peeked);
        if options == VALID_THEN_MALFORMED {
            prop_assert_eq!(peeked, Some((Ipv4Addr::new(192, 168, 0, 9), 5555)));
        }
        let mut p = SegmentPatcher::new(bytes.clone(), src, dst);
        let stripped = p.strip_orig_dest_option();
        prop_assert_eq!(peeked, stripped);
        let (out, ..) = p.finish();
        prop_assert!(verify_segment_checksum(src, dst, &out));
        prop_assert_eq!(out.len(), bytes.len() - if stripped.is_some() { 8 } else { 0 });
        prop_assert!(out.ends_with(&payload));
    }

    /// The strict decoder and the lenient peek read one option walk.
    /// Where the whole block decodes, the peek finds the decoder's
    /// first orig-dest. Where it does not, the peek finds only an
    /// orig-dest that lies before the malformed entry: one that a
    /// cleanly decoding prefix of the block already holds.
    #[test]
    fn strict_decode_and_lenient_peek_agree_on_orig_dest(
        options in prop_oneof![
            1 => Just(VALID_THEN_MALFORMED.to_vec()),
            3 => (
                proptest::collection::vec(prop_oneof![Just(1u8), any::<u8>()], 0..16),
                proptest::collection::vec(any::<u8>(), 0..16),
            )
                .prop_map(|(lead, tail)| {
                    [&lead[..], &VALID_THEN_MALFORMED[..8], &tail[..]].concat()
                }),
            4 => proptest::collection::vec(any::<u8>(), 0..41),
        ],
    ) {
        let first_orig_dest = |opts: &[TcpOption]| {
            opts.iter().find_map(|o| match o {
                TcpOption::OrigDest { addr, port } => Some((*addr, *port)),
                _ => None,
            })
        };
        let bytes = segment_with_raw_options(
            &options,
            b"",
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let block = &bytes[TCP_HEADER_LEN..];
        let peeked = peek_orig_dest(&bytes);
        match decode_options(block) {
            Ok(opts) => prop_assert_eq!(peeked, first_orig_dest(&opts)),
            Err(_) => {
                let held: Vec<_> = (0..block.len())
                    .filter_map(|cut| decode_options(&block[..cut]).ok())
                    .filter_map(|opts| first_orig_dest(&opts))
                    .collect();
                prop_assert_eq!(peeked, held.first().copied());
                prop_assert!(held.iter().all(|d| Some(*d) == peeked));
            }
        }
    }

    /// The view's allocation-free MSS reader is as strict as the full
    /// decode: on any option block, with an MSS planted or not, it
    /// reads what `decode_shared` reads, `None` wherever that fails.
    #[test]
    fn view_mss_equals_decoded_mss(
        lead in proptest::collection::vec(prop_oneof![Just(1u8), any::<u8>()], 0..20),
        mss in proptest::option::of(any::<u16>()),
        tail in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let mut options = lead;
        if let Some(mss) = mss {
            options.extend_from_slice(&[2, 4]);
            options.extend_from_slice(&mss.to_be_bytes());
        }
        options.extend_from_slice(&tail);
        let bytes = bytes::Bytes::from(segment_with_raw_options(
            &options,
            b"data",
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        let view = TcpView::new(&bytes).expect("valid header");
        prop_assert_eq!(
            view.mss(),
            TcpSegment::decode_shared(&bytes).ok().and_then(|s| s.mss())
        );
    }

    /// The same with a well-formed orig-dest option planted at every
    /// offset of the option area, the header's very end included, and
    /// cut short there.
    #[test]
    fn orig_dest_option_at_any_offset(
        lead in 0usize..40,
        keep in 1usize..9,
        filler in prop_oneof![Just(1u8), Just(0u8), any::<u8>()],
        port in any::<u16>(),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 3);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut options = vec![filler; lead];
        let mut opt = vec![OPT_KIND_ORIG_DEST, 8, 192, 168, 0, 9];
        opt.extend_from_slice(&port.to_be_bytes());
        options.extend_from_slice(&opt[..keep]);
        let bytes = segment_with_raw_options(&options, b"reply", src, dst);
        let peeked = peek_orig_dest(&bytes);
        let mut p = SegmentPatcher::new(bytes.clone(), src, dst);
        prop_assert_eq!(peeked, p.strip_orig_dest_option());
        let (out, ..) = p.finish();
        prop_assert!(verify_segment_checksum(src, dst, &out));
        // NOP padding in front of a complete option is the one layout
        // that must be found, at odd offsets too.
        if filler == 1 && keep == 8 && lead + 8 <= 40 {
            prop_assert_eq!(peeked, Some((Ipv4Addr::new(192, 168, 0, 9), port)));
        }
    }

    /// Truncating a valid encoded stack at any point never panics.
    #[test]
    fn truncation_never_panics(
        cut in 0usize..120,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use tcpfo_wire::eth::EtherType;
        use tcpfo_wire::mac::MacAddr;
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        let seg = TcpSegment::builder(80, 81)
            .seq(1)
            .ack(2)
            .mss(1460)
            .payload(bytes::Bytes::from(payload))
            .build();
        let ip = Ipv4Packet::new(src, dst, PROTO_TCP, seg.encode(src, dst));
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            ip.encode(),
        )
        .encode();
        let cut = cut.min(frame.len());
        let trunc = &frame[..cut];
        if let Ok(eth) = EthernetFrame::decode(trunc) {
            if let Ok(ipd) = Ipv4Packet::decode(&eth.payload) {
                let _ = TcpSegment::decode(&ipd.payload);
            }
        }
    }

    /// Bit-flipping an IPv4 header is always caught by the header
    /// checksum (or decodes to the same values it started with).
    #[test]
    fn ipv4_bit_flips_detected(
        flip_byte in 0usize..20,
        flip_bit in 0u8..8,
    ) {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            PROTO_TCP,
            bytes::Bytes::from_static(b"payload"),
        );
        let mut bytes = pkt.encode().to_vec();
        bytes[flip_byte] ^= 1 << flip_bit;
        match Ipv4Packet::decode(&bytes) {
            // Either rejected...
            Err(_) => {}
            // ...or the flip hit a field and was repaired by another
            // interpretation — it must NOT silently decode to the
            // original packet with different bytes.
            Ok(decoded) => prop_assert_ne!(decoded, pkt),
        }
    }
}
