//! Golden bytes: the three encoders put exactly these bytes on the
//! wire. The simulated cells of the benchmark (`core.output_digest`,
//! `net.events`, every `client.lat_*`) depend on every one of them, so
//! an encoder rewrite that moves a single byte — an option padded with
//! zeros instead of NOPs, a checksum one position off, a short frame
//! not padded to 60 B — fails here first. The fused encoder devices
//! transmit with (`Ipv4Packet::encode_framed`) is held to the layered
//! two byte for byte.

use bytes::Bytes;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet, PROTO_TCP};
use tcpfo_wire::mac::MacAddr;
use tcpfo_wire::tcp::{TcpFlags, TcpOption, TcpSegment};

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn base() -> tcpfo_wire::tcp::TcpSegmentBuilder {
    TcpSegment::builder(80, 5555)
        .seq(0x0102_0304)
        .ack(0x0a0b_0c0d)
        .window(4096)
}

fn segments() -> Vec<(&'static str, TcpSegment)> {
    let mut unknown = base().payload(Bytes::from_static(b"xy")).build();
    unknown.options.push(TcpOption::Unknown(99, vec![1, 2, 3]));
    vec![
        (
            "no options, even payload",
            base().payload(Bytes::from_static(b"hello!")).build(),
        ),
        (
            "SYN with MSS",
            TcpSegment::builder(5555, 80)
                .seq(0xffff_fff0)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(65535)
                .build(),
        ),
        (
            "orig-dest option",
            base()
                .orig_dest(DST, 5555)
                .payload(Bytes::from_static(b"data"))
                .build(),
        ),
        (
            "MSS and orig-dest on a SYN+ACK",
            base()
                .flags(TcpFlags::SYN)
                .mss(1200)
                .orig_dest(DST, 5555)
                .build(),
        ),
        (
            "odd payload",
            base()
                .flags(TcpFlags::PSH)
                .payload(Bytes::from_static(b"abc"))
                .build(),
        ),
        ("empty payload", base().build()),
        ("odd-length option, NOP padding", unknown),
    ]
}

const SEGMENT_HEX: [&str; 7] = [
    "005015b3010203040a0b0c0d501010006107000068656c6c6f21",
    "15b30050fffffff0000000006002ffffb77f0000020405b4",
    "005015b3010203040a0b0c0d70101000d8c30000fd08c0a8000915b364617461",
    "005015b3010203040a0b0c0d801210009ad00000020404b0fd08c0a8000915b3",
    "005015b3010203040a0b0c0d50181000e0920000616263",
    "005015b3010203040a0b0c0d50101000a5000000",
    "005015b3010203040a0b0c0d70101000a473000063050102030101017879",
];

#[test]
fn tcp_encode_matches_golden_bytes() {
    let segments = segments();
    assert_eq!(segments.len(), SEGMENT_HEX.len());
    for ((name, seg), want) in segments.iter().zip(SEGMENT_HEX) {
        assert_eq!(hex(&seg.encode(SRC, DST)), want, "{name}");
    }
}

fn datagram() -> Ipv4Packet {
    let seg = base().payload(Bytes::from_static(b"abc")).build();
    let mut ip = Ipv4Packet::new(SRC, DST, PROTO_TCP, seg.encode(SRC, DST));
    ip.ttl = 63;
    ip.identification = 0xbeef;
    ip
}

const DATAGRAM_HEX: &str =
    "4500002bbeef40003f06b22a0a000002c0a80009005015b3010203040a0b0c0d50101000e09a0000616263";

#[test]
fn ipv4_encode_matches_golden_bytes() {
    assert_eq!(hex(&datagram().encode()), DATAGRAM_HEX);
}

fn frames() -> Vec<(&'static str, EthernetFrame)> {
    let (dst, src) = (MacAddr::from_index(1), MacAddr::from_index(2));
    vec![
        (
            "sub-60 B frame, zero padded",
            EthernetFrame::new(dst, src, EtherType::Ipv4, datagram().encode()),
        ),
        (
            "exactly 60 B, nothing to pad",
            EthernetFrame::new(
                MacAddr::BROADCAST,
                src,
                EtherType::Arp,
                Bytes::from((0u8..46).collect::<Vec<_>>()),
            ),
        ),
        (
            "beyond the minimum",
            EthernetFrame::new(
                dst,
                src,
                EtherType::Other(0x88cc),
                Bytes::from((0u8..50).collect::<Vec<_>>()),
            ),
        ),
    ]
}

const FRAME_HEX: [&str; 3] = [
    "02000000000102000000000208004500002bbeef40003f06b22a0a000002c0a80009005015b3010203040a0b0c0d50101000e09a0000616263000000",
    "ffffffffffff0200000000020806000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d",
    "02000000000102000000000288cc000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031",
];

#[test]
fn ethernet_encode_matches_golden_bytes() {
    let frames = frames();
    assert_eq!(frames.len(), FRAME_HEX.len());
    for ((name, frame), want) in frames.iter().zip(FRAME_HEX) {
        assert_eq!(hex(&frame.encode()), want, "{name}");
    }
}

#[test]
fn fused_frame_equals_the_layered_encoders() {
    let (dst, src) = (MacAddr::from_index(1), MacAddr::from_index(2));
    // The golden datagram (43 B: padded), the padding boundary on both
    // sides, an empty payload and a full MSS segment's worth.
    let mut datagrams = vec![datagram()];
    for len in [0usize, 25, 26, 27, 1480] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let mut pkt = Ipv4Packet::new(DST, SRC, 253, Bytes::from(payload));
        pkt.ttl = 1;
        datagrams.push(pkt);
    }
    for pkt in datagrams {
        let layered = EthernetFrame::new(dst, src, EtherType::Ipv4, pkt.encode()).encode();
        let fused = pkt.encode_framed(dst, src);
        assert_eq!(
            hex(&fused),
            hex(&layered),
            "{} B payload",
            pkt.payload.len()
        );
    }
    assert_eq!(hex(&datagram().encode_framed(dst, src)), FRAME_HEX[0]);
}
