//! Property tests for [`FlowKey`] canonicalisation: the two segment
//! orientations of the same connection must always map to the same
//! key, and the byte-level parsers must agree with the field-level
//! constructors.

use proptest::prelude::*;
use tcp_failover::core::FlowKey;
use tcp_failover::tcp::filter::AddressedSegment;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::tcp::{TcpFlags, TcpSegment};

proptest! {
    /// A peer→server segment and the server→peer reply on the same
    /// connection canonicalise to one key — the satellite-2 contract:
    /// no caller ever needs to know which orientation it holds.
    #[test]
    fn prop_both_orientations_one_key(
        ip in any::<u32>(),
        peer_port in any::<u16>(),
        server_port in any::<u16>(),
    ) {
        let peer_ip = Ipv4Addr::from_bits(ip);
        let up = FlowKey::from_segment_ingress(peer_ip, peer_port, server_port);
        let down = FlowKey::from_segment_egress(peer_ip, server_port, peer_port);
        prop_assert_eq!(up, down);
        prop_assert_eq!(up.server_port, server_port);
        prop_assert_eq!(up.peer, SocketAddr::new(peer_ip, peer_port));
    }

    /// The raw-bytes parsers (`of_ingress` / `of_egress`) agree with
    /// the field constructors on real encoded segments — parsing the
    /// wire is not a second, divergent canonicalisation.
    #[test]
    fn prop_wire_parsers_match_constructors(
        ip in 1u32..0xffff_ffff,
        srv_ip in 1u32..0xffff_ffff,
        peer_port in 1u16..u16::MAX,
        server_port in 1u16..u16::MAX,
        seq in any::<u32>(),
    ) {
        let peer_ip = Ipv4Addr::from_bits(ip);
        let server_ip = Ipv4Addr::from_bits(srv_ip);
        let expect = FlowKey::new(server_port, SocketAddr::new(peer_ip, peer_port));

        let up_seg = TcpSegment::builder(peer_port, server_port)
            .seq(seq)
            .flags(TcpFlags::ACK)
            .build();
        let up = AddressedSegment::new(
            peer_ip,
            server_ip,
            up_seg.encode(peer_ip, server_ip).to_vec(),
        );
        prop_assert_eq!(FlowKey::of_ingress(&up), Some(expect));

        let down_seg = TcpSegment::builder(server_port, peer_port)
            .seq(seq)
            .flags(TcpFlags::ACK)
            .build();
        let down = AddressedSegment::new(
            server_ip,
            peer_ip,
            down_seg.encode(server_ip, peer_ip).to_vec(),
        );
        prop_assert_eq!(FlowKey::of_egress(&down), Some(expect));
    }
}

#[test]
fn truncated_segments_yield_no_key() {
    let ip = Ipv4Addr::new(10, 0, 0, 1);
    let short = AddressedSegment::new(ip, ip, vec![0u8; 3]);
    assert_eq!(FlowKey::of_ingress(&short), None);
    assert_eq!(FlowKey::of_egress(&short), None);
}
