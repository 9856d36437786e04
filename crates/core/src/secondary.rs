//! The tail's old name. A tail — the pair's S, a chain's last replica —
//! is [`PrimaryBridge::link`] with nobody below it; the tests hold it to
//! what the paper's secondary bridge does (§3.1).

use crate::{designation::FailoverConfig, flow::FlowTableConfig, primary::PrimaryBridge};
use tcpfo_tcp::filter::{AddressedSegment, FailoverRule, FilterOutput, SegmentFilter};
use tcpfo_telemetry::{HealthObservatory, InvariantAuditor, Telemetry};
use tcpfo_wire::ipv4::Ipv4Addr;

/// The tail at `a_s` below the VIP's owner `a_p`, under its old type's
/// name; `as_any_mut` hands out the bridge it holds. Pinned, like the
/// middle link's shim in `chain.rs`, by `benchmark/README.md` § What the
/// benchmark calls; nothing else uses it and ROADMAP direction 2 deletes it.
///
/// ```
/// use tcpfo_core::{FailoverConfig, SecondaryBridge};
/// let [a_p, a_s] = [2, 3].map(|h| tcpfo_wire::ipv4::Ipv4Addr::new(10, 0, 0, h));
/// let _tail = SecondaryBridge::new(a_p, a_s, FailoverConfig::from_ports([80]));
/// ```
#[derive(Debug)]
pub struct SecondaryBridge(PrimaryBridge);

#[allow(missing_docs)] // each is the `PrimaryBridge` method of its name
impl SecondaryBridge {
    pub fn new(a_p: Ipv4Addr, a_s: Ipv4Addr, config: FailoverConfig) -> Self {
        SecondaryBridge(PrimaryBridge::link(a_p, a_s, Some(a_p), None, config))
    }
    pub fn set_flow_config(&mut self, config: FlowTableConfig) {
        self.0.set_flow_config(config);
    }
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.0.set_telemetry(telemetry);
    }
    pub fn set_audit(&mut self, audit: Option<Box<InvariantAuditor>>) {
        self.0.set_audit(audit);
    }
    pub fn set_health(&mut self, health: Option<Box<HealthObservatory>>) {
        self.0.set_health(health);
    }
}

impl SegmentFilter for SecondaryBridge {
    fn on_outbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput) {
        self.0.on_outbound_into(seg, now_nanos, out);
    }
    fn on_inbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput) {
        self.0.on_inbound_into(seg, now_nanos, out);
    }
    fn on_tick(&mut self, now_nanos: u64) {
        self.0.on_tick(now_nanos);
    }
    fn designate(&mut self, rule: FailoverRule) {
        self.0.designate(rule);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tcpfo_wire::tcp::{verify_segment_checksum, SegmentPatcher, TcpFlags, TcpSegment};

    const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);

    fn tail(config: FailoverConfig) -> PrimaryBridge {
        PrimaryBridge::link(A_P, A_S, Some(A_P), None, config)
    }

    fn bridge() -> PrimaryBridge {
        let mut b = tail(FailoverConfig::from_ports([80]));
        // Witness the connection's SYN so non-SYN ingress is claimed
        // (the join gate).
        let syn = TcpSegment::builder(51000, 80)
            .seq(99)
            .flags(TcpFlags::SYN)
            .build();
        let _ = b.on_inbound(
            AddressedSegment::new(A_C, A_P, syn.encode(A_C, A_P).to_vec()),
            0,
        );
        b
    }

    fn client_segment() -> AddressedSegment {
        let seg = TcpSegment::builder(51000, 80)
            .seq(100)
            .ack(200)
            .window(4000)
            .payload(Bytes::from_static(b"GET /"))
            .build();
        AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec())
    }

    fn server_reply_from(src: Ipv4Addr) -> AddressedSegment {
        let seg = TcpSegment::builder(80, 51000)
            .seq(200)
            .ack(105)
            .window(8000)
            .payload(Bytes::from_static(b"200 OK"))
            .build();
        AddressedSegment::new(src, A_C, seg.encode(src, A_C).to_vec())
    }

    fn server_reply() -> AddressedSegment {
        server_reply_from(A_S)
    }

    #[test]
    fn ingress_rewrites_ap_to_as_with_valid_checksum() {
        let mut b = bridge();
        let out = b.on_inbound(client_segment(), 0);
        assert_eq!(out.to_tcp.len(), 1);
        let seg = &out.to_tcp[0];
        assert_eq!(seg.dst, A_S, "destination translated to the secondary");
        assert_eq!(seg.src, A_C);
        assert!(verify_segment_checksum(seg.src, seg.dst, &seg.bytes));
        assert_eq!(
            b.stats.ingress_rewrites, 2,
            "the witnessed SYN plus the data segment"
        );
    }

    #[test]
    fn egress_diverts_to_primary_with_orig_dest() {
        let mut b = bridge();
        let out = b.on_outbound(server_reply(), 0);
        assert_eq!(out.to_wire.len(), 1);
        let seg = &out.to_wire[0];
        assert_eq!(seg.dst, A_P, "diverted to the primary");
        assert!(verify_segment_checksum(seg.src, seg.dst, &seg.bytes));
        let parsed = TcpSegment::decode(&seg.bytes).unwrap();
        assert_eq!(parsed.orig_dest(), Some((A_C, 51000)));
        assert_eq!(parsed.payload, Bytes::from_static(b"200 OK"));
        assert_eq!(b.stats.diverted_upstream, 1);
    }

    #[test]
    fn non_failover_traffic_passes_untouched() {
        let mut b = bridge();
        // Port 9999 is not designated.
        let seg = TcpSegment::builder(1234, 9999).seq(1).build();
        let raw = AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec());
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw]);
        let seg2 = TcpSegment::builder(9999, 1234).seq(1).build();
        let raw2 = AddressedSegment::new(A_S, A_C, seg2.encode(A_S, A_C).to_vec());
        let out2 = b.on_outbound(raw2.clone(), 0);
        assert_eq!(out2.to_wire, vec![raw2]);
    }

    #[test]
    fn traffic_to_other_hosts_untouched() {
        let mut b = bridge();
        // Addressed to a third host, snooped promiscuously.
        let seg = TcpSegment::builder(51000, 80).seq(1).build();
        let other = Ipv4Addr::new(10, 0, 0, 50);
        let raw = AddressedSegment::new(A_C, other, seg.encode(A_C, other).to_vec());
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw], "dst != a_p is ignored");
    }

    #[test]
    fn disabled_bridge_is_transparent() {
        // §5 with nobody below: the tail's TCBs are re-keyed to the VIP
        // and the bridge passes both directions through untouched.
        let mut b = bridge();
        assert_eq!(b.promote_to_head(0), Some(A_S), "re-key own → vip");
        assert!(b.is_head());
        let raw = client_segment();
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw], "a_p→a_s translation disabled");
        let reply = server_reply_from(A_P);
        let out2 = b.on_outbound(reply.clone(), 0);
        assert_eq!(out2.to_wire, vec![reply], "a_c→a_p translation disabled");
    }

    #[test]
    fn socket_option_designation() {
        let mut b = tail(FailoverConfig::new());
        // Not designated yet.
        let out = b.on_inbound(client_segment(), 0);
        assert_eq!(out.to_tcp[0].dst, A_P);
        // Designate via the tuple rule (as the stack would).
        b.designate(FailoverRule::Tuple(tcpfo_tcp::types::FourTuple::new(
            tcpfo_tcp::types::SocketAddr::new(A_S, 80),
            tcpfo_tcp::types::SocketAddr::new(A_C, 51000),
        )));
        // Witness the SYN, then data is claimed.
        let syn = TcpSegment::builder(51000, 80)
            .seq(99)
            .flags(TcpFlags::SYN)
            .build();
        let _ = b.on_inbound(
            AddressedSegment::new(A_C, A_P, syn.encode(A_C, A_P).to_vec()),
            0,
        );
        let out2 = b.on_inbound(client_segment(), 0);
        assert_eq!(out2.to_tcp[0].dst, A_S);
    }

    #[test]
    fn unwitnessed_connection_is_not_claimed() {
        // A freshly restarted secondary must not claim (and RST) a
        // connection established before it booted: the §8 gate drops
        // the segment — never translate, never deliver to the stack.
        let mut b = tail(FailoverConfig::from_ports([80]));
        let raw = client_segment(); // data, no SYN ever seen
        let out = b.on_inbound(raw, 0);
        assert!(out.to_tcp.is_empty(), "must drop, not deliver");
        assert_eq!(b.stats.unwitnessed_dropped, 1);
        assert_eq!(b.stats.ingress_rewrites, 0);
    }

    #[test]
    fn round_trip_restores_original_bytes() {
        // divert then strip must reproduce the original segment — the
        // primary bridge relies on this for payload matching.
        let mut b = bridge();
        let original = server_reply();
        let out = b.on_outbound(original.clone(), 0);
        let diverted = &out.to_wire[0];
        let mut p = SegmentPatcher::new(diverted.bytes.clone(), diverted.src, diverted.dst);
        let stripped = p.strip_orig_dest_option();
        p.set_pseudo_dst(A_C);
        let (bytes, src, dst) = p.finish();
        assert_eq!(stripped, Some((A_C, 51000)));
        assert_eq!((src, dst), (A_S, A_C));
        assert_eq!(bytes, original.bytes);
    }
}
