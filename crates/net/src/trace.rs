//! Packet traces for debugging and assertions.

use crate::sim::NodeId;
use crate::time::SimTime;
use bytes::Bytes;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::Ipv4Packet;
use tcpfo_wire::pcapng::PcapngWriter;
use tcpfo_wire::tcp::TcpView;

/// What happened at a trace point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// Device transmitted a frame out of `port`.
    Tx {
        /// Egress port.
        port: usize,
    },
    /// Device received a frame on `port`.
    Rx {
        /// Ingress port.
        port: usize,
    },
    /// Frame dropped: random link loss.
    DropLoss {
        /// Egress port.
        port: usize,
    },
    /// Frame dropped: drop-tail queue bound exceeded.
    DropQueueFull {
        /// Egress port.
        port: usize,
    },
    /// Frame dropped: port has no wire.
    DropNoWire {
        /// Egress port.
        port: usize,
    },
    /// Frame taken back before it left the device: its `Tx` entry,
    /// stamped ahead at hand-off, did not happen.
    Withdrawn {
        /// Egress port.
        port: usize,
    },
    /// Free-form device annotation.
    Note(String),
}

/// One entry of the simulator's packet trace.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Which device.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
    /// The frame involved, if any.
    pub frame: Option<Bytes>,
}

impl TraceEntry {
    /// Best-effort one-line human summary (decodes Ethernet/IPv4/TCP).
    pub fn summary(&self) -> String {
        let head = format!("{} node{} {:?}", self.at, self.node, self.kind);
        let Some(frame) = &self.frame else {
            return head;
        };
        match EthernetFrame::decode_shared(frame.clone()) {
            Ok(eth) => {
                let detail = match eth.ethertype {
                    EtherType::Ipv4 => match Ipv4Packet::decode_shared(eth.payload) {
                        Ok(ip) => {
                            let tcp = TcpView::new(&ip.payload)
                                .map(|v| {
                                    format!(
                                        " tcp {}→{} seq={} ack={} len={} [{}]",
                                        v.src_port(),
                                        v.dst_port(),
                                        v.seq(),
                                        v.ack(),
                                        v.payload().len(),
                                        v.flags()
                                    )
                                })
                                .unwrap_or_default();
                            format!("ip {}→{} proto={}{}", ip.src, ip.dst, ip.protocol, tcp)
                        }
                        Err(e) => format!("bad ip: {e}"),
                    },
                    EtherType::Arp => "arp".to_string(),
                    EtherType::Other(v) => format!("ethertype {v:#06x}"),
                };
                format!("{head} {}→{} {detail}", eth.src, eth.dst)
            }
            Err(e) => format!("{head} bad frame: {e}"),
        }
    }
}

/// Converts a trace to a pcapng capture openable in Wireshark/tshark.
///
/// Only entries carrying frames are captured. By default that includes
/// both the Tx and Rx record of every hop; pass a `filter` to restrict
/// it (e.g. `|e| matches!(e.kind, TraceKind::Rx { .. }) && e.node == client`
/// for "what the client's NIC saw"). Each packet carries the node and
/// direction as a Wireshark packet comment.
pub fn to_pcapng(entries: &[TraceEntry], filter: impl Fn(&TraceEntry) -> bool) -> Vec<u8> {
    let mut w = PcapngWriter::new("sim0");
    for e in entries {
        let Some(frame) = &e.frame else { continue };
        if !filter(e) {
            continue;
        }
        let mut comment = format!("node{} {:?}", e.node, e.kind);
        // Annotate the diverted S→P failover leg: a TCP segment still
        // carrying the bridge's original-destination option is the
        // secondary's output in flight toward the primary's merge.
        if let Some((ip, port)) = orig_dest_of(frame) {
            comment.push_str(&format!(" diverted S→P leg, orig-dest={ip}:{port}"));
        }
        w.packet_with_comment(e.at.as_nanos(), frame, Some(&comment));
    }
    w.finish()
}

/// The original-destination option of the TCP segment inside `frame`,
/// if the frame is Ethernet/IPv4/TCP and the option is present.
fn orig_dest_of(frame: &Bytes) -> Option<(tcpfo_wire::ipv4::Ipv4Addr, u16)> {
    let eth = EthernetFrame::decode_shared(frame.clone()).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::decode_shared(eth.payload).ok()?;
    tcpfo_wire::tcp::peek_orig_dest(&ip.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tcpfo_wire::ipv4::{Ipv4Addr, PROTO_TCP};
    use tcpfo_wire::mac::MacAddr;
    use tcpfo_wire::tcp::TcpSegment;

    #[test]
    fn summary_decodes_nested_layers() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let seg = TcpSegment::builder(1111, 80)
            .seq(5)
            .ack(6)
            .payload(Bytes::from_static(b"xyz"))
            .build();
        let ip = Ipv4Packet::new(src, dst, PROTO_TCP, seg.encode(src, dst));
        let eth = EthernetFrame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            ip.encode(),
        );
        let entry = TraceEntry {
            at: SimTime::ZERO,
            node: 0,
            kind: TraceKind::Tx { port: 0 },
            frame: Some(eth.encode()),
        };
        let s = entry.summary();
        assert!(s.contains("10.0.0.1→10.0.0.2"), "{s}");
        assert!(s.contains("1111→80"), "{s}");
        assert!(s.contains("len=3"), "{s}");
    }

    #[test]
    fn pcapng_round_trips_traced_frames() {
        let frame = Bytes::from_static(&[0u8; 14]);
        let entries = vec![
            TraceEntry {
                at: SimTime::from_nanos(5),
                node: 1,
                kind: TraceKind::Tx { port: 0 },
                frame: Some(frame.clone()),
            },
            TraceEntry {
                at: SimTime::from_nanos(9),
                node: 2,
                kind: TraceKind::Note("no frame".into()),
                frame: None,
            },
            TraceEntry {
                at: SimTime::from_nanos(12),
                node: 2,
                kind: TraceKind::Rx { port: 3 },
                frame: Some(frame.clone()),
            },
            TraceEntry {
                at: SimTime::from_nanos(13),
                node: 1,
                kind: TraceKind::Withdrawn { port: 0 },
                frame: Some(frame.clone()),
            },
        ];
        let file = to_pcapng(&entries, |_| true);
        let back = tcpfo_wire::pcapng::read_packets(&file).expect("well-formed");
        assert_eq!(back.len(), 3, "frameless entries are skipped");
        assert_eq!(back[0].ts_ns, 5);
        assert_eq!(back[1].ts_ns, 12);
        assert!(entries[3].summary().contains("Withdrawn"), "labelled");
        // The testbeds' captures ask for `Tx` or `Rx` records only.
        let tx_only = to_pcapng(&entries, |e| matches!(e.kind, TraceKind::Tx { .. }));
        assert_eq!(tcpfo_wire::pcapng::read_packets(&tx_only).unwrap().len(), 1);
        let rx_only = to_pcapng(&entries, |e| matches!(e.kind, TraceKind::Rx { .. }));
        assert_eq!(tcpfo_wire::pcapng::read_packets(&rx_only).unwrap().len(), 1);
    }

    #[test]
    fn summary_without_frame() {
        let entry = TraceEntry {
            at: SimTime::ZERO,
            node: 3,
            kind: TraceKind::Note("hello".into()),
            frame: None,
        };
        assert!(entry.summary().contains("hello"));
    }
}
