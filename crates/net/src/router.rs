//! An IP router.
//!
//! Routers "work at the IP layer and, therefore, have no knowledge of
//! TCP" (§2). This one forwards IPv4 datagrams between its interfaces,
//! runs ARP on each interface, and — crucially for the failover story —
//! updates its ARP table when it hears a **gratuitous ARP**, which is
//! how the secondary's IP takeover (§5, step 5) redirects the client's
//! datagrams for `a_p` to the secondary's MAC. The window between the
//! primary's failure and that update is the paper's interval `T`.

use crate::neighbour::NeighbourTable;
use crate::sim::{Ctx, Device, TimerToken};
use crate::time::SimDuration;
use bytes::Bytes;
use std::any::Any;
use tcpfo_wire::arp::ArpPacket;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::{same_network, Ipv4Addr, Ipv4Packet};
use tcpfo_wire::mac::MacAddr;

/// One router interface (attached to port `index` of the device).
#[derive(Debug, Clone)]
pub struct Interface {
    /// Interface MAC address.
    pub mac: MacAddr,
    /// Interface IP address.
    pub ip: Ipv4Addr,
    /// Prefix length of the directly-connected network.
    pub prefix_len: u8,
}

/// A static route.
#[derive(Debug, Clone)]
pub struct Route {
    /// Destination network.
    pub network: Ipv4Addr,
    /// Destination prefix length.
    pub prefix_len: u8,
    /// Egress interface index.
    pub interface: usize,
    /// Next-hop IP, or `None` when the destination is on-link.
    pub next_hop: Option<Ipv4Addr>,
}

/// A store-and-forward IPv4 router with per-interface ARP.
pub struct Router {
    label: String,
    interfaces: Vec<Interface>,
    routes: Vec<Route>,
    neighbours: NeighbourTable,
    forwarding_delay: SimDuration,
    forwarded: u64,
    dropped: u64,
}

impl Router {
    /// Creates a router. Directly-connected routes are derived from the
    /// interfaces automatically; add more with [`Router::add_route`].
    pub fn new(label: &str, interfaces: Vec<Interface>, forwarding_delay: SimDuration) -> Self {
        let routes = interfaces
            .iter()
            .enumerate()
            .map(|(i, iface)| Route {
                network: iface.ip,
                prefix_len: iface.prefix_len,
                interface: i,
                next_hop: None,
            })
            .collect();
        Router {
            label: label.to_string(),
            interfaces,
            routes,
            neighbours: NeighbourTable::default(),
            forwarding_delay,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Adds a static route.
    pub fn add_route(&mut self, route: Route) {
        self.routes.push(route);
    }

    /// Datagrams forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Datagrams dropped (no route, TTL expiry, pending overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped + self.neighbours.dropped()
    }

    /// The MAC currently cached for `ip`, if any (used by tests to
    /// observe the takeover window `T`).
    pub fn cached_mac(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.neighbours.mac(ip)
    }

    /// Pre-populates the ARP cache ("we made sure that the MAC
    /// addresses of all nodes were present in the ARP caches", §9). A
    /// datagram leaves by its route's interface.
    pub fn prime_arp(&mut self, ip: Ipv4Addr, _interface: usize, mac: MacAddr) {
        self.neighbours.insert(ip, mac);
    }

    fn lookup_route(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.routes
            .iter()
            .filter(|r| same_network(dst, r.network, r.prefix_len))
            .max_by_key(|r| r.prefix_len)
    }

    fn emit_ip(
        &mut self,
        iface_idx: usize,
        dst_mac: MacAddr,
        packet: &Ipv4Packet,
        ctx: &mut Ctx<'_>,
    ) {
        let frame = packet.encode_framed(dst_mac, self.interfaces[iface_idx].mac);
        self.forwarded += 1;
        ctx.transmit_delayed(iface_idx, frame, self.forwarding_delay);
    }

    fn forward(&mut self, mut packet: Ipv4Packet, ctx: &mut Ctx<'_>) {
        if packet.ttl <= 1 {
            self.dropped += 1;
            return;
        }
        packet.ttl -= 1;
        let Some(route) = self.lookup_route(packet.dst) else {
            self.dropped += 1;
            return;
        };
        let iface_idx = route.interface;
        let next_hop = route.next_hop.unwrap_or(packet.dst);
        match self.neighbours.mac(next_hop) {
            Some(mac) => self.emit_ip(iface_idx, mac, &packet, ctx),
            None => {
                let iface = &self.interfaces[iface_idx];
                let request = self.neighbours.park(next_hop, packet, iface.mac, iface.ip);
                ctx.transmit(iface_idx, request);
            }
        }
    }
}

impl Device for Router {
    fn label(&self) -> &str {
        &self.label
    }

    fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
        let Ok(eth) = EthernetFrame::decode_shared(frame) else {
            return;
        };
        let iface_mac = self.interfaces[port].mac;
        if eth.dst != iface_mac && !eth.dst.is_broadcast() {
            return; // not for us (routers are not promiscuous)
        }
        match eth.ethertype {
            EtherType::Arp => {
                if let Ok(arp) = ArpPacket::decode(&eth.payload) {
                    let owned = [self.interfaces[port].ip];
                    let (parked, reply) = self.neighbours.on_arp(&arp, iface_mac, &owned);
                    for pkt in parked {
                        self.emit_ip(port, arp.sender_mac, &pkt, ctx);
                    }
                    if let Some(reply) = reply {
                        ctx.transmit(port, reply);
                    }
                }
            }
            EtherType::Ipv4 => {
                if let Ok(packet) = Ipv4Packet::decode_shared(eth.payload) {
                    if self.interfaces.iter().any(|i| i.ip == packet.dst) {
                        // Locally addressed datagrams have no consumer
                        // in this reproduction; drop.
                        self.dropped += 1;
                    } else {
                        self.forward(packet, ctx);
                    }
                }
            }
            EtherType::Other(_) => {}
        }
    }

    fn handle_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx<'_>) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::sim::{NodeId, Simulator};
    use tcpfo_wire::arp::ArpOp;
    use tcpfo_wire::ipv4::PROTO_TCP;

    struct Host {
        label: String,
        mac: MacAddr,
        ip: Ipv4Addr,
        received: Vec<Ipv4Packet>,
        arp_replies_sent: u32,
    }

    impl Host {
        fn new(label: &str, mac: MacAddr, ip: Ipv4Addr) -> Self {
            Host {
                label: label.to_string(),
                mac,
                ip,
                received: Vec::new(),
                arp_replies_sent: 0,
            }
        }
    }

    impl Device for Host {
        fn label(&self) -> &str {
            &self.label
        }
        fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
            let eth = EthernetFrame::decode(&frame).unwrap();
            if eth.dst != self.mac && !eth.dst.is_broadcast() {
                return;
            }
            match eth.ethertype {
                EtherType::Arp => {
                    let arp = ArpPacket::decode(&eth.payload).unwrap();
                    if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                        let reply =
                            ArpPacket::reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip);
                        let f = EthernetFrame::new(
                            arp.sender_mac,
                            self.mac,
                            EtherType::Arp,
                            reply.encode(),
                        );
                        self.arp_replies_sent += 1;
                        ctx.transmit(port, f.encode());
                    }
                }
                EtherType::Ipv4 => {
                    self.received
                        .push(Ipv4Packet::decode(&eth.payload).unwrap());
                }
                _ => {}
            }
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// client --(if0)-- router --(if1)-- server
    fn topology() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(5);
        let router = sim.add_device(Box::new(Router::new(
            "r",
            vec![
                Interface {
                    mac: MacAddr::from_index(100),
                    ip: Ipv4Addr::new(192, 168, 0, 1),
                    prefix_len: 24,
                },
                Interface {
                    mac: MacAddr::from_index(101),
                    ip: Ipv4Addr::new(10, 0, 0, 1),
                    prefix_len: 24,
                },
            ],
            SimDuration::from_micros(10),
        )));
        let client = sim.add_device(Box::new(Host::new(
            "c",
            MacAddr::from_index(1),
            Ipv4Addr::new(192, 168, 0, 9),
        )));
        let server = sim.add_device(Box::new(Host::new(
            "s",
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 7),
        )));
        sim.connect((router, 0), (client, 0), LinkParams::fast_ethernet());
        sim.connect((router, 1), (server, 0), LinkParams::fast_ethernet());
        (sim, router, client, server)
    }

    fn datagram(src: Ipv4Addr, dst: Ipv4Addr) -> Ipv4Packet {
        Ipv4Packet::new(src, dst, PROTO_TCP, Bytes::from_static(b"data"))
    }

    #[test]
    fn forwards_after_arp_resolution() {
        let (mut sim, router, client, server) = topology();
        let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Host, _>(server, |h, _| {
            assert_eq!(h.received.len(), 1);
            assert_eq!(h.received[0].payload, Bytes::from_static(b"data"));
            assert_eq!(h.received[0].ttl, tcpfo_wire::ipv4::DEFAULT_TTL - 1);
            assert_eq!(h.arp_replies_sent, 1);
        });
        sim.with::<Router, _>(router, |r, _| {
            assert_eq!(r.forwarded(), 1);
            assert!(r.cached_mac(Ipv4Addr::new(10, 0, 0, 7)).is_some());
        });
    }

    #[test]
    fn primed_arp_skips_resolution() {
        let (mut sim, router, client, server) = topology();
        sim.with::<Router, _>(router, |r, _| {
            r.prime_arp(Ipv4Addr::new(10, 0, 0, 7), 1, MacAddr::from_index(2));
        });
        let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Host, _>(server, |h, _| {
            assert_eq!(h.received.len(), 1);
            assert_eq!(h.arp_replies_sent, 0, "no ARP needed");
        });
    }

    #[test]
    fn gratuitous_arp_redirects_subsequent_traffic() {
        // The IP-takeover mechanism: after a gratuitous ARP for the
        // server's IP from a *different* MAC, traffic flows to that MAC.
        let (mut sim, router, client, server) = topology();
        // Add a second host on the server-side interface... reuse the
        // same wire is impossible, so simulate takeover by the server
        // announcing a new MAC for its own IP and verifying the router
        // cache updates.
        sim.with::<Router, _>(router, |r, _| {
            r.prime_arp(Ipv4Addr::new(10, 0, 0, 7), 1, MacAddr::from_index(2));
        });
        let new_mac = MacAddr::from_index(77);
        sim.with::<Host, _>(server, |h, ctx| {
            let g = ArpPacket::gratuitous(new_mac, h.ip);
            let f = EthernetFrame::new(MacAddr::BROADCAST, new_mac, EtherType::Arp, g.encode());
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(100);
        sim.with::<Router, _>(router, |r, _| {
            assert_eq!(r.cached_mac(Ipv4Addr::new(10, 0, 0, 7)), Some(new_mac));
        });
        // A datagram from the client is now framed to the new MAC; our
        // server host (still at the old MAC) filters it out.
        let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Host, _>(server, |h, _| assert!(h.received.is_empty()));
    }

    #[test]
    fn ttl_expiry_drops() {
        let (mut sim, router, client, server) = topology();
        let mut pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
        pkt.ttl = 1;
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Host, _>(server, |h, _| assert!(h.received.is_empty()));
        sim.with::<Router, _>(router, |r, _| assert_eq!(r.dropped(), 1));
    }

    #[test]
    fn no_route_drops() {
        let (mut sim, router, client, _server) = topology();
        let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(172, 16, 0, 1));
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Router, _>(router, |r, _| assert_eq!(r.dropped(), 1));
    }

    #[test]
    fn pending_queue_bounded_when_next_hop_unresolvable() {
        // The server host never answers ARP (killed): parked datagrams
        // must be bounded, surplus counted as drops.
        let (mut sim, router, client, server) = topology();
        sim.kill(server);
        for _ in 0..40 {
            let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
            sim.with::<Host, _>(client, |h, ctx| {
                let f = EthernetFrame::new(
                    MacAddr::from_index(100),
                    h.mac,
                    EtherType::Ipv4,
                    pkt.encode(),
                );
                ctx.transmit(0, f.encode());
            });
            sim.run_until_idle(100);
        }
        sim.with::<Router, _>(router, |r, _| {
            assert!(r.dropped() >= 24, "dropped {}", r.dropped());
            assert_eq!(r.forwarded(), 0);
        });
    }

    #[test]
    fn longest_prefix_match_wins() {
        let (mut sim, router, client, server) = topology();
        sim.with::<Router, _>(router, |r, _| {
            // A default route pointing back at the client side; the more
            // specific connected /24 must still win for 10.0.0.7.
            r.add_route(Route {
                network: Ipv4Addr::new(0, 0, 0, 0),
                prefix_len: 0,
                interface: 0,
                next_hop: Some(Ipv4Addr::new(192, 168, 0, 9)),
            });
        });
        let pkt = datagram(Ipv4Addr::new(192, 168, 0, 9), Ipv4Addr::new(10, 0, 0, 7));
        sim.with::<Host, _>(client, |h, ctx| {
            let f = EthernetFrame::new(
                MacAddr::from_index(100),
                h.mac,
                EtherType::Ipv4,
                pkt.encode(),
            );
            ctx.transmit(0, f.encode());
        });
        sim.run_until_idle(1000);
        sim.with::<Host, _>(server, |h, _| assert_eq!(h.received.len(), 1));
    }
}
