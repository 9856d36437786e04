//! The ARP neighbour table the router and every host resolve next hops
//! with. Every ARP packet a device processes teaches the sender's
//! mapping, so a gratuitous ARP moves an address (the IP takeover of
//! §5); parked datagrams leave in order once their next hop answers; a
//! request for one of the device's addresses is answered from that
//! address. What a device filters before the table and how it emits a
//! datagram stay the device's own.

use bytes::Bytes;
use std::collections::VecDeque;
use tcpfo_wire::arp::{ArpOp, ArpPacket};
use tcpfo_wire::hash::FastMap;
use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet};
use tcpfo_wire::mac::MacAddr;

/// Datagrams parked per unresolved next hop. Past it the oldest is
/// dropped and counted in [`NeighbourTable::dropped`].
const PARK_LIMIT: usize = 16;

/// An ARP cache with the datagrams parked on its unresolved entries.
#[derive(Debug, Default)]
pub struct NeighbourTable {
    macs: FastMap<Ipv4Addr, MacAddr>,
    parked: FastMap<Ipv4Addr, VecDeque<Ipv4Packet>>,
    dropped: u64,
}

impl NeighbourTable {
    /// The MAC cached for `ip`, if any.
    pub fn mac(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.macs.get(&ip).copied()
    }

    /// Caches `ip` at `mac`.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.macs.insert(ip, mac);
    }

    /// Parked datagrams dropped because their next hop's queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Parks `datagram` until `next_hop` resolves and returns the
    /// broadcast who-has frame to send from `(mac, ip)`. A full queue
    /// drops its oldest datagram.
    pub fn park(
        &mut self,
        next_hop: Ipv4Addr,
        datagram: Ipv4Packet,
        mac: MacAddr,
        ip: Ipv4Addr,
    ) -> Bytes {
        let queue = self.parked.entry(next_hop).or_default();
        if queue.len() >= PARK_LIMIT {
            queue.pop_front();
            self.dropped += 1;
        }
        queue.push_back(datagram);
        ArpPacket::request(mac, ip, next_hop).encode_framed(MacAddr::BROADCAST, mac)
    }

    /// Processes one ARP packet heard by a device at `mac` that owns the
    /// addresses `owned`. Learns the sender's mapping and returns
    /// the datagrams parked on it, in order, for the device to emit to
    /// `arp.sender_mac`, and then the reply frame to send when the
    /// packet asks for an owned address.
    pub fn on_arp(
        &mut self,
        arp: &ArpPacket,
        mac: MacAddr,
        owned: &[Ipv4Addr],
    ) -> (VecDeque<Ipv4Packet>, Option<Bytes>) {
        self.macs.insert(arp.sender_ip, arp.sender_mac);
        let parked = self.parked.remove(&arp.sender_ip).unwrap_or_default();
        let reply = (arp.op == ArpOp::Request && owned.contains(&arp.target_ip)).then(|| {
            ArpPacket::reply(mac, arp.target_ip, arp.sender_mac, arp.sender_ip)
                .encode_framed(arp.sender_mac, mac)
        });
        (parked, reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

    #[test]
    fn only_a_request_for_an_owned_address_is_answered_from_that_address() {
        let mut t = NeighbourTable::default();
        let (me, asker) = (MacAddr::from_index(1), MacAddr::from_index(7));
        let vip = Ipv4Addr::new(10, 0, 0, 9);
        let request = ArpPacket::request(asker, HOP, vip);
        let (_, reply) = t.on_arp(&request, me, &[ME, vip]);
        let expected = ArpPacket::reply(me, vip, asker, HOP).encode_framed(asker, me);
        assert_eq!(reply, Some(expected));
        assert_eq!(t.on_arp(&request, me, &[ME]).1, None);
        let announce = ArpPacket::gratuitous(asker, vip);
        assert_eq!(t.on_arp(&announce, me, &[vip]).1, None);
        assert_eq!(t.mac(vip), Some(asker), "a gratuitous ARP teaches too");
    }
}
