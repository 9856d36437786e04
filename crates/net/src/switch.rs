//! A learning Ethernet switch.
//!
//! Included for the ablation experiment E8 (`DESIGN.md`): on a switched
//! segment, unicast client traffic to the primary is *not* visible to
//! the secondary's promiscuous NIC, so the paper's snooping design
//! requires the shared segment modelled by [`crate::hub::Hub`] (or port
//! mirroring, which real deployments would configure).
//!
//! Attach devices with per-port full-duplex links (e.g.
//! [`crate::link::LinkParams::fast_ethernet`]); the switch forwards
//! store-and-forward with MAC learning and floods unknown/broadcast
//! destinations.

use crate::sim::{Ctx, Device, TimerToken};
use bytes::Bytes;
use std::any::Any;
use std::collections::HashMap;
use tcpfo_wire::eth::EthernetFrame;
use tcpfo_wire::mac::MacAddr;

/// A store-and-forward learning switch.
pub struct Switch {
    label: String,
    ports: usize,
    table: HashMap<MacAddr, usize>,
    flooded: u64,
    forwarded: u64,
}

impl Switch {
    /// Creates a switch with the given number of ports.
    pub fn new(label: &str, ports: usize) -> Self {
        Switch {
            label: label.to_string(),
            ports,
            table: HashMap::new(),
            flooded: 0,
            forwarded: 0,
        }
    }

    /// Adds a port; returns its number.
    pub fn add_port(&mut self) -> usize {
        self.ports += 1;
        self.ports - 1
    }

    /// Number of frames flooded (unknown destination or broadcast).
    pub fn flooded(&self) -> u64 {
        self.flooded
    }

    /// Number of frames forwarded to a learned port.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// The learned MAC table (for tests).
    pub fn mac_table(&self) -> &HashMap<MacAddr, usize> {
        &self.table
    }
}

impl Device for Switch {
    fn label(&self) -> &str {
        &self.label
    }

    fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
        let Ok(eth) = EthernetFrame::decode_shared(frame.clone()) else {
            return; // unparseable frames are dropped
        };
        if !eth.src.is_multicast() {
            self.table.insert(eth.src, port);
        }
        match self.table.get(&eth.dst) {
            Some(&out) if !eth.dst.is_multicast() => {
                if out != port {
                    self.forwarded += 1;
                    ctx.transmit(out, frame);
                }
                // Frames "to" the ingress port are filtered — this is
                // exactly what defeats promiscuous snooping.
            }
            _ => {
                self.flooded += 1;
                for out in 0..self.ports {
                    if out != port {
                        ctx.transmit(out, frame.clone());
                    }
                }
            }
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
    use tcpfo_wire::eth::EtherType;

    struct Sink {
        label: String,
        mac: MacAddr,
        seen: Vec<EthernetFrame>,
    }

    impl Device for Sink {
        fn label(&self) -> &str {
            &self.label
        }
        fn handle_frame(&mut self, _port: usize, frame: Bytes, _ctx: &mut Ctx<'_>) {
            self.seen.push(EthernetFrame::decode(&frame).unwrap());
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup(n: usize) -> (Simulator, NodeId, Vec<NodeId>, Vec<MacAddr>) {
        let mut sim = Simulator::new(3);
        let sw = sim.add_device(Box::new(Switch::new("sw", n)));
        let mut ids = Vec::new();
        let mut macs = Vec::new();
        for i in 0..n {
            let mac = MacAddr::from_index(i as u32 + 1);
            let id = sim.add_device(Box::new(Sink {
                label: format!("h{i}"),
                mac,
                seen: Vec::new(),
            }));
            sim.connect((sw, i), (id, 0), LinkParams::fast_ethernet());
            ids.push(id);
            macs.push(mac);
        }
        (sim, sw, ids, macs)
    }

    fn frame(src: MacAddr, dst: MacAddr) -> Bytes {
        EthernetFrame::new(dst, src, EtherType::Other(0x9999), Bytes::from_static(b"p")).encode()
    }

    #[test]
    fn floods_unknown_then_learns() {
        let (mut sim, sw, ids, macs) = setup(3);
        // h0 -> h2: unknown, flooded to h1 and h2.
        sim.with::<Sink, _>(ids[0], |s, ctx| {
            let f = frame(s.mac, macs[2]);
            ctx.transmit(0, f);
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(ids[1], |s, _| assert_eq!(s.seen.len(), 1));
        sim.with::<Sink, _>(ids[2], |s, _| assert_eq!(s.seen.len(), 1));
        // h2 -> h0: h0 was learned, so h1 sees nothing new.
        sim.with::<Sink, _>(ids[2], |s, ctx| {
            let f = frame(s.mac, macs[0]);
            ctx.transmit(0, f);
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(ids[1], |s, _| {
            assert_eq!(s.seen.len(), 1, "unicast not flooded")
        });
        sim.with::<Sink, _>(ids[0], |s, _| assert_eq!(s.seen.len(), 1));
        sim.with::<Switch, _>(sw, |s, _| {
            assert_eq!(s.flooded(), 1);
            assert_eq!(s.forwarded(), 1);
            assert_eq!(s.mac_table().len(), 2);
        });
    }

    #[test]
    fn broadcast_always_floods() {
        let (mut sim, _sw, ids, _macs) = setup(3);
        sim.with::<Sink, _>(ids[0], |s, ctx| {
            let f = frame(s.mac, MacAddr::BROADCAST);
            ctx.transmit(0, f);
        });
        sim.run_until_idle(100);
        for &id in &ids[1..] {
            sim.with::<Sink, _>(id, |s, _| assert_eq!(s.seen.len(), 1));
        }
    }

    #[test]
    fn unicast_between_two_hosts_invisible_to_third() {
        // The property that breaks promiscuous snooping on a switch.
        let (mut sim, _sw, ids, macs) = setup(3);
        // Teach the switch where h1 lives.
        sim.with::<Sink, _>(ids[1], |s, ctx| {
            let f = frame(s.mac, MacAddr::BROADCAST);
            ctx.transmit(0, f);
        });
        sim.run_until_idle(100);
        // h0 -> h1 unicast: h2 must not see it.
        sim.with::<Sink, _>(ids[0], |s, ctx| {
            let f = frame(s.mac, macs[1]);
            ctx.transmit(0, f);
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(ids[2], |s, _| {
            assert!(
                s.seen.iter().all(|f| f.dst == MacAddr::BROADCAST),
                "snooper saw unicast on a switch"
            );
        });
    }
}
