//! A shared-medium Ethernet hub.
//!
//! The paper's testbed places the primary, the secondary and the router
//! on one 100 Mb/s **shared** Ethernet segment: this is what lets the
//! secondary's promiscuous NIC snoop every client datagram (§3.1), and
//! it is also why the failover configuration roughly halves
//! server→client throughput (Fig. 5) — every reply crosses the segment
//! twice (S→P diverted, then P→C merged) and competes for the same
//! medium.
//!
//! The hub models that medium: frames arriving on any port are
//! serialised one at a time at the medium bandwidth and then delivered
//! to *all other* ports. Attach devices with [`LinkParams::attachment`]
//! so the medium, not the attachment wire, charges serialisation.
//!
//! [`LinkParams::attachment`]: crate::link::LinkParams::attachment

use crate::sim::{Ctx, Device, TimerToken};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::any::Any;
use std::collections::VecDeque;

/// Maximum frames queued for the medium before drop-tail.
const MEDIUM_QUEUE_LIMIT: usize = 512;

/// A shared-bus hub with `ports` attachment points.
pub struct Hub {
    label: String,
    ports: usize,
    bandwidth_bps: u64,
    /// Frames waiting for the medium, with their ingress port.
    queue: VecDeque<(usize, Bytes)>,
    /// Medium occupied until this instant.
    busy_until: SimTime,
    /// Statistics: frames forwarded.
    forwarded: u64,
    /// Statistics: frames dropped at the medium queue.
    dropped: u64,
}

/// Timer token used internally to mark end-of-transmission.
const TOKEN_MEDIUM_FREE: TimerToken = TimerToken(u64::MAX - 1);

impl Hub {
    /// Creates a hub with the given number of ports and medium
    /// bandwidth in bits/s (100 Mb/s in the paper's testbed).
    pub fn new(label: &str, ports: usize, bandwidth_bps: u64) -> Self {
        Hub {
            label: label.to_string(),
            ports,
            bandwidth_bps,
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Adds an attachment point; returns its port number.
    pub fn add_port(&mut self) -> usize {
        self.ports += 1;
        self.ports - 1
    }

    /// Frames successfully repeated onto the medium.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames dropped because the medium queue overflowed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // Start transmissions for as long as the medium is free "now".
        while self.busy_until <= ctx.now() {
            let Some((ingress, frame)) = self.queue.pop_front() else {
                return;
            };
            let ser = SimDuration::serialization(frame.len(), self.bandwidth_bps);
            self.busy_until = ctx.now() + ser;
            self.forwarded += 1;
            // Deliver to every other port once serialisation completes;
            // the attachment wires add only propagation.
            for port in 0..self.ports {
                if port != ingress {
                    // Delay delivery by scheduling through the medium:
                    // we emit at end of serialisation by arming a timer.
                    // Frames are emitted directly here with the medium
                    // time already consumed, because attachment links
                    // have no serialisation of their own.
                    ctx.transmit_delayed(port, frame.clone(), ser);
                }
            }
            if !self.queue.is_empty() {
                ctx.schedule(ser, TOKEN_MEDIUM_FREE);
                return;
            }
        }
    }
}

impl Device for Hub {
    fn label(&self) -> &str {
        &self.label
    }

    fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
        debug_assert!(port < self.ports, "frame on unknown hub port");
        if self.queue.len() >= MEDIUM_QUEUE_LIMIT {
            self.dropped += 1;
            return;
        }
        self.queue.push_back((port, frame));
        if self.busy_until <= ctx.now() {
            self.pump(ctx);
        } else if self.queue.len() == 1 {
            // Medium busy; a wake-up is already scheduled by the
            // transmission that made it busy *only* if the queue was
            // non-empty then. Arm one for safety; duplicates are
            // harmless because pump() checks busy_until.
            let wait = self.busy_until.duration_since(ctx.now());
            ctx.schedule(wait, TOKEN_MEDIUM_FREE);
        }
    }

    fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(token, TOKEN_MEDIUM_FREE);
        self.pump(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::sim::{Device, NodeId, Simulator};

    struct Sink {
        label: String,
        seen: Vec<(usize, Bytes)>,
        times: Vec<SimTime>,
    }

    impl Sink {
        fn new(label: &str) -> Self {
            Sink {
                label: label.to_string(),
                seen: Vec::new(),
                times: Vec::new(),
            }
        }
    }

    impl Device for Sink {
        fn label(&self) -> &str {
            &self.label
        }
        fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
            self.seen.push((port, frame));
            self.times.push(ctx.now());
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn hub_with_sinks(n: usize, bps: u64) -> (Simulator, NodeId, Vec<NodeId>) {
        let mut sim = Simulator::new(7);
        let hub = sim.add_device(Box::new(Hub::new("hub", n, bps)));
        let mut sinks = Vec::new();
        for i in 0..n {
            let s = sim.add_device(Box::new(Sink::new(&format!("s{i}"))));
            sim.connect((hub, i), (s, 0), LinkParams::attachment());
            sinks.push(s);
        }
        (sim, hub, sinks)
    }

    #[test]
    fn broadcasts_to_all_other_ports() {
        let (mut sim, _hub, sinks) = hub_with_sinks(4, 100_000_000);
        sim.with::<Sink, _>(sinks[0], |_, ctx| {
            ctx.transmit(0, Bytes::from_static(b"hello"))
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(sinks[0], |s, _| {
            assert!(s.seen.is_empty(), "no self-delivery")
        });
        for &s in &sinks[1..] {
            sim.with::<Sink, _>(s, |s, _| assert_eq!(s.seen.len(), 1));
        }
    }

    #[test]
    fn medium_serialises_concurrent_senders() {
        // Two senders transmit 1250-byte frames at t≈0 on a 100 Mb/s
        // medium: second delivery must be ≥ 200 µs (two serialisations).
        let (mut sim, _hub, sinks) = hub_with_sinks(3, 100_000_000);
        sim.with::<Sink, _>(sinks[0], |_, ctx| {
            ctx.transmit(0, Bytes::from(vec![0u8; 1250]))
        });
        sim.with::<Sink, _>(sinks[1], |_, ctx| {
            ctx.transmit(0, Bytes::from(vec![1u8; 1250]))
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(sinks[2], |s, _| {
            assert_eq!(s.seen.len(), 2);
            assert!(s.times[0].as_micros() >= 100);
            assert!(
                s.times[1].as_micros() >= 200,
                "second frame at {}",
                s.times[1]
            );
        });
    }

    #[test]
    fn back_to_back_frames_from_one_sender_are_spaced() {
        let (mut sim, _hub, sinks) = hub_with_sinks(2, 8_000_000); // 1 byte/µs
        sim.with::<Sink, _>(sinks[0], |_, ctx| {
            ctx.transmit(0, Bytes::from(vec![0u8; 50]));
            ctx.transmit(0, Bytes::from(vec![1u8; 50]));
        });
        sim.run_until_idle(100);
        sim.with::<Sink, _>(sinks[1], |s, _| {
            assert_eq!(s.seen.len(), 2);
            let gap = s.times[1].duration_since(s.times[0]);
            assert!(gap.as_micros() >= 50, "gap {gap}");
        });
    }

    #[test]
    fn medium_queue_overflow_drops_and_counts() {
        // Saturate a slow medium far past its queue limit.
        let (mut sim, hub, sinks) = hub_with_sinks(2, 8_000); // 1 ms/byte
        sim.with::<Sink, _>(sinks[0], |_, ctx| {
            for i in 0..600u16 {
                ctx.transmit(0, Bytes::from(vec![i as u8; 100]));
            }
        });
        sim.run_until_idle(5_000);
        sim.with::<Hub, _>(hub, |hb, _| {
            assert!(hb.dropped() > 0, "overflow must drop");
            assert!(hb.forwarded() > 0);
            assert_eq!(hb.forwarded() + hb.dropped(), 600);
        });
    }

    #[test]
    fn hub_counts_forwards() {
        let (mut sim, hub, sinks) = hub_with_sinks(2, 100_000_000);
        for _ in 0..5 {
            sim.with::<Sink, _>(sinks[0], |_, ctx| ctx.transmit(0, Bytes::from_static(b"x")));
        }
        sim.run_until_idle(1000);
        sim.with::<Hub, _>(hub, |h, _| {
            assert_eq!(h.forwarded(), 5);
            assert_eq!(h.dropped(), 0);
        });
    }
}
