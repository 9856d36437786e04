//! The fault detector's parameters.
//!
//! "To detect the failure of a server process or server host, the
//! system employs a fault detector" (§2). Ours exchanges heartbeat
//! datagrams (IP protocol `PROTO_HEARTBEAT`) between the replicas;
//! silence from a peer for longer than the timeout declares it dead and
//! triggers the §5 or §6 procedure on the survivors. Before that, two
//! intervals of silence are journaled as a `health.alert` to `warn`,
//! which nothing acts on. The machine itself
//! is [`crate::chain::ChainController`] — one controller at every
//! replication depth, the paper's P/S pair being the chain `[a_p, a_s]`.
//! This module holds what it is configured with, and (in its tests) the
//! detection edge cases run against every topology.

use tcpfo_net::time::SimDuration;

/// Heartbeat parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Heartbeat transmission interval.
    pub interval: SimDuration,
    /// Silence longer than this declares the peer dead.
    pub timeout: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            interval: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(50),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The detection edge cases, run against the one controller in
    //! every topology it serves: the paper's pair and daisy chains of
    //! depth two and three.

    use super::*;
    use crate::chain::{ChainController, WARN_MISSES};
    use crate::chain_testbed::{ChainConfig, ChainTestbed};
    use crate::primary::{PrimaryBridge, PrimaryMode};
    use crate::testbed::{addrs, replica_mac, Testbed, TestbedConfig};
    use bytes::Bytes;
    use tcpfo_net::sim::{Device, NodeId, Simulator};
    use tcpfo_net::time::SimTime;
    use tcpfo_tcp::host::Host;
    use tcpfo_telemetry::{Event, Telemetry};
    use tcpfo_wire::eth::{EtherType, EthernetFrame};
    use tcpfo_wire::heartbeat::{HEARTBEAT_V1_LEN, PROTO_HEARTBEAT};
    use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet};

    /// One replicated service. Replica 0 is the head (P); most cases
    /// watch replica 1, its successor.
    enum Rig {
        Pair(Box<Testbed>),
        Chain(Box<ChainTestbed>),
    }

    /// Every topology, with the health observatory on.
    fn rigs(detector: DetectorConfig) -> Vec<(&'static str, Rig)> {
        let chain = |replicas| {
            Rig::Chain(Box::new(ChainTestbed::new(ChainConfig {
                replicas,
                detector,
                health: Some(true),
                ..ChainConfig::default()
            })))
        };
        let pair = Rig::Pair(Box::new(Testbed::new(TestbedConfig {
            detector,
            health: Some(true),
            ..TestbedConfig::default()
        })));
        vec![
            ("pair", pair),
            ("chain of 2", chain(2)),
            ("chain of 3", chain(3)),
        ]
    }

    fn addr(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2 + i as u8)
    }

    impl Rig {
        fn sim(&mut self) -> &mut Simulator {
            match self {
                Rig::Pair(tb) => &mut tb.sim,
                Rig::Chain(tb) => &mut tb.sim,
            }
        }

        fn replicas(&self) -> Vec<NodeId> {
            match self {
                Rig::Pair(tb) => vec![tb.primary, tb.secondary.expect("replicated")],
                Rig::Chain(tb) => tb.replicas.clone(),
            }
        }

        /// The hub replica `i`'s controller journals into.
        fn hub(&self, i: usize) -> Telemetry {
            match self {
                Rig::Pair(tb) => tb.telemetry.clone(),
                Rig::Chain(tb) => tb.hubs[i].clone(),
            }
        }

        fn run_for(&mut self, d: SimDuration) {
            self.sim().run_for(d);
        }

        fn now(&mut self) -> SimTime {
            self.sim().now()
        }

        fn kill(&mut self, i: usize) {
            match self {
                Rig::Pair(tb) if i == 0 => tb.kill_primary(),
                Rig::Pair(tb) => tb.kill_secondary(),
                Rig::Chain(tb) => tb.kill_replica(i),
            }
        }

        fn host<R>(&mut self, i: usize, f: impl FnOnce(&mut Host) -> R) -> R {
            let node = self.replicas()[i];
            self.sim().with::<Host, _>(node, |h, _| f(h))
        }

        fn controller<R>(&mut self, i: usize, f: impl FnOnce(&mut ChainController) -> R) -> R {
            self.host(i, |h| f(h.controller_mut::<ChainController>()))
        }

        /// Hands replica `to`'s NIC a heartbeat datagram claiming to
        /// come from `src`, as any host on the segment could send it.
        fn deliver_heartbeat(&mut self, to: usize, src: Ipv4Addr, payload: &[u8]) {
            let node = self.replicas()[to];
            let mac = replica_mac(to);
            let pkt = Ipv4Packet::new(
                src,
                addr(to),
                PROTO_HEARTBEAT,
                Bytes::copy_from_slice(payload),
            );
            let frame = EthernetFrame::new(mac, mac, EtherType::Ipv4, pkt.encode());
            self.sim().with::<Host, _>(node, |h, ctx| {
                h.handle_frame(0, frame.encode(), ctx);
            });
        }
    }

    /// When replica 1 journaled a `kind` entry about the head carrying
    /// every one of `fields`.
    fn journaled(rig: &Rig, kind: &str, fields: &[(&str, &str)]) -> Vec<u64> {
        let head = addr(0).to_string();
        let has = |e: &Event, (k, v): (&str, &str)| e.fields.iter().any(|f| f.0 == k && f.1 == v);
        (rig.hub(1).journal.events().into_iter())
            .filter(|e| e.kind == kind && has(e, ("peer", &head)))
            .filter(|e| fields.iter().all(|&f| has(e, f)))
            .map(|e| e.at_ns)
            .collect()
    }

    #[test]
    fn heartbeats_flow_every_way() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(100));
            let n = rig.replicas().len();
            let peers = n as u64 - 1;
            for i in 0..n {
                rig.controller(i, |c| {
                    assert!(c.heartbeats_sent >= 9 * peers, "{name}: {i} sent");
                    assert!(c.heartbeats_received >= 8 * peers, "{name}: {i} received");
                    assert!(c.detected_at.is_none(), "{name}: false positive at {i}");
                });
            }
        }
    }

    #[test]
    fn no_false_positives_over_long_idle() {
        let detector = DetectorConfig {
            interval: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(20),
        };
        for (name, mut rig) in rigs(detector) {
            rig.run_for(SimDuration::from_secs(30));
            for i in 0..rig.replicas().len() {
                let detected = rig.controller(i, |c| c.detected_at);
                assert!(detected.is_none(), "{name}: {i} fired without a failure");
            }
        }
    }

    #[test]
    fn successor_detects_and_takes_over_once() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(50));
            rig.kill(0);
            // Long past the takeover: it must not run again.
            rig.run_for(SimDuration::from_secs(1));
            let tail = rig.replicas().len() == 2;
            rig.host(1, |h| {
                let promiscuous = h.net_mut().promiscuous;
                let vips = h.net_mut().local_ips.iter().filter(|&&a| a == addrs::A_P);
                assert_eq!(vips.count(), 1, "{name}: §5 step 5, exactly once");
                // A middle link keeps snooping for the links below it.
                assert_eq!(promiscuous, !tail, "{name}: §5 step 2");
                let c = h.controller_mut::<ChainController>();
                assert!(c.detected_at.is_some(), "{name}");
                assert!(c.promoted_at >= c.detected_at, "{name}");
            });
        }
    }

    #[test]
    fn link_above_a_dead_tail_degrades() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(50));
            let tail = rig.replicas().len() - 1;
            rig.kill(tail);
            rig.run_for(SimDuration::from_millis(300));
            let mode = rig.host(tail - 1, |h| {
                let f = h.filter_mut().as_any_mut();
                f.downcast_mut::<PrimaryBridge>().unwrap().mode()
            });
            assert_eq!(mode, PrimaryMode::SecondaryFailed, "{name}: §6");
            let promoted = rig.controller(tail - 1, |c| c.promoted_at);
            assert!(promoted.is_none(), "{name}: §6 is not a takeover");
        }
    }

    #[test]
    fn silence_boundary_exactly_at_timeout_vs_one_past() {
        let timeout = DetectorConfig::default().timeout;
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            // The arithmetic, to the nanosecond. §2: "missing heartbeats
            // for longer than the timeout" — exactly at the limit does
            // not fire, one nanosecond past does. With timeout = 5 ×
            // interval, exactly-at-limit is 5 misses while the binary
            // decision still waits.
            rig.controller(1, |c| {
                let last = SimTime::ZERO + SimDuration::from_secs(1);
                let at_limit = last + timeout;
                let one_past = at_limit + SimDuration::from_nanos(1);
                let just_short = last + (timeout - SimDuration::from_nanos(1));
                assert_eq!(c.silence(last, last), (0, false), "{name}");
                assert_eq!(c.silence(last, just_short), (4, false), "{name}");
                assert_eq!(
                    c.silence(last, at_limit),
                    (5, false),
                    "{name}: at the limit"
                );
                assert_eq!(c.silence(last, one_past), (5, true), "{name}: past it");
            });
            // The same boundary through the running machine: the head's
            // last beat lands on a tick boundary (between two of its
            // own rounds, so none is in flight), so a tick falls on
            // exactly `timeout` of silence and the next one past it.
            rig.run_for(SimDuration::from_millis(55));
            rig.kill(0);
            let last = rig.now();
            rig.deliver_heartbeat(1, addr(0), b"HB");
            rig.run_for(timeout);
            let detected = rig.controller(1, |c| c.detected_at);
            assert!(detected.is_none(), "{name}: fired at the limit");
            rig.run_for(SimDuration::from_millis(1));
            let detected = rig.controller(1, |c| c.detected_at);
            let one_tick_past = last + timeout + SimDuration::from_millis(1);
            assert_eq!(detected, Some(one_tick_past), "{name}");
        }
    }

    #[test]
    fn silence_raises_one_warn_the_next_beat_clears_it_and_death_follows() {
        let detector = DetectorConfig::default();
        let ms = SimDuration::from_millis;
        let warn_after = detector.interval.saturating_mul(u64::from(WARN_MISSES));
        let warns = |rig: &Rig| journaled(rig, "health.alert", &[("to", "warn")]);
        let oks = |rig: &Rig| journaled(rig, "health.alert", &[("to", "ok")]);
        let state = |rig: &mut Rig| {
            let snap = rig.hub(1).registry.snapshot(rig.now().as_nanos());
            let state = snap.gauge("core.control.r1.peer0.health.state");
            state.map(|g| g.value)
        };
        for (name, mut rig) in rigs(detector) {
            // As at the silence boundary: the head's last beat is in and
            // none is in flight; the silence starts with the beat handed
            // over here.
            rig.run_for(ms(55));
            rig.kill(0);
            rig.deliver_heartbeat(1, addr(0), b"HB");
            rig.run_for(warn_after - ms(1));
            assert!(warns(&rig).is_empty(), "{name}: warned early");
            assert_eq!(state(&mut rig), Some(0), "{name}");
            rig.run_for(ms(1));
            assert_eq!(warns(&rig).len(), 1, "{name}: one warn");
            assert_eq!(state(&mut rig), Some(1), "{name}");
            // The next beat clears it, once.
            rig.deliver_heartbeat(1, addr(0), b"HB");
            rig.run_for(ms(1));
            assert_eq!(oks(&rig).len(), 1, "{name}: one ok");
            assert_eq!(state(&mut rig), Some(0), "{name}");
            rig.run_for(ms(10));
            assert_eq!(warns(&rig).len(), 1, "{name}: warned while beating");
            // Silence for good: warned again, strictly before the verdict.
            rig.run_for(detector.timeout);
            let (warns, dead) = (warns(&rig), journaled(&rig, "peer_dead", &[]));
            assert_eq!((warns.len(), dead.len()), (2, 1), "{name}");
            assert!(warns[1] < dead[0], "{name}: warn at {} ns", warns[1]);
            assert_eq!(oks(&rig).len(), 1, "{name}");
        }
    }

    #[test]
    fn late_heartbeat_after_takeover_commit_is_not_liveness() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(50));
            rig.kill(0);
            rig.run_for(SimDuration::from_millis(300));
            let (received_before, promoted) =
                rig.controller(1, |c| (c.heartbeats_received, c.promoted_at));
            assert!(promoted.is_some(), "{name}: takeover did not commit");
            // A stray heartbeat from the dead head's address arrives
            // after the commit (e.g. a frame that sat in a queue, or
            // the old host rebooting mid-ARP).
            rig.deliver_heartbeat(1, addr(0), b"HB");
            rig.controller(1, |c| {
                assert_eq!(c.late_heartbeats, 1, "{name}: late beat not counted");
                assert_eq!(
                    c.heartbeats_received, received_before,
                    "{name}: late beat counted as liveness"
                );
            });
            rig.run_for(SimDuration::from_millis(20));
            rig.controller(1, |c| {
                assert!(
                    !c.peer_alive(0),
                    "{name}: late beat revived a replaced peer"
                );
            });
            let journaled = rig.hub(1).journal.events().iter().any(|e| {
                e.kind == "late_heartbeat"
                    && e.fields
                        .contains(&("peer".to_string(), addr(0).to_string()))
            });
            assert!(journaled, "{name}: late beat not journaled with its peer");
        }
    }

    #[test]
    fn forged_max_seq_heartbeat_neither_panics_nor_stops_liveness() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(50));
            let received = |rig: &mut Rig| rig.controller(1, |c| c.heartbeats_received);
            let before = received(&mut rig);
            // An off-path sender needs only the head's address to put
            // any payload in front of the detector.
            rig.deliver_heartbeat(1, addr(0), &[0xFF; HEARTBEAT_V1_LEN]);
            assert_eq!(
                received(&mut rig),
                before + 1,
                "{name}: forged beat dropped"
            );
            // Every real peer keeps beating: two more rounds at least.
            rig.run_for(SimDuration::from_millis(30));
            let peers = rig.replicas().len() as u64 - 1;
            assert!(
                received(&mut rig) >= before + 1 + 2 * peers,
                "{name}: later beats not counted"
            );
            rig.controller(1, |c| {
                assert!(c.peer_alive(0) && c.detected_at.is_none(), "{name}: fired");
            });
        }
    }

    #[test]
    fn heartbeat_from_own_address_is_ignored() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(50));
            let before = rig.controller(1, |c| c.heartbeats_received);
            rig.deliver_heartbeat(1, addr(1), b"HB");
            let after = rig.controller(1, |c| c.heartbeats_received);
            assert_eq!(after, before, "{name}: a forged own-address beat counted");
        }
    }

    #[test]
    fn jitter_only_degradation_warns_without_detector_firing() {
        for (name, mut rig) in rigs(DetectorConfig::default()) {
            rig.run_for(SimDuration::from_millis(200));
            let warns = |rig: &Rig| journaled(rig, "health.alert", &[("to", "warn")]);
            assert!(warns(&rig).is_empty(), "{name}: clean baseline warned");
            // Degrade the head's attachment with jitter only: no loss,
            // no silence — heartbeats keep flowing, just erratically.
            // At 25ms of per-frame jitter the worst inter-arrival gap
            // is ~interval + jitter = 35ms, safely inside the 50ms
            // timeout.
            let head = rig.replicas()[0];
            rig.sim()
                .reshape_links(head, |p| p.with_jitter(SimDuration::from_millis(25)));
            rig.run_for(SimDuration::from_secs(2));
            rig.controller(1, |c| {
                assert!(
                    c.detected_at.is_none(),
                    "{name}: jitter alone must not fire the binary detector"
                );
            });
            // A gap of two intervals between beats is the alert's to
            // raise.
            assert!(!warns(&rig).is_empty(), "{name}: no warn under jitter");
        }
    }

    #[test]
    fn detection_latency_bounded_by_timeout_plus_interval() {
        for timeout_ms in [20u64, 80, 150] {
            let interval_ms = timeout_ms / 4;
            let detector = DetectorConfig {
                interval: SimDuration::from_millis(interval_ms),
                timeout: SimDuration::from_millis(timeout_ms),
            };
            for (name, mut rig) in rigs(detector) {
                rig.run_for(SimDuration::from_millis(40));
                let killed = rig.now();
                rig.kill(0);
                rig.run_for(SimDuration::from_secs(2));
                let detected = rig.controller(1, |c| c.detected_at).expect("fired");
                let lat = detected.duration_since(killed).as_millis();
                // The last heartbeat may have landed up to one interval
                // before the kill, so detection can fire that much
                // sooner relative to the kill instant.
                assert!(
                    lat + interval_ms >= timeout_ms,
                    "{name}: early, {lat}ms for timeout {timeout_ms}ms"
                );
                assert!(
                    lat <= timeout_ms + interval_ms + 20,
                    "{name}: late, {lat}ms for timeout {timeout_ms}ms"
                );
            }
        }
    }
}
