//! Fault detection and the §5/§6 failover procedures.
//!
//! "To detect the failure of a server process or server host, the
//! system employs a fault detector" (§2). Ours exchanges heartbeat
//! datagrams (IP protocol [`PROTO_HEARTBEAT`]) between the primary and
//! the secondary; missing heartbeats for longer than the timeout
//! triggers the failover procedure for the surviving role:
//!
//! * **Secondary survives (§5)**: stop client-bound egress, disable
//!   promiscuous mode, disable both address translations, take over
//!   `a_p` (gratuitous ARP + re-keying the failover TCBs), resume as a
//!   standard TCP server.
//! * **Primary survives (§6)**: flush the primary output queue to the
//!   client, disable the demultiplexer for diverted segments, stop
//!   delaying output — but keep subtracting `Δseq` forever.

use crate::primary::PrimaryBridge;
use crate::secondary::SecondaryBridge;
use bytes::Bytes;
use std::any::Any;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::host::{HostController, HostServices};
use tcpfo_telemetry::{Counter, FailoverPhase, HealthMonitor, SpanTrack, Telemetry};
use tcpfo_wire::heartbeat::{Heartbeat, PROTO_HEARTBEAT};
use tcpfo_wire::ipv4::Ipv4Addr;

pub use tcpfo_wire::heartbeat::HEARTBEAT_V1_LEN;

/// Entries in the sent-heartbeat ring used to match RTT echoes; echoes
/// older than this many intervals are dropped rather than mis-timed.
pub(crate) const HB_RING: usize = 8;

/// Moves the next-expected peer heartbeat sequence number past `seq`
/// and returns how many beats were lost before it: `None` for the
/// first beat and for a reordered (old) `seq`, which is not new loss.
/// `seq` is outside input (anyone on the segment can forge the peer's
/// source address), so the update saturates instead of wrapping.
pub(crate) fn advance_expected_seq(expected: &mut Option<u64>, seq: u64) -> Option<u64> {
    let lost = match *expected {
        Some(e) if seq < e => return None,
        Some(e) => Some(seq - e),
        None => None,
    };
    *expected = Some(seq.saturating_add(1));
    lost
}

/// Which replica this controller runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The primary server P.
    Primary,
    /// The secondary server S.
    Secondary,
}

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

/// Registry handles for one controller, under `core.detector.primary`
/// or `core.detector.secondary` depending on the role.
struct DetectorInstruments {
    hub: Telemetry,
    scope: &'static str,
    heartbeats_sent: Counter,
    heartbeats_received: Counter,
    rejoins: Counter,
}

/// The replica-side controller: heartbeats + failover procedures.
pub struct ReplicaController {
    role: Role,
    peer_ip: Ipv4Addr,
    a_p: Ipv4Addr,
    a_s: Ipv4Addr,
    config: DetectorConfig,
    last_heard: Option<SimTime>,
    next_send: SimTime,
    /// When the peer's failure was detected, if it was.
    pub peer_failed_at: Option<SimTime>,
    /// When the local failover procedure completed.
    pub failover_done_at: Option<SimTime>,
    /// Heartbeats sent (observability).
    pub heartbeats_sent: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Times a declared-dead peer came back and was reintegrated.
    pub rejoins: u64,
    /// Heartbeats that arrived after this replica committed its
    /// failover procedure (counted, never trusted for liveness on the
    /// secondary — see [`ReplicaController::on_raw`]).
    pub late_heartbeats: u64,
    /// Ring of (seq, sent_at) for heartbeats we sent, so an echoed seq
    /// can be turned into an RTT sample. Seq `u64::MAX` marks an
    /// unused slot.
    hb_ring: [(u64, SimTime); HB_RING],
    /// Latest peer heartbeat seq and when it arrived, echoed back on
    /// our next send so the peer can subtract the hold time.
    peer_echo: Option<(u64, SimTime)>,
    /// Next peer seq we expect; gaps feed the loss signal.
    peer_expected_seq: Option<u64>,
    /// Advisory health monitor (attached via
    /// [`ReplicaController::set_health_monitor`]). Publishes a scored
    /// view of the peer alongside — never instead of — the binary
    /// heartbeat decision.
    health: Option<Box<HealthMonitor>>,
    telemetry: Option<DetectorInstruments>,
    /// Whole-interval misses already traced as `hb.miss` instants, so
    /// a silent peer produces one instant per missed beat rather than
    /// one per tick. Reset on every received heartbeat.
    traced_misses: u64,
}

impl ReplicaController {
    /// Creates a controller for `role`, monitoring `peer_ip`, with the
    /// replicated pair addressed `a_p`/`a_s`.
    pub fn new(
        role: Role,
        peer_ip: Ipv4Addr,
        a_p: Ipv4Addr,
        a_s: Ipv4Addr,
        config: DetectorConfig,
    ) -> Self {
        ReplicaController {
            role,
            peer_ip,
            a_p,
            a_s,
            config,
            last_heard: None,
            next_send: SimTime::ZERO,
            peer_failed_at: None,
            failover_done_at: None,
            heartbeats_sent: 0,
            heartbeats_received: 0,
            rejoins: 0,
            late_heartbeats: 0,
            hb_ring: [(u64::MAX, SimTime::ZERO); HB_RING],
            peer_echo: None,
            peer_expected_seq: None,
            health: None,
            telemetry: None,
            traced_misses: 0,
        }
    }

    /// Attaches (or detaches) the advisory health monitor. The monitor
    /// scores the *peer* replica from heartbeat RTT/jitter, miss
    /// counts, loss gaps, and (on the primary) replication backlog; it
    /// publishes under `core.detector.{role}.health.*` and journals
    /// alert transitions, but the §2 binary timeout decision is still
    /// the only thing that can trigger failover.
    pub fn set_health_monitor(&mut self, health: Option<Box<HealthMonitor>>) {
        self.health = health;
    }

    /// The attached health monitor, if any.
    pub fn health_monitor(&self) -> Option<&HealthMonitor> {
        self.health.as_deref()
    }

    /// Mutable access to the attached health monitor.
    pub fn health_monitor_mut(&mut self) -> Option<&mut HealthMonitor> {
        self.health.as_deref_mut()
    }

    /// §2 boundary: silence *strictly longer* than the timeout declares
    /// the peer dead. Silence exactly at the timeout does not — one
    /// nanosecond past does. Factored out so the boundary is testable
    /// without a full host.
    pub fn silence_expired(&self, last: SimTime, now: SimTime) -> bool {
        now.duration_since(last) > self.config.timeout
    }

    /// Whole heartbeat intervals elapsed since `last` — the advisory
    /// consecutive-miss count fed to the health monitor. At exactly
    /// `k * interval` of silence the count is `k`, so with
    /// `timeout = miss_limit * interval` the score bottoms out at the
    /// limit while the binary detector fires only strictly past it.
    pub fn misses_since(&self, last: SimTime, now: SimTime) -> u64 {
        let interval = self.config.interval.as_nanos().max(1);
        now.duration_since(last).as_nanos() / interval
    }

    /// Connects the controller to a telemetry hub: mirrors heartbeat
    /// counters under `core.detector.{primary,secondary}`, journals
    /// every failover step, and stamps the §5 timeline phases
    /// (detection, egress hold, translation off, ARP takeover).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let scope_name = match self.role {
            Role::Primary => "core.detector.primary",
            Role::Secondary => "core.detector.secondary",
        };
        let scope = telemetry.registry.scope(scope_name);
        self.telemetry = Some(DetectorInstruments {
            hub: telemetry.clone(),
            scope: scope_name,
            heartbeats_sent: scope.counter("heartbeats_sent"),
            heartbeats_received: scope.counter("heartbeats_received"),
            rejoins: scope.counter("rejoins"),
        });
    }

    fn journal(&self, now: SimTime, kind: &str, fields: &[(&str, String)]) {
        if let Some(t) = &self.telemetry {
            t.hub.journal.record(now.as_nanos(), t.scope, kind, fields);
        }
    }

    fn mark(&self, phase: FailoverPhase, now: SimTime) {
        if let Some(t) = &self.telemetry {
            t.hub.timeline.mark(phase, now.as_nanos());
        }
    }

    /// Point event on the control-plane span track. One relaxed atomic
    /// load when the tracer is detached (or no hub is attached at all).
    fn trace_instant(
        &self,
        name: &'static str,
        now: SimTime,
        args: [Option<(&'static str, u64)>; 2],
    ) {
        if let Some(t) = &self.telemetry {
            t.hub
                .trace
                .instant_args(SpanTrack::Control, t.scope, name, now.as_nanos(), args);
        }
    }

    /// Executes the failover procedure immediately (used by tests and
    /// by the detector on timeout).
    pub fn force_failover(&mut self, services: &mut HostServices<'_, '_>) {
        if self.failover_done_at.is_some() {
            return;
        }
        let now = services.now;
        if self.peer_failed_at.is_none() {
            self.peer_failed_at = Some(now);
            self.mark(FailoverPhase::Detection, now);
            self.journal(now, "detection", &[("peer", self.peer_ip.to_string())]);
            self.trace_instant(
                "detection",
                now,
                [
                    Some((
                        "misses",
                        self.misses_since(self.last_heard.unwrap_or(now), now),
                    )),
                    None,
                ],
            );
        }
        // The whole §5/§6 procedure runs to completion at one sim
        // instant; the span still records the causal envelope so the
        // step instants below nest under it in the Chrome timeline.
        let span = self.telemetry.as_ref().and_then(|t| {
            t.hub.trace.begin(
                SpanTrack::Control,
                t.scope,
                "failover_procedure",
                now.as_nanos(),
            )
        });
        match self.role {
            Role::Secondary => self.takeover(services),
            Role::Primary => self.drop_secondary(services),
        }
        self.failover_done_at = Some(services.now);
        if let (Some(t), Some(span)) = (&self.telemetry, span) {
            t.hub.trace.end(&span, services.now.as_nanos());
        }
    }

    /// §5: the primary failed; the secondary takes over its identity.
    fn takeover(&mut self, services: &mut HostServices<'_, '_>) {
        let now = services.now;
        let bridge = services
            .filter
            .as_any_mut()
            .downcast_mut::<SecondaryBridge>()
            .expect("secondary controller requires SecondaryBridge");
        // Step 1: stop sending client-addressed TCP segments.
        self.mark(FailoverPhase::EgressHold, now);
        self.journal(now, "takeover.egress_hold", &[]);
        self.trace_instant("takeover.egress_hold", now, [None, None]);
        bridge.prepare_takeover();
        // Step 2: disable promiscuous receive mode.
        services.net.promiscuous = false;
        // Steps 3–4: disable both address translations.
        bridge.complete_takeover();
        self.mark(FailoverPhase::TranslationOff, now);
        self.journal(now, "takeover.translation_off", &[]);
        self.trace_instant("takeover.translation_off", now, [None, None]);
        // Step 5: take over the primary's IP address. Re-keying the
        // failover TCBs from a_s to a_p is the stack-level half of the
        // takeover (see DESIGN.md §2 for why this is needed).
        if !services.net.local_ips.contains(&self.a_p) {
            services.net.local_ips.push(self.a_p);
        }
        services.stack.rebind_local_ip(self.a_s, self.a_p);
        services.net.gratuitous_arp(self.a_p, services.ctx);
        self.mark(FailoverPhase::ArpTakeover, now);
        self.journal(now, "takeover.arp", &[("vip", self.a_p.to_string())]);
        self.trace_instant(
            "takeover.vip_arp",
            now,
            [
                Some(("vip", u32::from_be_bytes(self.a_p.octets()) as u64)),
                None,
            ],
        );
        // "After the change of IP address is completed, the bridge
        // resumes sending TCP segments" — retransmission timers on the
        // re-keyed sockets take it from here.
    }

    /// §6: the secondary failed; the primary flushes and degrades.
    fn drop_secondary(&mut self, services: &mut HostServices<'_, '_>) {
        let now_nanos = services.now.as_nanos();
        self.journal(services.now, "secondary_failed", &[]);
        let bridge = services
            .filter
            .as_any_mut()
            .downcast_mut::<PrimaryBridge>()
            .expect("primary controller requires PrimaryBridge");
        let flush = bridge.secondary_failed(now_nanos);
        services.dispatch(flush);
    }
}

impl HostController for ReplicaController {
    fn on_tick(&mut self, services: &mut HostServices<'_, '_>) {
        let now = services.now;
        // First tick establishes the grace period.
        let last = *self.last_heard.get_or_insert(now);
        if now >= self.next_send {
            let seq = self.heartbeats_sent;
            // Echo the latest peer seq plus how long we held it, so
            // the peer's RTT sample excludes our heartbeat interval.
            let (echo_seq, hold_ns) = match self.peer_echo {
                Some((pseq, rx_at)) => (pseq, now.duration_since(rx_at).as_nanos()),
                None => (Heartbeat::NO_ECHO, 0),
            };
            let beat = Heartbeat {
                seq,
                echo_seq,
                hold_ns,
            };
            services.send_raw(
                PROTO_HEARTBEAT,
                self.peer_ip,
                Bytes::copy_from_slice(&beat.encode()),
            );
            self.hb_ring[(seq % HB_RING as u64) as usize] = (seq, now);
            self.heartbeats_sent += 1;
            self.next_send = now + self.config.interval;
            self.trace_instant("hb.send", now, [Some(("seq", seq)), None]);
        }
        // One `hb.miss` instant per whole silent interval (not per
        // tick): the trace shows each missed beat exactly once, then
        // `detection` fires when the binary timeout is crossed.
        let misses_now = self.misses_since(last, now);
        if misses_now > self.traced_misses && self.peer_failed_at.is_none() {
            self.trace_instant("hb.miss", now, [Some(("misses", misses_now)), None]);
        }
        self.traced_misses = misses_now;
        if let Some(t) = &self.telemetry {
            t.heartbeats_sent.set_at_least(self.heartbeats_sent);
            t.heartbeats_received.set_at_least(self.heartbeats_received);
            t.rejoins.set_at_least(self.rejoins);
        }
        // Advisory scoring: misses from silence, replication backlog
        // from the primary bridge's lag ledger, then one monitor tick.
        // Runs before the binary check so a Warn/Critical alert on a
        // degrading peer is journalled no later than — in practice
        // strictly before — the timeout decision below.
        if self.health.is_some() {
            let misses = self.misses_since(last, now);
            let is_primary = self.role == Role::Primary;
            let mon = self.health.as_deref_mut().expect("checked above");
            mon.replica.set_misses(misses.min(u32::MAX as u64) as u32);
            if is_primary {
                if let Some(bridge) = services.filter.as_any_mut().downcast_mut::<PrimaryBridge>() {
                    if let Some(obs) = bridge.health() {
                        let cap = bridge.flow_capacity().max(1) as u64;
                        let occupancy_ppm = bridge.flow_stats().occupancy * 1_000_000 / cap;
                        mon.replica.observe_backlog(
                            obs.lag.unmatched_bytes(),
                            obs.lag.unmatched_segments(),
                            occupancy_ppm,
                        );
                    }
                }
            }
            let transition = mon.tick(now.as_nanos());
            let score = mon.score().total;
            if let Some(t) = &self.telemetry {
                mon.publish(&t.hub.registry.scope(t.scope), now.as_nanos());
            }
            if let Some((from, to)) = transition {
                self.journal(
                    now,
                    "health.alert",
                    &[
                        ("from", from.name().to_string()),
                        ("to", to.name().to_string()),
                        ("score", score.to_string()),
                    ],
                );
                self.trace_instant(
                    match to {
                        tcpfo_telemetry::AlertState::Ok => "health.alert.ok",
                        tcpfo_telemetry::AlertState::Warn => "health.alert.warn",
                        tcpfo_telemetry::AlertState::Critical => "health.alert.critical",
                    },
                    now,
                    [Some(("score", score)), Some(("from", from as u64))],
                );
            }
        }
        if self.peer_failed_at.is_none() && self.silence_expired(last, now) {
            // force_failover records peer_failed_at (and the Detection
            // timeline mark) before running the role's procedure.
            self.force_failover(services);
        }
    }

    fn on_raw(
        &mut self,
        proto: u8,
        src: Ipv4Addr,
        payload: &[u8],
        services: &mut HostServices<'_, '_>,
    ) {
        if proto == PROTO_HEARTBEAT && src == self.peer_ip {
            let now = services.now;
            // Edge case: a heartbeat arriving *after* this replica
            // committed a §5 takeover. The old primary's identity is
            // ours now; trusting the stray beat for liveness would
            // reset the miss count and let an advisory score "recover"
            // for a replica that has already been replaced. Count it,
            // surface it, and drop it.
            if self.role == Role::Secondary && self.failover_done_at.is_some() {
                self.late_heartbeats += 1;
                if let Some(mon) = self.health.as_deref_mut() {
                    mon.replica.on_late_heartbeat();
                }
                self.journal(now, "late_heartbeat", &[("peer", src.to_string())]);
                self.trace_instant("hb.late", now, [None, None]);
                return;
            }
            self.heartbeats_received += 1;
            self.last_heard = Some(now);
            self.traced_misses = 0;
            // v1 payload: seq + RTT echo. Legacy (short) payloads are
            // liveness-only; either way the beat counted above.
            if let Some(beat) = Heartbeat::decode(payload) {
                // Gap in the peer's seq stream = lost heartbeats on
                // the ingress path.
                if let Some(lost) = advance_expected_seq(&mut self.peer_expected_seq, beat.seq) {
                    if let Some(mon) = self.health.as_deref_mut() {
                        mon.replica.observe_loss(lost, lost.saturating_add(1));
                    }
                }
                self.peer_echo = Some((beat.seq, now));
                if beat.echo_seq != Heartbeat::NO_ECHO {
                    let (ring_seq, sent_at) =
                        self.hb_ring[(beat.echo_seq % HB_RING as u64) as usize];
                    if ring_seq == beat.echo_seq {
                        let rtt = now
                            .duration_since(sent_at)
                            .as_nanos()
                            .saturating_sub(beat.hold_ns);
                        if let Some(mon) = self.health.as_deref_mut() {
                            mon.replica.on_heartbeat_rtt(rtt);
                        }
                    }
                }
            }
            if let Some(mon) = self.health.as_deref_mut() {
                mon.replica.on_heartbeat_seen();
            }
            // A heartbeat from a peer we declared dead: it rebooted.
            // Partial reintegration (extension; the paper leaves
            // reintegration out of scope): the primary re-enables the
            // bridge so *new* connections replicate again; connections
            // degraded by §6 finish on their pass-through tombstones.
            // Only the primary role can reintegrate — after a §5
            // takeover the old primary's address is owned by us.
            if self.role == Role::Primary && self.peer_failed_at.is_some() {
                if let Some(bridge) = services.filter.as_any_mut().downcast_mut::<PrimaryBridge>() {
                    bridge.reintegrate();
                }
                self.peer_failed_at = None;
                self.failover_done_at = None;
                self.rejoins += 1;
                self.journal(services.now, "reintegration", &[("peer", src.to_string())]);
                self.trace_instant("reintegration", services.now, [None, None]);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for ReplicaController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaController")
            .field("role", &self.role)
            .field("peer", &self.peer_ip)
            .field("peer_failed_at", &self.peer_failed_at)
            .finish()
    }
}

/// Hands `node`'s NIC (MAC `mac`) a heartbeat datagram from `src` to
/// `dst` carrying `payload`, as any host on the segment could send it.
#[cfg(test)]
pub(crate) fn deliver_heartbeat(
    sim: &mut tcpfo_net::sim::Simulator,
    node: tcpfo_net::sim::NodeId,
    mac: tcpfo_wire::mac::MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload: &[u8],
) {
    use tcpfo_net::sim::Device;
    use tcpfo_wire::eth::{EtherType, EthernetFrame};
    let pkt = tcpfo_wire::ipv4::Ipv4Packet::new(
        src,
        dst,
        PROTO_HEARTBEAT,
        Bytes::copy_from_slice(payload),
    );
    let frame = EthernetFrame::new(mac, mac, EtherType::Ipv4, pkt.encode());
    sim.with::<tcpfo_tcp::host::Host, _>(node, |h, ctx| {
        h.handle_frame(0, frame.encode(), ctx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{addrs, Testbed, TestbedConfig};
    use tcpfo_tcp::host::Host;

    fn testbed(detector: DetectorConfig) -> Testbed {
        Testbed::new(TestbedConfig {
            detector,
            ..TestbedConfig::default()
        })
    }

    #[test]
    fn heartbeats_flow_both_ways() {
        let mut tb = testbed(DetectorConfig::default());
        tb.run_for(SimDuration::from_millis(100));
        for node in [tb.primary, tb.secondary.unwrap()] {
            tb.sim.with::<Host, _>(node, |h, _| {
                let c = h.controller_mut::<ReplicaController>();
                assert!(c.heartbeats_sent >= 9, "sent {}", c.heartbeats_sent);
                assert!(
                    c.heartbeats_received >= 8,
                    "received {}",
                    c.heartbeats_received
                );
                assert!(c.peer_failed_at.is_none(), "false positive");
            });
        }
    }

    #[test]
    fn no_false_positives_over_long_idle() {
        let mut tb = testbed(DetectorConfig {
            interval: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(20),
        });
        tb.run_for(SimDuration::from_secs(30));
        for node in [tb.primary, tb.secondary.unwrap()] {
            tb.sim.with::<Host, _>(node, |h, _| {
                assert!(
                    h.controller_mut::<ReplicaController>()
                        .peer_failed_at
                        .is_none(),
                    "detector fired without a failure"
                );
            });
        }
    }

    #[test]
    fn secondary_detects_and_takes_over() {
        let mut tb = testbed(DetectorConfig::default());
        tb.run_for(SimDuration::from_millis(50));
        tb.kill_primary();
        tb.run_for(SimDuration::from_millis(300));
        let s = tb.secondary.unwrap();
        tb.sim.with::<Host, _>(s, |h, _| {
            let own_promisc = h.net_mut().promiscuous;
            let has_vip = h.net_mut().local_ips.contains(&addrs::A_P);
            let c = h.controller_mut::<ReplicaController>();
            assert!(c.peer_failed_at.is_some());
            assert!(c.failover_done_at.is_some());
            assert!(c.failover_done_at >= c.peer_failed_at);
            assert!(!own_promisc, "§5 step 2");
            assert!(has_vip, "§5 step 5");
        });
    }

    #[test]
    fn primary_detects_and_degrades() {
        let mut tb = testbed(DetectorConfig::default());
        tb.run_for(SimDuration::from_millis(50));
        tb.kill_secondary();
        tb.run_for(SimDuration::from_millis(300));
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            let mode = h
                .filter_mut()
                .as_any_mut()
                .downcast_mut::<crate::primary::PrimaryBridge>()
                .unwrap()
                .mode();
            assert_eq!(mode, crate::primary::PrimaryMode::SecondaryFailed);
            let c = h.controller_mut::<ReplicaController>();
            assert!(c.failover_done_at.is_some());
        });
    }

    #[test]
    fn force_failover_is_idempotent() {
        let mut tb = testbed(DetectorConfig::default());
        tb.run_for(SimDuration::from_millis(20));
        let s = tb.secondary.unwrap();
        // Fire twice manually; the second call must be a no-op.
        for _ in 0..2 {
            tb.sim.with::<Host, _>(s, |h, ctx| {
                // Split the host exactly the way the tick path does.
                let mut controller: Box<dyn tcpfo_tcp::host::HostController> =
                    Box::new(ReplicaController::new(
                        Role::Secondary,
                        addrs::A_P,
                        addrs::A_P,
                        addrs::A_S,
                        DetectorConfig::default(),
                    ));
                let _ = &mut controller; // constructed fresh: not the installed one
                let _ = (h, ctx);
            });
        }
        // The real idempotence check: drive the installed controller's
        // takeover twice via detection after a kill plus extra ticks.
        tb.kill_primary();
        tb.run_for(SimDuration::from_secs(1));
        tb.sim.with::<Host, _>(s, |h, _| {
            let vip_count = h
                .net_mut()
                .local_ips
                .iter()
                .filter(|&&a| a == addrs::A_P)
                .count();
            assert_eq!(vip_count, 1, "takeover ran more than once");
        });
    }

    #[test]
    fn silence_boundary_exactly_at_timeout_vs_one_past() {
        let c = ReplicaController::new(
            Role::Primary,
            addrs::A_S,
            addrs::A_P,
            addrs::A_S,
            DetectorConfig::default(),
        );
        let last = SimTime::ZERO + SimDuration::from_secs(1);
        let at_limit = last + c.config.timeout;
        let one_past = at_limit + SimDuration::from_nanos(1);
        // §2: "missing heartbeats for longer than the timeout" —
        // exactly at the limit does not fire, one nanosecond past does.
        assert!(!c.silence_expired(last, at_limit), "fired at the limit");
        assert!(c.silence_expired(last, one_past), "did not fire past it");
        // The advisory miss count crosses the health miss limit at the
        // same boundary: with timeout = 5 × interval, exactly-at-limit
        // is 5 misses (score 0) while the binary decision still waits.
        assert_eq!(c.misses_since(last, at_limit), 5);
        let just_short = last + (c.config.timeout - SimDuration::from_nanos(1));
        assert_eq!(c.misses_since(last, just_short), 4);
        assert_eq!(c.misses_since(last, one_past), 5);
        assert_eq!(c.misses_since(last, last), 0);
    }

    /// A heartbeat forged with the primary's source address, handed
    /// to the secondary's NIC.
    fn deliver_forged_heartbeat(tb: &mut Testbed, payload: &[u8]) {
        let s = tb.secondary.unwrap();
        let mac = crate::testbed::macs::SECONDARY;
        deliver_heartbeat(&mut tb.sim, s, mac, addrs::A_P, addrs::A_S, payload);
    }

    #[test]
    fn late_heartbeat_after_takeover_commit_is_not_liveness() {
        let mut tb = Testbed::new(TestbedConfig {
            detector: DetectorConfig::default(),
            health: Some(true),
            ..TestbedConfig::default()
        });
        tb.run_for(SimDuration::from_millis(50));
        tb.kill_primary();
        tb.run_for(SimDuration::from_millis(300));
        let s = tb.secondary.unwrap();
        let (received_before, failed_at) = tb.sim.with::<Host, _>(s, |h, _| {
            let c = h.controller_mut::<ReplicaController>();
            (c.heartbeats_received, c.peer_failed_at)
        });
        assert!(failed_at.is_some(), "takeover did not commit");
        // A stray heartbeat from the dead primary's address arrives
        // after the commit (e.g. a frame that sat in a queue, or the
        // old host rebooting mid-ARP).
        deliver_forged_heartbeat(&mut tb, b"HB");
        tb.run_for(SimDuration::from_millis(20));
        tb.sim.with::<Host, _>(s, |h, _| {
            let c = h.controller_mut::<ReplicaController>();
            assert_eq!(c.late_heartbeats, 1, "late beat not counted");
            assert_eq!(
                c.heartbeats_received, received_before,
                "late beat counted as liveness"
            );
            assert!(
                c.peer_failed_at.is_some(),
                "late beat revived a replaced peer"
            );
            let mon = c.health_monitor().expect("health attached");
            assert_eq!(mon.replica.late_heartbeats, 1);
        });
    }

    #[test]
    fn forged_max_seq_heartbeat_neither_panics_nor_stops_liveness() {
        let mut tb = Testbed::new(TestbedConfig {
            health: Some(true),
            ..TestbedConfig::default()
        });
        tb.run_for(SimDuration::from_millis(50));
        let s = tb.secondary.unwrap();
        let before = tb.sim.with::<Host, _>(s, |h, _| {
            h.controller_mut::<ReplicaController>().heartbeats_received
        });
        // An off-path sender needs only the primary's address to put
        // any sequence number in front of the detector.
        let forged = Heartbeat {
            seq: u64::MAX,
            echo_seq: u64::MAX - 1,
            hold_ns: u64::MAX,
        };
        deliver_forged_heartbeat(&mut tb, &forged.encode());
        let received = |tb: &mut Testbed| {
            tb.sim.with::<Host, _>(s, |h, _| {
                h.controller_mut::<ReplicaController>().heartbeats_received
            })
        };
        assert_eq!(received(&mut tb), before + 1, "forged beat not processed");
        // The real primary keeps beating: at least two more intervals.
        tb.run_for(SimDuration::from_millis(30));
        assert!(
            received(&mut tb) >= before + 1 + 2,
            "later beats not counted"
        );
        assert!(tb.failover_detected_at(s).is_none(), "detector fired");
    }

    #[test]
    fn expected_seq_saturates_at_the_top_of_the_space() {
        let mut expected = None;
        assert_eq!(advance_expected_seq(&mut expected, 4), None, "first beat");
        assert_eq!(advance_expected_seq(&mut expected, 7), Some(2), "5, 6 lost");
        assert_eq!(advance_expected_seq(&mut expected, 6), None, "reordered");
        assert_eq!(
            advance_expected_seq(&mut expected, u64::MAX),
            Some(u64::MAX - 8)
        );
        assert_eq!(expected, Some(u64::MAX));
        assert_eq!(advance_expected_seq(&mut expected, u64::MAX), Some(0));
    }

    #[test]
    fn jitter_only_degradation_warns_without_detector_firing() {
        let mut tb = Testbed::new(TestbedConfig {
            detector: DetectorConfig::default(),
            health: Some(true),
            ..TestbedConfig::default()
        });
        // Clean baseline: both monitors should score near-perfect.
        tb.run_for(SimDuration::from_millis(200));
        let s = tb.secondary.unwrap();
        let baseline = tb
            .with_health_monitor(s, |m| m.score().total)
            .expect("monitor attached");
        assert!(baseline >= 90, "clean baseline scored {baseline}");
        // Degrade the primary's attachment with jitter only: no loss,
        // no silence — heartbeats keep flowing, just erratically. At
        // 25ms of per-frame jitter the worst inter-arrival gap is
        // ~interval + jitter = 35ms, safely inside the 50ms timeout.
        let primary = tb.primary;
        tb.reshape_links(primary, |p| {
            p.with_jitter(tcpfo_net::time::SimDuration::from_millis(25))
        });
        tb.run_for(SimDuration::from_secs(2));
        tb.sim.with::<Host, _>(s, |h, _| {
            let c = h.controller_mut::<ReplicaController>();
            assert!(
                c.peer_failed_at.is_none(),
                "jitter alone must not fire the binary detector"
            );
            let mon = c.health_monitor().expect("health attached");
            let score = mon.score();
            assert!(
                score.total < 70,
                "jitter-only degradation kept score at {} (rtt {}ns jitter {}ns)",
                score.total,
                score.rtt_ns,
                score.jitter_ns
            );
            assert!(
                mon.first_warn_at().is_some(),
                "no Warn alert journalled under jitter"
            );
        });
    }

    #[test]
    fn detection_latency_bounded_by_timeout_plus_interval() {
        for timeout_ms in [20u64, 80, 150] {
            let mut tb = testbed(DetectorConfig {
                interval: SimDuration::from_millis(timeout_ms / 4),
                timeout: SimDuration::from_millis(timeout_ms),
            });
            tb.run_for(SimDuration::from_millis(40));
            let killed = tb.sim.now();
            tb.kill_primary();
            tb.run_for(SimDuration::from_secs(2));
            let s = tb.secondary.unwrap();
            let detected = tb.failover_detected_at(s).expect("fired");
            let lat = detected.duration_since(killed).as_millis();
            let interval_ms = timeout_ms / 4;
            // The last heartbeat may have landed up to one interval
            // before the kill, so detection can fire that much sooner
            // relative to the kill instant.
            assert!(
                lat + interval_ms >= timeout_ms,
                "early: {lat}ms for timeout {timeout_ms}ms"
            );
            assert!(
                lat <= timeout_ms + interval_ms + 20,
                "late: {lat}ms for timeout {timeout_ms}ms"
            );
        }
    }
}
