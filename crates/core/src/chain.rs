//! Daisy-chained N-way replication — the extension §1 of the paper
//! names but leaves out of scope: *"Higher degrees of replication can
//! be achieved by daisy-chaining multiple backup servers."*
//!
//! The chain `head ← B1 ← B2 ← … ← tail` is one bridge at every
//! position: a [`PrimaryBridge`] with a role ([`PrimaryBridge::link`]),
//! the §3 merge of its own TCP output against the stream diverted from
//! below. Position decides the rest:
//!
//! * below the head, a link diverts its output one hop up (carrying the
//!   original destination option), re-addresses client datagrams to its
//!   own address, and drops a designated non-SYN segment of a flow it
//!   never witnessed (§8);
//! * the **tail** is a link with nobody below it: §6 from the start, its
//!   every flow a pass-through entry at `Δseq = 0` — the pair's S;
//! * the **head** has no upstream — its output goes to the client, from
//!   the VIP.
//!
//! Only segments of failover connections are routed this way: a link's
//! other traffic passes through untouched.
//!
//! The client-facing sequence space is the **tail's** space: each link
//! normalises its own ISN against the merged stream from below, so the
//! invariant of §2 holds transitively — a byte is released to the
//! client only when *every* replica has produced it, and
//! `ack = min(ack_all)`, `win = min(win_all)`, `MSS = min(MSS_all)`.
//!
//! Failures heal locally (one failure at a time, like the paper's
//! two-node system):
//!
//! * **head dies** → its neighbour promotes: stop diverting, take over
//!   the VIP (gratuitous ARP). With a replica below it, ingress
//!   translation *continues* (its TCBs stay keyed to its own address);
//!   with nobody below, it re-keys its TCBs to the VIP, as the pair's S
//!   does.
//! * **middle dies** → its neighbours re-target each other; all
//!   `Δseq`s and queue state stay valid because everything is in the
//!   tail's space.
//! * **tail dies** → its upstream applies §6 (flush + Δ-adjusted
//!   pass-through) while continuing to divert upstream: one link
//!   shorter, same protocol.
//!
//! # The control plane
//!
//! [`ChainController`] is the fault detector and the §5/§6 procedures
//! at every depth — the paper's two-node system is the chain of length
//! two. Every replica heartbeats every living peer; silence past the
//! detector timeout declares a peer dead (a peer never heard from gets
//! three timeouts: a replica joining a loaded chain hears its first
//! beats late). As in the paper's §5, a replica takes over the moment
//! it holds every replica above it dead, at every depth, with
//! *audit-log-before-act* ordering: the decision is journaled and
//! recorded on the invariant auditor **before** the topology mutates.
//! Besides that verdict the controller raises one alert: a peer silent
//! for `WARN_MISSES` heartbeat intervals is journaled as a
//! `health.alert` to `warn`, and back to `ok` once it beats again; no
//! decision reads it. A peer never heard from is not warned about
//! until a timeout before its verdict. The commit ends by expiring the
//! retransmission timers of the failover sockets: what they have in
//! flight went to the dead replica, and the client should not wait out
//! an RTO to learn it.
//! After any takeover the chain can be re-provisioned — see
//! [`crate::reprovision`].

use crate::designation::FailoverConfig;
use crate::detector::DetectorConfig;
use crate::flow::FlowTableConfig;
use crate::observers::Observers;
use crate::primary::{PrimaryBridge, PrimaryMode};
use bytes::Bytes;
use std::any::Any;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_net::ShardExecutor;
use tcpfo_tcp::filter::{AddressedSegment, BatchDir, FailoverRule, FilterOutput, SegmentFilter};
use tcpfo_tcp::host::{HostController, HostServices};
use tcpfo_telemetry::{Counter, Gauge, SpanTrack, StageLatency, Telemetry};
use tcpfo_wire::heartbeat::{Heartbeat, PROTO_HEARTBEAT};
use tcpfo_wire::ipv4::Ipv4Addr;

/// [`PrimaryBridge::link`] under the name a link had as a type of its
/// own; `as_any_mut` hands out the bridge it holds. Pinned, like the
/// four observer setters, by `benchmark/README.md` § What the benchmark
/// calls; nothing else uses it and ROADMAP direction 2 deletes it.
///
/// ```
/// use tcpfo_core::{ChainBridge, FailoverConfig};
/// let [vip, own, tail] = [2, 3, 4].map(|h| tcpfo_wire::ipv4::Ipv4Addr::new(10, 0, 0, h));
/// let _middle = ChainBridge::new(vip, own, Some(vip), tail, FailoverConfig::from_ports([80]));
/// ```
#[derive(Debug)]
pub struct ChainBridge(PrimaryBridge);

#[allow(missing_docs)] // each is the `PrimaryBridge` method of its name
impl ChainBridge {
    pub fn new(
        vip: Ipv4Addr,
        own: Ipv4Addr,
        upstream: Option<Ipv4Addr>,
        downstream: Ipv4Addr,
        config: FailoverConfig,
    ) -> Self {
        ChainBridge(PrimaryBridge::link(
            vip,
            own,
            upstream,
            Some(downstream),
            config,
        ))
    }
    pub fn set_flow_config(&mut self, config: FlowTableConfig) {
        self.0.set_flow_config(config);
    }
    pub fn process_batch(
        &mut self,
        batch: Vec<(BatchDir, AddressedSegment)>,
        now_nanos: u64,
        exec: &ShardExecutor,
    ) -> Vec<FilterOutput> {
        self.0.process_batch(batch, now_nanos, exec)
    }
}

impl SegmentFilter for ChainBridge {
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
    fn latency_stages(&self) -> Option<&StageLatency> {
        self.0.latency_stages()
    }
    fn trace_context(&self) -> Option<tcpfo_telemetry::SpanContext> {
        self.0.trace_context()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut self.0
    }
}

// ---------------------------------------------------------------------
// The control plane
// ---------------------------------------------------------------------

/// What the detector knows of one peer beside its silence.
#[derive(Clone, Copy, Default)]
struct PeerTracker {
    /// A beat from it has counted as liveness: its silence is a verdict
    /// after one timeout, not after `UNHEARD_PEER_GRACE`.
    heard: bool,
    /// Its `health.alert` stands at `warn`.
    warned: bool,
}

/// Heartbeat intervals of silence at which a live peer is journaled as
/// a `health.alert` to `warn`. At the default detector (10 ms beats,
/// 50 ms timeout) 2 misses is where the 0–100 score this alert replaced
/// first read `Warn` on a silent peer; under staged degradation the
/// first such silence still comes 603 ms before the takeover (the
/// score's first `Warn` came 613 ms before it).
pub(crate) const WARN_MISSES: u32 = 2;

/// Registry scope, journal scope and span lane of the controller at
/// each chain position. Every replica has its own hub, so the position
/// no longer tells two controllers apart; the names stay because the
/// journal goldens pin `core.control.r<i>`. Span lanes are `&'static
/// str`, hence a table — positions past it share its last entry.
const SCOPES: [&str; 4] = [
    "core.control.r0",
    "core.control.r1",
    "core.control.r2",
    "core.control.rN",
];

/// Registry handles for one controller, under its [`SCOPES`] entry.
struct Instruments {
    hub: Telemetry,
    scope: &'static str,
    /// Each peer's `<scope>.peer<i>.health.{state, misses}`, parallel
    /// to the chain, made when the peer is first published.
    peers: Vec<Option<[Gauge; 2]>>,
    heartbeats_sent: Counter,
    heartbeats_received: Counter,
    late_heartbeats: Counter,
    rejoins: Counter,
    promotions: Counter,
}

/// Detector timeouts of silence after which a peer this controller has
/// never heard from is declared dead. One timeout proves too little: the
/// silence of a peer whose first beat is still queued behind its bulk
/// data is the joiner's youth, not the peer's death.
const UNHEARD_PEER_GRACE: u32 = 3;

/// When the new VIP holder repeats its takeover's gratuitous ARP: one
/// repeat, this long after the commit (RFC 5227 §1.1's
/// `ANNOUNCE_INTERVAL`, with `ANNOUNCE_NUM` = 2). No device ages a
/// neighbour entry, so a lost announcement would leave the router
/// sending the client's segments to the dead holder's NIC for good.
const ANNOUNCE_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// The bridge this host runs, at whatever position.
pub(crate) fn merge_bridge(filter: &mut dyn SegmentFilter) -> Option<&mut PrimaryBridge> {
    filter.as_any_mut().downcast_mut::<PrimaryBridge>()
}

/// What watches the bridge this host runs.
pub(crate) fn observers_of(filter: &mut dyn SegmentFilter) -> Option<&mut Observers> {
    merge_bridge(filter).map(PrimaryBridge::observers_mut)
}

/// Fault detection and the §5/§6 procedures for one replica — the one
/// control plane at every replication depth. The paper's P/S pair is
/// the chain `[a_p, a_s]`: P is the head, S is the tail.
///
/// Every replica heartbeats every living peer, and declares a peer dead
/// when its silence exceeds the detector timeout; a peer not heard from
/// even once is given `UNHEARD_PEER_GRACE` timeouts. `WARN_MISSES`
/// intervals of silence raise a `health.alert` first (for a peer not
/// heard from, no earlier than a timeout before its verdict), which no
/// decision below reads. What the survivor then does follows from who is left:
///
/// * **nobody alive above me** → §5: the intent journaled and noted on
///   the auditor *before* anything changes, then
///   [`PrimaryBridge::promote_to_head`] — stop diverting; with nobody
///   below, also leave promiscuous mode and re-key the failover TCBs to
///   the VIP — take over the VIP (gratuitous ARP), retransmit what the
///   failover TCBs have in flight, resume as the head;
/// * **nobody alive below me** and my bridge still merges → §6: flush
///   the primary output queues, stop delaying output — but keep
///   subtracting `Δseq`;
/// * otherwise re-target the neighbours around the gap.
///
/// A beat from a peer already declared dead is *late* — counted,
/// journaled, never liveness — until [`ChainController::append_replica`]
/// re-admits it, when a rebooted peer has been handed the live flows
/// ([`crate::reprovision`]). Like the paper's two-node system, one
/// failure is handled at a time; concurrent failures heal sequentially
/// as they are detected.
pub struct ChainController {
    /// Replica addresses, head first. `chain[0]` owns the VIP at start.
    chain: Vec<Ipv4Addr>,
    my_index: usize,
    config: DetectorConfig,
    alive: Vec<bool>,
    last_heard: Vec<Option<SimTime>>,
    /// Per-peer watermark of already-traced heartbeat misses, so a
    /// silent peer yields one `hb.miss` instant per missed beat.
    traced_misses: Vec<u32>,
    trackers: Vec<PeerTracker>,
    next_send: SimTime,
    /// Global heartbeat sequence (one per send round, shared across
    /// peers).
    send_seq: u64,
    telemetry: Option<Instruments>,
    /// When this replica last declared a peer dead, if it ever did.
    pub detected_at: Option<SimTime>,
    /// When this replica promoted itself to head, if it did.
    pub promoted_at: Option<SimTime>,
    /// When the takeover's announcement is repeated, until it is.
    announce_at: Option<SimTime>,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Heartbeats from a peer already declared dead (counted and
    /// journaled, never trusted for liveness).
    pub late_heartbeats: u64,
    /// Times a declared-dead peer was re-admitted.
    pub rejoins: u64,
    /// Always 0: no promotion waits on anything but the detector. Kept
    /// because the standing benchmark reads it (ROADMAP 8).
    pub promotions_vetoed: u64,
}

impl ChainController {
    /// Creates the controller for `chain[my_index]`.
    ///
    /// # Panics
    ///
    /// Panics if `my_index` is out of range or the chain has fewer than
    /// two replicas.
    pub fn new(chain: Vec<Ipv4Addr>, my_index: usize, config: DetectorConfig) -> Self {
        assert!(chain.len() >= 2, "a chain needs at least two replicas");
        assert!(my_index < chain.len());
        let n = chain.len();
        ChainController {
            chain,
            my_index,
            config,
            alive: vec![true; n],
            last_heard: vec![None; n],
            traced_misses: vec![0; n],
            trackers: vec![PeerTracker::default(); n],
            next_send: SimTime::ZERO,
            send_seq: 0,
            telemetry: None,
            detected_at: None,
            promoted_at: None,
            announce_at: None,
            heartbeats_sent: 0,
            heartbeats_received: 0,
            late_heartbeats: 0,
            rejoins: 0,
            promotions_vetoed: 0,
        }
    }

    /// The VIP this chain serves.
    pub fn vip(&self) -> Ipv4Addr {
        self.chain[0]
    }

    /// Whether peer `i` is currently considered alive.
    pub fn peer_alive(&self, i: usize) -> bool {
        self.alive.get(i).copied().unwrap_or(false)
    }

    /// Admits the replica at `addr` below the survivors: a fresh
    /// standby is appended to the chain's tail end, tracked and
    /// heartbeated like any founding member. A peer already in the
    /// chain and declared dead — rebooted, and handed the live flows —
    /// is alive again from `now`, and counts as a rejoin.
    pub fn append_replica(&mut self, addr: Ipv4Addr, now: SimTime) {
        if let Some(i) = self.chain.iter().position(|&a| a == addr) {
            if !self.alive[i] {
                self.alive[i] = true;
                self.last_heard[i] = None;
                self.traced_misses[i] = 0;
                self.rejoins += 1;
                self.event(
                    "rejoin",
                    now,
                    &[("peer", addr.to_string())],
                    [Some(("peer", i as u64)), None],
                );
            }
            return;
        }
        if let Some(t) = &mut self.telemetry {
            t.peers.push(None);
        }
        self.chain.push(addr);
        self.alive.push(true);
        self.last_heard.push(None);
        self.traced_misses.push(0);
        self.trackers.push(PeerTracker::default());
    }

    /// Pre-marks a peer as dead (a reprovisioned replica joining an
    /// already-degraded chain must not wait a full timeout to learn
    /// what the survivors already know).
    pub fn set_peer_dead(&mut self, addr: Ipv4Addr) {
        if let Some(i) = self.chain.iter().position(|&a| a == addr) {
            self.alive[i] = false;
        }
    }

    /// Connects the controller to a telemetry hub: heartbeat, rejoin
    /// and promotion counters and every peer's alert state under
    /// `core.control.r<position>`, and every liveness/promotion moment
    /// as one [`Telemetry::event`] (the vocabulary is one table in
    /// DESIGN.md).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let name = SCOPES[self.my_index.min(SCOPES.len() - 1)];
        let scope = telemetry.registry.scope(name);
        self.telemetry = Some(Instruments {
            hub: telemetry.clone(),
            scope: name,
            peers: vec![None; self.chain.len()],
            heartbeats_sent: scope.counter("heartbeats_sent"),
            heartbeats_received: scope.counter("heartbeats_received"),
            late_heartbeats: scope.counter("late_heartbeats"),
            rejoins: scope.counter("rejoins"),
            promotions: scope.counter("promotions"),
        });
    }

    /// One control-plane moment ([`Telemetry::event`]): its journal
    /// entry (`fields`), its span instant (`args`) and the §5 phase it
    /// names, if any.
    fn event(
        &self,
        name: &'static str,
        now: SimTime,
        fields: &[(&str, String)],
        args: [Option<(&'static str, u64)>; 2],
    ) {
        if let Some(t) = &self.telemetry {
            t.hub.event(now.as_nanos(), t.scope, name, fields, args);
        }
    }

    /// The heartbeat cadence (`hb.send`, `hb.miss`): a span instant
    /// only, because a journal entry per beat would flood the ring. One
    /// check for the span ring when the tracer is detached.
    fn cadence(&self, name: &'static str, now: SimTime, args: [Option<(&'static str, u64)>; 2]) {
        if let Some(t) = &self.telemetry {
            let at = now.as_nanos();
            (t.hub.trace).instant_args(SpanTrack::Control, t.scope, name, at, args);
        }
    }

    /// What `now - last` of silence means: the whole heartbeat
    /// intervals missed (what the alert reads) and whether the §2
    /// boundary is crossed. Silence *strictly longer* than the timeout
    /// declares the peer dead: at exactly `timeout` the decision still
    /// waits one nanosecond.
    pub(crate) fn silence(&self, last: SimTime, now: SimTime) -> (u32, bool) {
        let silence = now.duration_since(last);
        let interval = self.config.interval.as_nanos().max(1);
        let misses = (silence.as_nanos() / interval).min(u64::from(u32::MAX)) as u32;
        (misses, silence > self.config.timeout)
    }

    /// [`UNHEARD_PEER_GRACE`] detector timeouts.
    fn grace(&self) -> SimDuration {
        self.config
            .timeout
            .saturating_mul(u64::from(UNHEARD_PEER_GRACE))
    }

    fn nearest_alive_up(&self) -> Option<usize> {
        (0..self.my_index).rev().find(|&i| self.alive[i])
    }

    fn nearest_alive_down(&self) -> Option<usize> {
        (self.my_index + 1..self.chain.len()).find(|&i| self.alive[i])
    }

    /// Applies the current liveness view to the bridge and the host.
    fn reconfigure(&mut self, services: &mut HostServices<'_, '_>) {
        let vip = self.vip();
        let up = self.nearest_alive_up().map(|i| self.chain[i]);
        let down = self.nearest_alive_down().map(|i| self.chain[i]);
        let now = services.now;
        let now_nanos = now.as_nanos();

        // Would the topology change make us head? Only a bridge that is
        // not the head yet may answer yes — anything else would journal
        // a `promote` decision that no commit ever follows.
        let promote = up.is_none()
            && self.promoted_at.is_none()
            && merge_bridge(services.filter).is_some_and(|link| !link.is_head());
        let mut promo_span = None;
        if promote {
            // The promotion span brackets decision → VIP commit; the
            // takeover-step instants below nest under it.
            promo_span = self.telemetry.as_ref().and_then(|t| {
                t.hub
                    .trace
                    .begin(SpanTrack::Control, t.scope, "promotion", now_nanos)
            });
            // Audit-log-before-act: the decision reaches the journal and
            // the auditor before any topology mutation below.
            self.event("promote", now, &[("vip", vip.to_string())], [None, None]);
            if let Some(o) = observers_of(services.filter) {
                o.promotion_decided(now_nanos);
            }
        }

        // Phase 1: mutate the bridge, collecting host-side follow-ups.
        let mut flush: Option<FilterOutput> = None;
        let mut take_vip = false;
        let mut rekey = None;
        if let Some(link) = merge_bridge(services.filter) {
            // Below: re-target around a gap, or §6 when nothing is left
            // there (a tail is in §6 from the start).
            match down {
                Some(d) => link.set_downstream(d),
                None if link.mode() == PrimaryMode::Normal => {
                    flush = Some(link.secondary_failed(now_nanos));
                }
                None => {}
            }
            // Above: a head stays a head (the pair's P is one for life).
            match up {
                Some(u) if !link.is_head() => link.set_upstream(u),
                None if promote => {
                    // §5 steps 1 and 3–4 are one moment: the controller
                    // holds egress, switches the translations off and
                    // claims the VIP at one instant, so no segment meets
                    // a bridge holding its egress.
                    self.event("takeover", now, &[], [None, None]);
                    rekey = link.promote_to_head(now_nanos);
                    take_vip = true;
                }
                _ => {}
            }
        }

        // Phase 2: host-side effects, with the filter borrow released.
        if let Some(out) = flush {
            // §6: the link below is gone. The flushed queues go to the
            // client (or one hop up); from here on output is no longer
            // delayed, only Δseq-adjusted.
            self.event("downstream_failed", now, &[], [None, None]);
            services.dispatch(out);
        }
        if take_vip {
            if let Some(own) = rekey {
                // Nobody below: step 2, then the stack half of step 5 —
                // re-keying the failover TCBs from our own address to
                // the VIP (see DESIGN.md §2 for why this is needed).
                services.net.promiscuous = false;
                services.stack.rebind_local_ip(own, vip);
            }
            if !services.net.local_ips.contains(&vip) {
                services.net.local_ips.push(vip);
            }
            // First clear the road: frames still queued for the peers held
            // dead would leave ahead of the ARP and every retransmission.
            let (mut frames, mut freed) = (0, 0);
            for i in (0..self.chain.len()).filter(|&i| !self.alive[i]) {
                let (n, time) = (services.net).withdraw_frames_to(self.chain[i], services.ctx);
                frames += n;
                freed += time.as_nanos();
            }
            self.event(
                "takeover.withdraw",
                now,
                &[
                    ("frames", frames.to_string()),
                    ("freed_ns", freed.to_string()),
                ],
                [Some(("frames", frames)), Some(("freed_ns", freed))],
            );
            services.net.gratuitous_arp(vip, services.ctx);
            self.event(
                "takeover.arp",
                now,
                &[("vip", vip.to_string())],
                [Some(("vip", u64::from(u32::from(vip)))), None],
            );
            // "After the change of IP address is completed, the bridge
            // resumes sending TCP segments" — and what the failover
            // sockets have in flight was diverted to the replica just
            // declared dead. TCP would find that out one backed-off RTO
            // later; the controller knows it now, so the timers expire
            // now and the retransmissions follow the ARP. What still
            // stands ahead of those segments is this host's transmit
            // backlog, recorded beside the count.
            let flows = services.stack.expire_failover_retransmission_timers(now) as u64;
            let backlog_ns = services.net.transmit_backlog(now).as_nanos();
            self.event(
                "takeover.retransmit",
                now,
                &[
                    ("flows", flows.to_string()),
                    ("backlog_ns", backlog_ns.to_string()),
                ],
                [Some(("flows", flows)), Some(("backlog_ns", backlog_ns))],
            );
            self.promoted_at = Some(now);
            self.announce_at = Some(now + ANNOUNCE_INTERVAL);
            if let Some(t) = &self.telemetry {
                t.promotions.inc();
            }
            // Commit record: checked against the decision stamp by the
            // auditor's promotion-order rule.
            self.event("promoted", now, &[("vip", vip.to_string())], [None, None]);
            if let Some(o) = observers_of(services.filter) {
                o.promotion_committed(now_nanos);
            }
        }
        if let (Some(t), Some(span)) = (&self.telemetry, promo_span) {
            t.hub.trace.end(&span, now_nanos);
        }
    }

    /// The takeover's announcement, once more ([`ANNOUNCE_INTERVAL`]),
    /// from a host that still holds the VIP.
    fn announce(&mut self, services: &mut HostServices<'_, '_>) {
        let vip = self.vip();
        if !services.net.local_ips.contains(&vip) {
            return;
        }
        services.net.gratuitous_arp(vip, services.ctx);
        self.event(
            "takeover.announce",
            services.now,
            &[("vip", vip.to_string())],
            [Some(("vip", u64::from(u32::from(vip)))), None],
        );
    }

    /// The miss-count alert on live peer `i`: one `health.alert` to
    /// `warn` when its silence reaches [`WARN_MISSES`] intervals, unless
    /// it is `graced`, and one back to `ok` at the first tick below
    /// that; then its `health.state` (0 ok, 1 warn) and `health.misses`
    /// gauges.
    fn alert(&mut self, i: usize, misses: u32, graced: bool, now: SimTime) {
        let warn = misses >= WARN_MISSES && !graced;
        if warn != self.trackers[i].warned {
            self.trackers[i].warned = warn;
            let (from, to, reason) = match warn {
                true => ("ok", "warn", "misses"),
                false => ("warn", "ok", "recovered"),
            };
            self.event(
                "health.alert",
                now,
                &[
                    ("peer", self.chain[i].to_string()),
                    ("from", from.to_string()),
                    ("to", to.to_string()),
                    ("misses", misses.to_string()),
                    ("reason", reason.to_string()),
                ],
                [
                    Some(("peer", i as u64)),
                    Some(("misses", u64::from(misses))),
                ],
            );
        }
        if let Some(t) = &mut self.telemetry {
            let [state, missed] = t.peers[i].get_or_insert_with(|| {
                let h = t
                    .hub
                    .registry
                    .scope(t.scope)
                    .scope(&format!("peer{i}.health"));
                [h.gauge("state"), h.gauge("misses")]
            });
            state.set_at(u64::from(warn), now.as_nanos());
            missed.set_at(u64::from(misses), now.as_nanos());
        }
    }
}

impl HostController for ChainController {
    fn on_tick(&mut self, services: &mut HostServices<'_, '_>) {
        let now = services.now;
        if now >= self.next_send {
            let seq = self.send_seq;
            self.send_seq += 1;
            // Living peers only: a beat to a peer declared dead would
            // occupy the shared segment for nobody — after §5 its
            // address is our own.
            for i in 0..self.chain.len() {
                if i == self.my_index || !self.alive[i] {
                    continue;
                }
                let beat = Heartbeat { seq };
                services.send_raw(
                    PROTO_HEARTBEAT,
                    self.chain[i],
                    Bytes::copy_from_slice(&beat.encode()),
                );
                self.heartbeats_sent += 1;
            }
            // One instant per fan-out round, not per peer: the trace
            // shows the heartbeat cadence without N-way noise.
            self.cadence("hb.send", now, [Some(("seq", seq)), None]);
            self.next_send = now + self.config.interval;
        }
        if self.announce_at.is_some_and(|at| now >= at) {
            self.announce_at = None;
            self.announce(services);
        }
        if let Some(t) = &self.telemetry {
            t.heartbeats_sent.set_at_least(self.heartbeats_sent);
            t.heartbeats_received.set_at_least(self.heartbeats_received);
            t.late_heartbeats.set_at_least(self.late_heartbeats);
            t.rejoins.set_at_least(self.rejoins);
        }

        // Every live peer: misses from silence, then the alert — before
        // the binary check, so a `warn` on a silent peer is journaled
        // strictly before the timeout decision, which alone declares
        // death.
        let mut changed = false;
        for i in 0..self.chain.len() {
            if i == self.my_index || !self.alive[i] {
                continue;
            }
            // The first tick starts the silence clock. Silence past the
            // timeout is a verdict on a peer that has been heard. One
            // that never has gets the grace: a replica joining a loaded
            // chain starts this clock at its own first tick, the
            // survivors' first beats reach it a timeout or more later
            // (they queue behind bulk data in the senders' transmit
            // path), and a joiner that called them dead would take the
            // VIP from under the head it was provisioned to back up.
            let last = *self.last_heard[i].get_or_insert(now);
            let (misses, silent) = self.silence(last, now);
            let heard = self.trackers[i].heard;
            let expired = silent && (heard || now.duration_since(last) > self.grace());
            // One `hb.miss` instant per whole silent interval, not per
            // tick.
            if misses > self.traced_misses[i] {
                self.cadence(
                    "hb.miss",
                    now,
                    [
                        Some(("peer", i as u64)),
                        Some(("misses", u64::from(misses))),
                    ],
                );
            }
            self.traced_misses[i] = misses;
            // The alert gives a peer never heard from the same grace,
            // which still ends a timeout before the verdict: a rebooted
            // replica waits out the silence of a head that beats no
            // peer it holds dead until it re-admits it.
            let graced = !heard && now.duration_since(last) <= self.grace() - self.config.timeout;
            self.alert(i, misses, graced, now);
            if expired {
                self.alive[i] = false;
                changed = true;
                self.detected_at = Some(now);
                self.event(
                    "peer_dead",
                    now,
                    &[
                        ("peer", self.chain[i].to_string()),
                        ("misses", misses.to_string()),
                    ],
                    [
                        Some(("peer", i as u64)),
                        Some(("misses", u64::from(misses))),
                    ],
                );
            }
        }

        if changed {
            self.reconfigure(services);
        }
    }

    fn on_raw(
        &mut self,
        proto: u8,
        src: Ipv4Addr,
        _payload: &[u8],
        services: &mut HostServices<'_, '_>,
    ) {
        if proto != PROTO_HEARTBEAT {
            return;
        }
        // A beat claiming our own address says nothing about any peer:
        // every host on the segment can forge one.
        let Some(i) = self
            .chain
            .iter()
            .position(|&a| a == src)
            .filter(|&i| i != self.my_index)
        else {
            return;
        };
        let now = services.now;
        if !self.alive[i] {
            // Late: e.g. a frame that sat in a queue, or a rebooted
            // host that holds no flow yet (`append_replica` re-admits
            // it once it does). Trusting it would reset the miss count
            // for a replica that has been replaced.
            self.late_heartbeats += 1;
            self.event(
                "late_heartbeat",
                now,
                &[("peer", src.to_string())],
                [Some(("peer", i as u64)), None],
            );
            return;
        }
        self.heartbeats_received += 1;
        self.last_heard[i] = Some(now);
        self.traced_misses[i] = 0;
        // Any beat is liveness (§2): the payload says nothing more.
        self.trackers[i].heard = true;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for ChainController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainController")
            .field("chain", &self.chain)
            .field("my_index", &self.my_index)
            .field("alive", &self.alive)
            .field("promoted_at", &self.promoted_at)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tcpfo_wire::tcp::{verify_segment_checksum, SegmentPatcher, TcpFlags, TcpSegment};

    const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
    const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2); // head's address
    const B1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3); // middle
    const B2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4); // tail

    fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
        AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
    }

    /// Diverts `seg` the way a downstream node at `from` would, to `to`.
    fn divert(seg: TcpSegment, from: Ipv4Addr, to: Ipv4Addr) -> AddressedSegment {
        let bytes = seg.encode(from, A_C).to_vec();
        let mut p = SegmentPatcher::new(bytes, from, A_C);
        p.push_orig_dest_option(A_C, 5555);
        p.set_pseudo_dst(to);
        let (bytes, src, dst) = p.finish();
        AddressedSegment::new(src, dst, bytes)
    }

    fn middle() -> PrimaryBridge {
        PrimaryBridge::link(
            VIP,
            B1,
            Some(VIP),
            Some(B2),
            FailoverConfig::from_ports([80]),
        )
    }

    #[test]
    fn middle_diverts_merged_output_upstream() {
        let mut b = middle();
        // Client SYN (snooped at the middle).
        let syn = raw(
            A_C,
            VIP,
            TcpSegment::builder(5555, 80)
                .seq(100)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60000)
                .build(),
        );
        let out = b.on_inbound(syn, 0);
        assert_eq!(out.to_tcp.len(), 1);
        assert_eq!(out.to_tcp[0].dst, B1, "ingress rewritten to own address");
        // Own TCP's SYN+ACK: held.
        let own = raw(
            B1,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(7_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        assert!(b.on_outbound(own, 0).to_wire.is_empty());
        // Tail's SYN+ACK arrives diverted to us: merge and divert up.
        let tail = divert(
            TcpSegment::builder(80, 5555)
                .seq(9_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1100)
                .window(40_000)
                .build(),
            B2,
            B1,
        );
        let out = b.on_inbound(tail, 0);
        assert_eq!(out.to_wire.len(), 1);
        let w = &out.to_wire[0];
        assert_eq!(w.dst, VIP, "merged SYN+ACK diverted to the head");
        assert_eq!(w.src, B1, "source rewritten from VIP to own");
        assert!(verify_segment_checksum(w.src, w.dst, &w.bytes));
        let seg = TcpSegment::decode(&w.bytes).unwrap();
        assert_eq!(seg.seq, 9_000, "tail's sequence space");
        assert_eq!(seg.mss(), Some(1100), "min MSS propagates up");
        assert_eq!(seg.orig_dest(), Some((A_C, 5555)), "orig-dest restored");
        assert_eq!(b.stats.diverted_upstream, 1);
        assert_eq!(b.stats.divert_fallbacks, 0);
    }

    #[test]
    fn promoted_middle_emits_directly_to_client() {
        let mut b = middle();
        // Establish (as above, terse).
        let syn = raw(
            A_C,
            VIP,
            TcpSegment::builder(5555, 80)
                .seq(100)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60000)
                .build(),
        );
        let _ = b.on_inbound(syn, 0);
        let own = raw(
            B1,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(7_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        let _ = b.on_outbound(own, 0);
        let tail = divert(
            TcpSegment::builder(80, 5555)
                .seq(9_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(40_000)
                .build(),
            B2,
            B1,
        );
        let _ = b.on_inbound(tail, 0);
        assert!(!b.is_head());
        assert_eq!(b.promote_to_head(0), None, "a replica below: no re-key");
        assert!(b.is_head());
        // Matched data now goes straight to the client, stamped VIP.
        let own_data = raw(
            B1,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(7_001)
                .ack(101)
                .window(50_000)
                .payload(Bytes::from_static(b"xyz"))
                .build(),
        );
        let _ = b.on_outbound(own_data, 0);
        let tail_data = divert(
            TcpSegment::builder(80, 5555)
                .seq(9_001)
                .ack(101)
                .window(40_000)
                .payload(Bytes::from_static(b"xyz"))
                .build(),
            B2,
            B1,
        );
        let out = b.on_inbound(tail_data, 0);
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!(out.to_wire[0].dst, A_C, "straight to the client");
        assert_eq!(out.to_wire[0].src, VIP, "stamped with the VIP");
        let seg = TcpSegment::decode(&out.to_wire[0].bytes).unwrap();
        assert!(
            seg.orig_dest().is_none(),
            "no internal option to the client"
        );
        assert_eq!(seg.seq, 9_001);
    }

    #[test]
    fn set_downstream_keeps_merging_after_heal() {
        let mut b = middle();
        let syn = raw(
            A_C,
            VIP,
            TcpSegment::builder(5555, 80)
                .seq(100)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60000)
                .build(),
        );
        let _ = b.on_inbound(syn, 0);
        let own = raw(
            B1,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(7_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        let _ = b.on_outbound(own, 0);
        let tail = divert(
            TcpSegment::builder(80, 5555)
                .seq(9_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(40_000)
                .build(),
            B2,
            B1,
        );
        let _ = b.on_inbound(tail, 0);
        // The tail B2 dies and a deeper node B3 takes over as our
        // downstream — same sequence space, new source address.
        let b3 = Ipv4Addr::new(10, 0, 0, 5);
        b.set_downstream(b3);
        let own_data = raw(
            B1,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(7_001)
                .ack(101)
                .window(50_000)
                .payload(Bytes::from_static(b"hello"))
                .build(),
        );
        let _ = b.on_outbound(own_data, 0);
        let from_b3 = divert(
            TcpSegment::builder(80, 5555)
                .seq(9_001)
                .ack(101)
                .window(40_000)
                .payload(Bytes::from_static(b"hello"))
                .build(),
            b3,
            B1,
        );
        let out = b.on_inbound(from_b3, 0);
        assert_eq!(
            out.to_wire.len(),
            1,
            "merging continues with the new source"
        );
        assert_eq!(out.to_wire[0].dst, VIP);
    }

    #[test]
    fn a_link_leaves_its_hosts_other_traffic_alone() {
        // The host's own client connection to a database: no failover
        // port, no tracked flow. Not the chain's to divert.
        let mut b = middle();
        let db = Ipv4Addr::new(10, 0, 1, 9);
        let syn = TcpSegment::builder(40_000, 5432)
            .seq(1)
            .flags(TcpFlags::SYN)
            .build();
        let out = b.on_outbound(raw(B1, db, syn.clone()), 0);
        assert_eq!(out.to_wire, vec![raw(B1, db, syn)], "byte for byte");
        assert_eq!(b.stats.diverted_upstream, 0);
    }

    #[test]
    fn a_link_leaves_the_vips_other_traffic_alone() {
        // A client's segment for a VIP port that is not a failover port
        // belongs to whoever owns the VIP, not to this link's stack.
        let mut b = middle();
        let ssh = TcpSegment::builder(5555, 22)
            .seq(100)
            .flags(TcpFlags::SYN)
            .build();
        let out = b.on_inbound(raw(A_C, VIP, ssh.clone()), 0);
        assert_eq!(out.to_tcp, vec![raw(A_C, VIP, ssh)], "still the VIP's");
        assert_eq!(b.stats.ingress_rewrites, 0);
        assert_eq!(b.flow_count(), 0);
    }

    #[test]
    fn manual_divert_matches_patcher() {
        // The zero-alloc divert splice must be byte-identical to the
        // SegmentPatcher reference path, header options included.
        for seg in [
            TcpSegment::builder(80, 5555)
                .seq(9_000)
                .ack(101)
                .flags(TcpFlags::SYN)
                .mss(1100)
                .window(40_000)
                .build(),
            TcpSegment::builder(80, 5555)
                .seq(9_001)
                .ack(2_222)
                .window(1)
                .payload(Bytes::from_static(b"payload bytes here"))
                .build(),
            TcpSegment::builder(80, 5555)
                .seq(u32::MAX - 1)
                .ack(0)
                .flags(TcpFlags::FIN)
                .window(0xffff)
                .build(),
        ] {
            // Reference: the patcher path the seed used.
            let bytes = seg.encode(VIP, A_C).to_vec();
            let mut p = SegmentPatcher::new(bytes, VIP, A_C);
            p.push_orig_dest_option(A_C, 5555);
            p.set_pseudo_src(B1);
            p.set_pseudo_dst(VIP);
            let (want_bytes, want_src, want_dst) = p.finish();

            // Manual path: a link in §6 mode passes its TCP layer's
            // segments through as they are, then routes them.
            let mut b = middle();
            let _ = b.secondary_failed(0);
            let out = b.on_outbound(AddressedSegment::new(VIP, A_C, seg.encode(VIP, A_C)), 0);
            assert_eq!(out.to_wire.len(), 1);
            let got = &out.to_wire[0];
            assert_eq!(got.src, want_src);
            assert_eq!(got.dst, want_dst);
            assert_eq!(&got.bytes[..], &want_bytes[..], "byte-identical splice");
            assert!(verify_segment_checksum(got.src, got.dst, &got.bytes));
        }
    }

    #[test]
    fn controller_scores_and_promotes() {
        let c = ChainController::new(vec![VIP, B1, B2], 1, DetectorConfig::default());
        assert_eq!(c.vip(), VIP);
        // Every peer is tracked, presumed alive before its first beat.
        assert!(c.peer_alive(0) && c.peer_alive(2));
        assert!(c.promoted_at.is_none());
    }

    #[test]
    fn silence_is_a_verdict_only_on_a_peer_that_has_been_heard() {
        use crate::chain_testbed::{ChainConfig, ChainTestbed};
        use tcpfo_tcp::host::Host;

        fn controller<R>(
            tb: &mut ChainTestbed,
            i: usize,
            f: impl FnOnce(&mut ChainController) -> R,
        ) -> R {
            let node = tb.replicas[i];
            (tb.sim).with::<Host, _>(node, |h, _| f(h.controller_mut::<ChainController>()))
        }

        let detector = DetectorConfig::default();
        let ms = SimDuration::from_millis;
        let mut tb = ChainTestbed::new(ChainConfig {
            detector,
            ..ChainConfig::default()
        });
        // The head dies before its first beat: nobody ever hears it.
        tb.kill_replica(0);
        tb.run_for(detector.timeout + ms(10));
        controller(&mut tb, 1, |c| {
            assert!(
                c.peer_alive(0),
                "one timeout is no verdict on a never-heard peer"
            );
            assert!(c.peer_alive(2) && c.detected_at.is_none());
        });
        let grace = controller(&mut tb, 1, |c| c.grace());
        tb.run_for(grace - detector.timeout);
        controller(&mut tb, 1, |c| {
            assert!(!c.peer_alive(0), "the grace is");
            // The clock started at replica 1's first tick, at zero.
            assert_eq!(c.detected_at, Some(SimTime::ZERO + grace + ms(1)));
            assert_eq!(c.promoted_at, c.detected_at);
        });

        // A peer that has been heard gets one timeout, as before.
        let killed = tb.sim.now();
        tb.kill_replica(2);
        tb.run_for(detector.timeout + detector.interval + ms(2));
        controller(&mut tb, 1, |c| {
            assert!(!c.peer_alive(2));
            let latency = c.detected_at.unwrap().duration_since(killed);
            assert!(latency <= detector.timeout + detector.interval + ms(1));
        });

        // A joiner told who is dead neither waits for them nor revives
        // them, and has nothing to detect.
        let standby = tb.spawn_standby();
        tb.run_for(grace + grace);
        controller(&mut tb, standby, |c| {
            assert!(!c.peer_alive(0) && !c.peer_alive(2) && c.peer_alive(1));
            assert!(c.detected_at.is_none() && c.promoted_at.is_none());
        });
    }

    #[test]
    fn append_replica_and_set_peer_dead() {
        let b3 = Ipv4Addr::new(10, 0, 0, 5);
        let mut c = ChainController::new(vec![VIP, B1, B2], 2, DetectorConfig::default());
        c.append_replica(b3, SimTime::ZERO);
        assert!(c.peer_alive(3));
        c.set_peer_dead(VIP);
        assert!(!c.peer_alive(0));
        // nearest_alive_up skips the dead head.
        assert_eq!(c.nearest_alive_up(), Some(1));
        assert_eq!(c.nearest_alive_down(), Some(3));
    }
}
