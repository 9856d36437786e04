//! Every `crates/*` item the benchmark calls, in one place.
//!
//! A refactor of the workspace that keeps these entry points
//! source-compatible keeps the benchmark building; `README.md` lists
//! them. No other file of the benchmark names a `tcpfo_*` crate.

use crate::client::LoadClient;
use crate::spans::{NameId, Spans};
use std::any::Any;

use tcpfo_apps::chain_ops;
use tcpfo_apps::stream::{SinkServer, SourceServer};
use tcpfo_core::chain::ChainController;
use tcpfo_core::chain_testbed::{ChainConfig, ChainTestbed};
use tcpfo_core::reprovision::ReprovisionPhase;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_core::{FailoverConfig, SecondaryBridge};
use tcpfo_net::sim::DEFAULT_TRACE_CAPACITY;
use tcpfo_tcp::filter::FailoverRule;
use tcpfo_tcp::host::{CpuModel, Host};
use tcpfo_telemetry::{
    AuditConfig, FailoverPhase, HealthObservatory, InvariantAuditor, SpanContext, StageLatency,
    Telemetry,
};

pub use tcpfo_apps::conn::pattern;
pub use tcpfo_core::flow::{FlowState, FlowTable, FlowTableConfig};
pub use tcpfo_core::queues::ByteQueue;
pub use tcpfo_core::{ChainBridge, PrimaryBridge, PrimaryStats};
pub use tcpfo_net::hub::Hub;
pub use tcpfo_net::link::LinkParams;
pub use tcpfo_net::sim::{Ctx, Device, Simulator, TimerToken};
pub use tcpfo_net::time::{SimDuration, SimTime};
pub use tcpfo_net::ShardExecutor;
pub use tcpfo_tcp::app::{SocketApi, SocketApp};
pub use tcpfo_tcp::config::TcpConfig;
pub use tcpfo_tcp::filter::{AddressedSegment, BatchDir, FilterOutput, FlowKey, SegmentFilter};
pub use tcpfo_tcp::socket::TcpState;
pub use tcpfo_tcp::stack::TcpStack;
pub use tcpfo_tcp::types::{SocketAddr, SocketId};
pub use tcpfo_telemetry::{LatencyObservatory, SpanSampler, Tracer};
pub use tcpfo_wire::checksum::{apply_batch, checksum, ChecksumDelta};
pub use tcpfo_wire::ipv4::Ipv4Addr;
pub use tcpfo_wire::tcp::{
    HeaderTemplate, SegmentPatcher, TcpFlags, TcpSegment, TcpSegmentBuilder,
};

/// The replicated service: `SourceServer` answers `SEND n`.
pub const SOURCE_PORT: u16 = 80;
/// The upload target: `SinkServer` counts and discards.
pub const SINK_PORT: u16 = 81;
/// The virtual service address clients connect to (the primary's).
pub const A_P: Ipv4Addr = addrs::A_P;
/// The secondary's address (diverted segments carry it as source).
pub const A_S: Ipv4Addr = addrs::A_S;

/// Removes every `TCPFO_*` variable so the environment cannot change
/// what is measured. Must run before any other thread exists.
pub fn scrub_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("TCPFO_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

/// Which server configuration a full-path run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One unreplicated server: the paper's "standard TCP".
    Standard,
    /// Replicated pair with the failover bridges.
    Failover,
}

/// The paper-calibrated pair testbed (`paper_testbed` of the old bench
/// crate): 2003-class CPU model with 35 % positive jitter, Nagle off.
/// Every observer and capacity is set explicitly; `observed` attaches
/// the auditor and the health observatory (the failover scenes' oracle).
pub fn pair_config(mode: Mode, seed: u64, observed: bool) -> TestbedConfig {
    let mut cfg = match mode {
        Mode::Standard => TestbedConfig::standard_tcp(),
        Mode::Failover => TestbedConfig::default(),
    };
    cfg.seed = seed;
    cfg.cpu = CpuModel::server_2003().with_jitter(0.35);
    cfg.client_cpu = cfg.cpu.scaled(0.6);
    cfg.tcp.nagle = false;
    if mode == Mode::Failover {
        cfg.failover_ports = vec![SOURCE_PORT, SINK_PORT];
    }
    cfg.audit = Some(observed);
    cfg.health = Some(observed);
    cfg.latency = Some(false);
    cfg.span_trace = Some(false);
    cfg.journal_capacity = Some(tcpfo_telemetry::journal::DEFAULT_CAPACITY);
    cfg.trace_capacity = Some(DEFAULT_TRACE_CAPACITY);
    cfg.flow_shards = Some(1);
    cfg.flow_cap = Some(65_536);
    cfg
}

// ---------------------------------------------------------------------
// Timing wrappers (traced runs only)
// ---------------------------------------------------------------------

/// Times every `poll` of the app it wraps. `as_any_mut` forwards to the
/// inner app, so `Host::app_mut::<Inner>` keeps working.
pub struct TimedApp {
    inner: Box<dyn SocketApp>,
    spans: Spans,
    name: NameId,
}

impl TimedApp {
    pub fn new(inner: Box<dyn SocketApp>, spans: &Spans, name: &'static str) -> Self {
        TimedApp {
            inner,
            spans: spans.clone(),
            name: spans.intern(name),
        }
    }
}

impl SocketApp for TimedApp {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.spans.enter(self.name);
        self.inner.poll(api);
        self.spans.exit();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Times every call into the bridge it wraps. `as_any_mut` forwards to
/// the inner bridge, so controller downcasts keep working.
pub struct TimedFilter {
    inner: Box<dyn SegmentFilter>,
    spans: Spans,
    f_in: NameId,
    f_out: NameId,
    tick: NameId,
}

impl TimedFilter {
    pub fn new(inner: Box<dyn SegmentFilter>, spans: &Spans) -> Self {
        TimedFilter {
            inner,
            spans: spans.clone(),
            f_in: spans.intern("core.filter_in"),
            f_out: spans.intern("core.filter_out"),
            tick: spans.intern("core.tick"),
        }
    }
}

impl SegmentFilter for TimedFilter {
    fn on_outbound_into(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        self.spans.enter(self.f_out);
        self.inner.on_outbound_into(seg, now, out);
        self.spans.exit();
    }

    fn on_inbound_into(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        self.spans.enter(self.f_in);
        self.inner.on_inbound_into(seg, now, out);
        self.spans.exit();
    }

    fn on_tick(&mut self, now: u64) {
        self.spans.enter(self.tick);
        self.inner.on_tick(now);
        self.spans.exit();
    }

    fn designate(&mut self, rule: FailoverRule) {
        self.inner.designate(rule);
    }

    fn latency_stages(&self) -> Option<&StageLatency> {
        self.inner.latency_stages()
    }

    fn trace_context(&self) -> Option<SpanContext> {
        self.inner.trace_context()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The `net.run` span around every call that advances a simulator, when
/// tracing; its self time is the event loop and the stacks together.
struct NetRun(Option<(Spans, NameId)>);

impl NetRun {
    fn new(spans: Option<&Spans>) -> Self {
        NetRun(spans.map(|s| (s.clone(), s.intern("net.run"))))
    }

    fn around<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some((spans, name)) = &self.0 else {
            return f();
        };
        spans.enter(*name);
        let r = f();
        spans.exit();
        r
    }
}

/// Runs `f` on the `LoadClient` installed as app `idx` of host `node`.
fn with_client<R>(
    sim: &mut Simulator,
    node: usize,
    idx: usize,
    f: impl FnOnce(&mut LoadClient) -> R,
) -> R {
    sim.with::<Host, _>(node, |h, _| f(h.app_mut::<LoadClient>(idx)))
}

/// Boxes `app`, wrapped in a [`TimedApp`] when tracing.
fn maybe_timed(
    app: impl SocketApp,
    spans: Option<&Spans>,
    name: &'static str,
) -> Box<dyn SocketApp> {
    match spans {
        Some(s) => Box::new(TimedApp::new(Box::new(app), s, name)),
        None => Box::new(app),
    }
}

fn observers(label: &str, hub: &Telemetry) -> (Box<InvariantAuditor>, Box<HealthObservatory>) {
    (
        Box::new(InvariantAuditor::new(AuditConfig::from_env(label)).with_hub(hub)),
        Box::new(HealthObservatory::new()),
    )
}

// ---------------------------------------------------------------------
// The pair testbed (§5 two-node system, and the standard-TCP baseline)
// ---------------------------------------------------------------------

/// Simulated-time and stack counters read off a finished full-path run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounters {
    pub events: u64,
    pub retransmits: u64,
    pub rto_expiries: u64,
}

pub struct Pair {
    tb: Testbed,
    net_run: NetRun,
    client_app: usize,
    /// Most bytes seen held in the primary's output queues, sampled
    /// after every `run_until` step of a traced replicated run.
    held_bytes_peak: Option<u64>,
}

impl Pair {
    /// Builds the testbed, installs `SourceServer`(80) and
    /// `SinkServer`(81) on every server and `client` on the client host.
    /// With `spans`, every app is wrapped in a [`TimedApp`] and each
    /// bridge is rebuilt exactly as `Testbed::new` builds it and
    /// installed inside a [`TimedFilter`].
    pub fn new(cfg: TestbedConfig, client: LoadClient, spans: Option<&Spans>) -> Self {
        let mut tb = Testbed::new(cfg);
        if let Some(s) = spans {
            if tb.config.replicated {
                wrap_pair_bridges(&mut tb, s);
            }
        }
        let servers: Vec<_> = std::iter::once(tb.primary).chain(tb.secondary).collect();
        for node in servers {
            tb.sim.with::<Host, _>(node, |h, _| {
                h.add_app(maybe_timed(
                    SourceServer::new(SOURCE_PORT),
                    spans,
                    "apps.poll.server",
                ));
                h.add_app(maybe_timed(
                    SinkServer::new(SINK_PORT),
                    spans,
                    "apps.poll.server",
                ));
            });
        }
        let client_app = tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(maybe_timed(client, spans, "apps.poll.client"))
        });
        let sample_held = spans.is_some() && tb.config.replicated;
        Pair {
            tb,
            net_run: NetRun::new(spans),
            client_app,
            held_bytes_peak: sample_held.then_some(0),
        }
    }

    pub fn run_for(&mut self, d: SimDuration) {
        let sim = &mut self.tb.sim;
        self.net_run.around(|| sim.run_for(d));
    }

    /// Runs in `step` slices until `done` or `deadline` elapses.
    pub fn run_until(
        &mut self,
        step: SimDuration,
        deadline: SimDuration,
        mut done: impl FnMut(&mut LoadClient) -> bool,
    ) -> bool {
        let end = self.tb.sim.now() + deadline;
        loop {
            self.run_for(step);
            if let Some(peak) = self.held_bytes_peak {
                self.held_bytes_peak = Some(peak.max(self.held_bytes()));
            }
            if self.client(&mut done) {
                return true;
            }
            if self.tb.sim.now() >= end {
                return false;
            }
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.tb.sim.now().as_nanos()
    }

    pub fn client<R>(&mut self, f: impl FnOnce(&mut LoadClient) -> R) -> R {
        with_client(&mut self.tb.sim, self.tb.client, self.client_app, f)
    }

    pub fn counters(&mut self) -> PathCounters {
        let nodes: Vec<_> = [
            Some(self.tb.client),
            Some(self.tb.primary),
            self.tb.secondary,
        ]
        .into_iter()
        .flatten()
        .collect();
        stack_counters(&mut self.tb.sim, &nodes)
    }

    /// Bytes the sink on the primary swallowed (upload verification).
    pub fn sink_received(&mut self) -> u64 {
        self.tb
            .sim
            .with::<Host, _>(self.tb.primary, |h, _| h.app_mut::<SinkServer>(1).received)
    }

    pub fn primary_stats(&mut self) -> Option<PrimaryStats> {
        self.tb.config.replicated.then(|| self.tb.primary_stats())
    }

    pub fn held_bytes_peak(&self) -> u64 {
        self.held_bytes_peak.unwrap_or(0)
    }

    /// Unmatched bytes held in the primary's output queues now.
    fn held_bytes(&mut self) -> u64 {
        self.tb
            .with_primary_bridge(|b| {
                b.connection_rows()
                    .iter()
                    .map(|r| (r.pq_bytes + r.sq_bytes) as u64)
                    .sum()
            })
            .unwrap_or(0)
    }

    pub fn kill_primary(&mut self) {
        self.tb.kill_primary();
    }

    /// Absolute simulated deadline for [`Pair::run_until`].
    pub fn until(&self, at_ns: u64) -> SimDuration {
        SimDuration::from_nanos(at_ns.saturating_sub(self.now_ns()))
    }

    /// What the scene's oracle and control plane report after a kill.
    pub fn failover_report(&mut self) -> FailoverReport {
        let mut r = FailoverReport::from_hub(&self.tb.telemetry);
        r.audit_violations = self.tb.audit_violations();
        r.trace_ring_dropped = self.tb.sim.trace_dropped();
        r
    }
}

/// Rebuilds both bridges the way `Testbed::new` does (same addresses,
/// designation, flow-table config, telemetry hub and observers) and
/// installs them inside [`TimedFilter`]s. Must run before any event.
fn wrap_pair_bridges(tb: &mut Testbed, spans: &Spans) {
    let cfg = tb.config.clone();
    let flow = FlowTableConfig::new(
        cfg.flow_shards.expect("set by pair_config"),
        cfg.flow_cap.expect("set by pair_config"),
    );
    let observed = cfg.audit == Some(true);
    let fo = || FailoverConfig::from_ports(cfg.failover_ports.iter().copied());

    let mut p = PrimaryBridge::new(addrs::A_P, addrs::A_S, fo());
    p.set_flow_config(flow);
    p.set_telemetry(&tb.telemetry);
    if observed {
        let (audit, health) = observers("primary", &tb.telemetry);
        p.set_audit(Some(audit));
        p.set_health(Some(health));
    }
    let filter = TimedFilter::new(Box::new(p), spans);
    tb.sim
        .with::<Host, _>(tb.primary, |h, _| h.set_filter(Box::new(filter)));

    let mut s = SecondaryBridge::new(addrs::A_P, addrs::A_S, fo());
    s.set_flow_config(flow);
    s.set_telemetry(&tb.telemetry);
    if observed {
        let (audit, health) = observers("secondary", &tb.telemetry);
        s.set_audit(Some(audit));
        s.set_health(Some(health));
    }
    let filter = TimedFilter::new(Box::new(s), spans);
    let node = tb.secondary.expect("replicated");
    tb.sim
        .with::<Host, _>(node, |h, _| h.set_filter(Box::new(filter)));
}

fn stack_counters(sim: &mut Simulator, nodes: &[usize]) -> PathCounters {
    let mut c = PathCounters {
        events: sim.events_processed(),
        ..PathCounters::default()
    };
    for &n in nodes {
        if sim.is_dead(n) {
            continue;
        }
        let (rtx, rto) = sim.with::<Host, _>(n, |h, _| {
            (
                h.stack().total_retransmits(),
                h.stack().total_rto_expiries(),
            )
        });
        c.retransmits += rtx;
        c.rto_expiries += rto;
    }
    c
}

/// Control-plane timings and oracle verdicts of one failover scene.
/// Times are simulated ns since the kill.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Kill → detector declared the replica dead.
    pub detect_ns: Option<u64>,
    /// Kill → takeover committed (gratuitous ARP sent).
    pub takeover_ns: Option<u64>,
    /// `MttrBreakdown`: detection, hold, translation, arp, first byte;
    /// and the total they must sum to.
    pub mttr: Option<([u64; 5], u64)>,
    /// Kill → redundancy restored (chain scenes).
    pub restored_ns: Option<u64>,
    pub reprov_provision_ns: Option<u64>,
    pub reprov_catchup_ns: Option<u64>,
    pub promote_vetoes: u64,
    pub audit_violations: u64,
    /// Unmatched bytes left in the lag ledger at the end (chain scenes).
    pub lag_unmatched_bytes: u64,
    pub journal_dropped: u64,
    pub trace_ring_dropped: u64,
    pub span_ring_dropped: u64,
}

impl FailoverReport {
    fn from_hub(hub: &Telemetry) -> Self {
        let t = &hub.timeline;
        let kill = t.at(FailoverPhase::Failure);
        let since = |p: FailoverPhase| Some(t.at(p)?.saturating_sub(kill?));
        FailoverReport {
            detect_ns: since(FailoverPhase::Detection),
            takeover_ns: since(FailoverPhase::ArpTakeover),
            mttr: t.mttr().map(|m| (m.deltas(), m.total_ns)),
            journal_dropped: hub.journal.dropped(),
            span_ring_dropped: hub.trace.dropped(),
            ..FailoverReport::default()
        }
    }
}

// ---------------------------------------------------------------------
// The chain testbed (3 replicas, reprovisioning)
// ---------------------------------------------------------------------

pub struct Chain {
    tb: ChainTestbed,
    net_run: NetRun,
    client_app: usize,
    kill_ns: Option<u64>,
    reprovisioned: bool,
}

impl Chain {
    /// A 3-replica chain with the auditor and health observatory on
    /// every bridge, serving `SourceServer`(80), with `client` on the
    /// client host. Same CPU calibration as the pair.
    pub fn new(seed: u64, client: LoadClient, spans: Option<&Spans>) -> Self {
        let tcp = TcpConfig {
            nagle: false,
            ..TcpConfig::default()
        };
        let mut tb = ChainTestbed::new(ChainConfig {
            replicas: 3,
            seed,
            failover_ports: vec![SOURCE_PORT],
            cpu: CpuModel::server_2003().with_jitter(0.35),
            tcp,
            audit: Some(true),
            health: Some(true),
            latency: Some(false),
            span_trace: Some(false),
            ..ChainConfig::default()
        });
        // `chain_ops::reprovision_tail` finds the source as app 0.
        for &node in &tb.replicas.clone() {
            tb.sim.with::<Host, _>(node, |h, _| {
                h.add_app(maybe_timed(
                    SourceServer::new(SOURCE_PORT),
                    spans,
                    "apps.poll.server",
                ));
            });
        }
        let client_app = tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(maybe_timed(client, spans, "apps.poll.client"))
        });
        Chain {
            tb,
            net_run: NetRun::new(spans),
            client_app,
            kill_ns: None,
            reprovisioned: false,
        }
    }

    pub fn run_for(&mut self, d: SimDuration) {
        let sim = &mut self.tb.sim;
        self.net_run.around(|| sim.run_for(d));
    }

    pub fn now_ns(&self) -> u64 {
        self.tb.sim.now().as_nanos()
    }

    pub fn client<R>(&mut self, f: impl FnOnce(&mut LoadClient) -> R) -> R {
        with_client(&mut self.tb.sim, self.tb.client, self.client_app, f)
    }

    pub fn kill_head(&mut self) {
        self.kill_ns = Some(self.now_ns());
        self.tb.kill_replica(0);
    }

    fn promoted(&mut self) -> bool {
        let node = self.tb.replicas[1];
        self.tb
            .sim
            .with::<Host, _>(node, |h, _| {
                h.controller_mut::<ChainController>().promoted_at
            })
            .is_some()
    }

    /// Call once per 1 ms poll after the kill: starts the reprovisioning
    /// round at the first poll after promotion commits, then polls it to
    /// `Restored`. Returns whether redundancy is restored.
    pub fn poll_recovery(&mut self) -> bool {
        if !self.reprovisioned {
            if self.promoted() {
                // Runs the standby's 50 ms boot inside: that is net.run too.
                let tb = &mut self.tb;
                self.net_run.around(|| chain_ops::reprovision_tail(tb));
                self.reprovisioned = true;
            }
            return false;
        }
        self.tb.poll_reprovision();
        self.tb.tracker.phase() == ReprovisionPhase::Restored
    }

    pub fn counters(&mut self) -> PathCounters {
        let mut nodes = self.tb.replicas.clone();
        nodes.push(self.tb.client);
        stack_counters(&mut self.tb.sim, &nodes)
    }

    pub fn failover_report(&mut self) -> FailoverReport {
        let mut r = FailoverReport::from_hub(&self.tb.hubs[1]);
        let node = self.tb.replicas[1];
        let (promoted_at, vetoes) = self.tb.sim.with::<Host, _>(node, |h, _| {
            let c = h.controller_mut::<ChainController>();
            (c.promoted_at, c.promotions_vetoed)
        });
        let kill = self.kill_ns;
        r.takeover_ns = promoted_at.and_then(|t| Some(t.as_nanos().saturating_sub(kill?)));
        r.promote_vetoes = vetoes;
        r.reprov_provision_ns = self.tb.tracker.reprovision_ns();
        r.reprov_catchup_ns = self.tb.tracker.catchup_ns();
        if self.tb.tracker.phase() == ReprovisionPhase::Restored {
            // Restoration instant = standby spawn + tracker total.
            r.restored_ns = self.tb.hubs[1]
                .redundancy
                .at(tcpfo_telemetry::timeline::RedundancyPhase::CatchupDone)
                .and_then(|t| Some(t.saturating_sub(kill?)));
        }
        r.audit_violations = self.tb.audit_violations();
        r.lag_unmatched_bytes = self.tb.catchup_lag();
        r.trace_ring_dropped = self.tb.sim.trace_dropped();
        for hub in &self.tb.hubs {
            r.journal_dropped += hub.journal.dropped();
            r.span_ring_dropped += hub.trace.dropped();
        }
        r
    }
}

// ---------------------------------------------------------------------
// The bridge driven alone (no simulator, no stacks)
// ---------------------------------------------------------------------

/// A primary bridge as `bridge_datapath` drives it: port 80 designated,
/// `shards` flow-table shards, `capacity` flows, no observer attached.
pub fn new_primary_bridge(shards: usize, capacity: usize) -> PrimaryBridge {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([SOURCE_PORT]));
    b.set_flow_config(FlowTableConfig::new(shards, capacity));
    b
}

/// A chain middle link with the same merge machinery: every release
/// additionally pays the divert-upstream rewrite. `own == vip`: the
/// scripted segments address the VIP directly; any distinct upstream
/// address works because the output is never routed.
pub fn new_chain_middle(shards: usize, capacity: usize) -> ChainBridge {
    let mut b = ChainBridge::new(
        A_P,
        A_P,
        Some(Ipv4Addr::new(10, 0, 0, 9)),
        A_S,
        FailoverConfig::from_ports([SOURCE_PORT]),
    );
    b.set_flow_config(FlowTableConfig::new(shards, capacity));
    b
}

/// A secondary bridge for the ingress-rewrite + egress-divert timing.
pub fn new_secondary_bridge(shards: usize, capacity: usize) -> SecondaryBridge {
    let mut b = SecondaryBridge::new(A_P, A_S, FailoverConfig::from_ports([SOURCE_PORT]));
    b.set_flow_config(FlowTableConfig::new(shards, capacity));
    b
}

/// One segment through any filter, appending to a reused output.
pub fn filter_one(
    f: &mut dyn SegmentFilter,
    dir: BatchDir,
    seg: AddressedSegment,
    now: u64,
    out: &mut FilterOutput,
) {
    match dir {
        BatchDir::Inbound => f.on_inbound_into(seg, now, out),
        BatchDir::Outbound => f.on_outbound_into(seg, now, out),
    }
}

/// The observers whose attached cost the telemetry layer prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    Audit,
    Latency,
    Health,
    Span,
    All,
}

/// Attaches `which` to a bridge the way the testbeds do.
pub fn attach_observer(b: &mut PrimaryBridge, which: Observer) {
    let all = which == Observer::All;
    if all || which == Observer::Audit {
        b.set_audit(Some(Box::new(InvariantAuditor::new(
            AuditConfig::from_env("bench"),
        ))));
    }
    if all || which == Observer::Latency {
        b.set_latency(Some(Box::new(LatencyObservatory::new())));
    }
    if all || which == Observer::Health {
        b.set_health(Some(Box::new(HealthObservatory::new())));
    }
    if all || which == Observer::Span {
        b.set_trace(Some(Box::new(SpanSampler::with_default_period(
            Tracer::attached(tcpfo_telemetry::span::DEFAULT_SPAN_CAPACITY),
        ))));
    }
}

/// A bridge publishing into a fresh registry, for `sync_telemetry`.
pub fn attach_registry(b: &mut PrimaryBridge) {
    b.set_telemetry(&Telemetry::new());
}
