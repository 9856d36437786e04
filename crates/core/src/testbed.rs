//! The paper's testbed (Figure 1) as a ready-made simulation:
//!
//! ```text
//!   client C ──(link)── router ──┐
//!                                hub (shared 100 Mb/s segment)
//!                        primary P ┤
//!                      secondary S ┤   (promiscuous)
//!                 back-end T (opt) ┘
//! ```
//!
//! The same builder produces the **standard TCP** baseline (no
//! secondary, no bridges) used by every comparison in §9, the
//! **failover** configuration, the switched-segment ablation, and the
//! WAN variant for the FTP experiment (Fig. 6).

use crate::chain::ChainController;
use crate::designation::FailoverConfig;
use crate::detector::DetectorConfig;
use crate::flow::FlowTableConfig;
use crate::observers::Observers;
use crate::primary::{PrimaryBridge, PrimaryStats};
use tcpfo_net::hub::Hub;
use tcpfo_net::link::LinkParams;
use tcpfo_net::router::{Interface, Router};
use tcpfo_net::sim::DEFAULT_TRACE_CAPACITY;
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_net::switch::Switch;
use tcpfo_net::time::SimDuration;
use tcpfo_net::trace::{to_pcapng, TraceKind};
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::filter::SegmentFilter;
use tcpfo_tcp::host::{spawn_host, CpuModel, Host, HostConfig};
use tcpfo_telemetry::journal::DEFAULT_CAPACITY as DEFAULT_JOURNAL_CAPACITY;
use tcpfo_telemetry::span::DEFAULT_SPAN_CAPACITY;
use tcpfo_telemetry::{
    HealthMonitor, HealthObservatory, InvariantAuditor, MetricsSnapshot, ObserverSwitches,
    Telemetry,
};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::mac::MacAddr;

/// Well-known testbed addresses.
pub mod addrs {
    use tcpfo_wire::ipv4::Ipv4Addr;

    /// The unreplicated client C.
    pub const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
    /// The primary server P.
    pub const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The secondary server S.
    pub const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    /// The unreplicated back-end T (§7.2), on the server segment.
    pub const A_T: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
    /// Router interface on the client network.
    pub const GW_CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    /// Router interface on the server segment.
    pub const GW_SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
}

/// MAC addresses, fixed so ARP caches can be primed.
pub mod macs {
    use tcpfo_wire::mac::MacAddr;

    /// Client NIC.
    pub const CLIENT: MacAddr = MacAddr::from_index(1);
    /// Primary NIC.
    pub const PRIMARY: MacAddr = MacAddr::from_index(2);
    /// Secondary NIC.
    pub const SECONDARY: MacAddr = MacAddr::from_index(3);
    /// Back-end NIC.
    pub const BACKEND: MacAddr = MacAddr::from_index(4);
    /// Router, client side.
    pub const ROUTER_CLIENT: MacAddr = MacAddr::from_index(100);
    /// Router, server side.
    pub const ROUTER_SERVER: MacAddr = MacAddr::from_index(101);
}

/// What kind of server segment to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Shared hub — the paper's configuration; promiscuous snooping
    /// works.
    Hub,
    /// Learning switch — the ablation (E8): unicast client traffic is
    /// invisible to the secondary.
    Switch,
}

/// Testbed parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation seed (determinism).
    pub seed: u64,
    /// Build the secondary + bridges (`false` = standard TCP baseline).
    pub replicated: bool,
    /// Also attach the unreplicated back-end T to the server segment.
    pub with_backend: bool,
    /// Failover port set (§7 method 2) configured identically on P
    /// and S.
    pub failover_ports: Vec<u16>,
    /// Fault-detector parameters.
    pub detector: DetectorConfig,
    /// Client↔router link ([`LinkParams::fast_ethernet`] for the LAN
    /// experiments, [`LinkParams::wan`] for Fig. 6).
    pub client_link: LinkParams,
    /// Server-segment kind (hub in the paper; switch for the ablation).
    pub segment: SegmentKind,
    /// Server-host CPU cost model (calibrates §9 latencies/rates).
    pub cpu: CpuModel,
    /// Client-host CPU model (the paper's client was a faster 1 GHz
    /// machine).
    pub client_cpu: CpuModel,
    /// Host stack tick.
    pub tick: SimDuration,
    /// Router store-and-forward delay.
    pub router_delay: SimDuration,
    /// Base TCP configuration applied to every host (per-host ISN
    /// seeds are derived from `seed`).
    pub tcp: TcpConfig,
    /// Random loss on the server-segment attachments (for §4 tests).
    pub attachment_loss: f64,
    /// Extra loss on frames *towards the primary* (covers §4's "the
    /// primary server does not receive a client segment" and "the
    /// secondary server's segment is dropped by the primary").
    pub loss_to_primary: f64,
    /// Extra loss towards the secondary (§4: "the secondary server
    /// drops the client segment although the primary receives it").
    pub loss_to_secondary: f64,
    /// Extra loss on frames from the segment towards the router (§4:
    /// "the primary server's segment is lost on its way to the
    /// client").
    pub loss_to_router: f64,
    /// Attach the online invariant auditor to both bridges. This and
    /// the three switches below follow one rule: `Some(_)` always wins;
    /// `None` follows the environment (`TCPFO_AUDIT` here), which
    /// [`ObserverSwitches::resolve`] reads once per testbed.
    pub audit: Option<bool>,
    /// Attach the per-stage latency observatory to both bridges
    /// (`None`: `TCPFO_LATENCY`).
    pub latency: Option<bool>,
    /// Attach the replica health observatory (replication-lag ledger)
    /// to both bridges; the controllers' advisory per-peer monitors are
    /// always on (`None`: `TCPFO_HEALTH`).
    pub health: Option<bool>,
    /// Arm the failover span tracer: attach the hub's span ring and a
    /// hot-path batch sampler on both bridges (`None`:
    /// `TCPFO_TRACE`). Distinct from [`TestbedConfig::trace_capacity`],
    /// which sizes the *packet* trace ring.
    pub span_trace: Option<bool>,
    /// Event-journal ring capacity (`None`:
    /// [`tcpfo_telemetry::journal::DEFAULT_CAPACITY`]).
    pub journal_capacity: Option<usize>,
    /// Packet-trace ring capacity (`None`: [`DEFAULT_TRACE_CAPACITY`]).
    pub trace_capacity: Option<usize>,
    /// Flow-table shard count for both bridges (`None`: 1).
    pub flow_shards: Option<usize>,
    /// Total flow-table capacity for both bridges (`None`: 65 536).
    pub flow_cap: Option<usize>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            replicated: true,
            with_backend: false,
            failover_ports: vec![80],
            detector: DetectorConfig::default(),
            client_link: LinkParams::fast_ethernet(),
            segment: SegmentKind::Hub,
            cpu: CpuModel::server_2003(),
            client_cpu: CpuModel::server_2003().scaled(0.6),
            tick: SimDuration::from_millis(1),
            router_delay: SimDuration::from_micros(15),
            tcp: TcpConfig::default(),
            attachment_loss: 0.0,
            loss_to_primary: 0.0,
            loss_to_secondary: 0.0,
            loss_to_router: 0.0,
            audit: None,
            latency: None,
            health: None,
            span_trace: None,
            journal_capacity: None,
            trace_capacity: None,
            flow_shards: None,
            flow_cap: None,
        }
    }
}

impl TestbedConfig {
    /// The standard-TCP baseline used throughout §9: one server, no
    /// bridges.
    pub fn standard_tcp() -> Self {
        TestbedConfig {
            replicated: false,
            failover_ports: Vec::new(),
            ..TestbedConfig::default()
        }
    }
}

/// The flow-table config the testbed's bridges should use, when either
/// field overrides the defaults.
fn flow_config_override(config: &TestbedConfig) -> Option<FlowTableConfig> {
    if config.flow_shards.is_none() && config.flow_cap.is_none() {
        return None;
    }
    let base = FlowTableConfig::default();
    Some(FlowTableConfig::new(
        config.flow_shards.unwrap_or(base.shards),
        config.flow_cap.unwrap_or(base.capacity),
    ))
}

// ---------------------------------------------------------------------
// The pieces both testbeds are built from (a pair is a chain of two)
// ---------------------------------------------------------------------

/// NIC address of the replica at chain position `index` (P and S are
/// positions 0 and 1).
pub(crate) fn replica_mac(index: usize) -> MacAddr {
    MacAddr::from_index(2 + index as u32)
}

/// Host configuration for a node on the server segment; `seed_off`
/// separates the per-host ISN streams derived from the testbed seed,
/// above the bits the ISN hash folds the local address into (at `<< 32`
/// it cancelled it: every flow had `Δseq = 0`).
fn server_host_config(
    config: &TestbedConfig,
    label: &str,
    mac: MacAddr,
    ip: Ipv4Addr,
    seed_off: u64,
) -> HostConfig {
    let tcp = config
        .tcp
        .clone()
        .with_isn_seed(config.seed ^ (seed_off << 40));
    let mut h = HostConfig::new(label, mac, ip)
        .with_gateway(addrs::GW_SERVER)
        .with_tcp(tcp);
    h.cpu = config.cpu;
    h.tick = config.tick;
    h
}

/// The router and the client host, linked and with each other's
/// addresses in their ARP caches. Returns `(router, client)`.
pub(crate) fn spawn_router_and_client(
    sim: &mut Simulator,
    config: &TestbedConfig,
    client_hub: Option<&Telemetry>,
) -> (NodeId, NodeId) {
    let mut router = Router::new(
        "router",
        vec![
            Interface {
                mac: macs::ROUTER_CLIENT,
                ip: addrs::GW_CLIENT,
                prefix_len: 24,
            },
            Interface {
                mac: macs::ROUTER_SERVER,
                ip: addrs::GW_SERVER,
                prefix_len: 24,
            },
        ],
        config.router_delay,
    );
    router.prime_arp(addrs::A_C, 0, macs::CLIENT);
    let router = sim.add_device(Box::new(router));
    let mut client_cfg = HostConfig::new("client", macs::CLIENT, addrs::A_C)
        .with_gateway(addrs::GW_CLIENT)
        .with_tcp(config.tcp.clone().with_isn_seed(config.seed ^ (1 << 32)));
    client_cfg.cpu = config.client_cpu;
    client_cfg.tick = config.tick;
    let mut client = Host::new(client_cfg);
    if let Some(hub) = client_hub {
        client.set_telemetry(hub);
    }
    client
        .net_mut()
        .prime_arp(addrs::GW_CLIENT, macs::ROUTER_CLIENT);
    let client = spawn_host(sim, client);
    sim.connect((router, 0), (client, 0), config.client_link);
    (router, client)
}

/// Pre-populates ARP caches on the server segment ("we made sure that
/// the MAC addresses of all nodes were present in the ARP caches",
/// §9): every host of `nodes` learns the gateway and every entry of
/// `known` but its own.
pub(crate) fn prime_server_arp(
    sim: &mut Simulator,
    nodes: &[NodeId],
    known: &[(Ipv4Addr, MacAddr)],
) {
    for &node in nodes {
        sim.with::<Host, _>(node, |h, _| {
            let own = h.ip();
            h.net_mut().prime_arp(addrs::GW_SERVER, macs::ROUTER_SERVER);
            for &(ip, mac) in known.iter().filter(|(ip, _)| *ip != own) {
                h.net_mut().prime_arp(ip, mac);
            }
        });
    }
}

/// Teaches the router's server-side interface the entries of `known`.
/// Not for addresses that may have moved: a takeover's gratuitous ARP
/// is what the router must keep believing.
pub(crate) fn prime_router_arp(sim: &mut Simulator, router: NodeId, known: &[(Ipv4Addr, MacAddr)]) {
    sim.with::<Router, _>(router, |r, _| {
        for &(ip, mac) in known {
            r.prime_arp(ip, 1, mac);
        }
    });
}

/// Runs `f` on the bridge of type `B` that host `node` runs; `None`
/// when it runs another kind of filter.
pub(crate) fn with_bridge<B: 'static, R>(
    sim: &mut Simulator,
    node: NodeId,
    f: impl FnOnce(&mut B) -> R,
) -> Option<R> {
    sim.with::<Host, _>(node, |h, _| {
        h.filter_mut().as_any_mut().downcast_mut::<B>().map(f)
    })
}

/// A telemetry hub as every testbed builds one: the journal sized by
/// `config`, the span ring armed iff the resolved switches say so —
/// nothing here looks at the environment.
pub(crate) fn new_hub(config: &TestbedConfig, observers: ObserverSwitches) -> Telemetry {
    let capacity = config.journal_capacity.unwrap_or(DEFAULT_JOURNAL_CAPACITY);
    let hub = Telemetry::with_journal_capacity(capacity);
    if observers.span_trace {
        hub.trace.attach(DEFAULT_SPAN_CAPACITY);
    }
    hub
}

/// The bridge of the replica at `own` — the pair's P or S, a chain's
/// head, middle link or tail — publishing into `telemetry`, with the
/// flow-table override and the observers that are switched on.
pub(crate) fn link_bridge(
    own: Ipv4Addr,
    upstream: Option<Ipv4Addr>,
    downstream: Option<Ipv4Addr>,
    config: &TestbedConfig,
    observers: ObserverSwitches,
    telemetry: &Telemetry,
    audit_label: &str,
) -> PrimaryBridge {
    let fo = FailoverConfig::from_ports(config.failover_ports.iter().copied());
    let mut bridge = PrimaryBridge::link(addrs::A_P, own, upstream, downstream, fo);
    if let Some(fc) = flow_config_override(config) {
        bridge.set_flow_config(fc);
    }
    bridge.set_telemetry(telemetry);
    *bridge.observers_mut() = Observers::attach(observers, telemetry, audit_label);
    bridge
}

/// The host of the replica at position `index` of `chain`: `filter` as
/// its bridge, a [`ChainController`] over the chain, the failover ports
/// registered. Everyone but the head snoops.
pub(crate) fn replica_host(
    config: &TestbedConfig,
    telemetry: &Telemetry,
    label: &str,
    chain: &[Ipv4Addr],
    index: usize,
    filter: Box<dyn SegmentFilter>,
) -> Host {
    let mut cfg = server_host_config(
        config,
        label,
        replica_mac(index),
        chain[index],
        index as u64 + 2,
    );
    cfg.promiscuous = index != 0;
    let mut host = Host::new(cfg);
    host.set_telemetry(telemetry);
    host.set_filter(filter);
    let mut controller = ChainController::new(chain.to_vec(), index, config.detector);
    controller.set_telemetry(telemetry);
    host.set_controller(Box::new(controller));
    for &p in &config.failover_ports {
        host.stack_mut().add_failover_port(p);
    }
    host
}

/// Replica `index` of the pair `[a_p, a_s]` with an empty bridge — P
/// (0) the head, S (1) the tail: the hosts `Testbed::new` starts with
/// and the one `revive_secondary` boots in S's place.
fn pair_replica(
    config: &TestbedConfig,
    telemetry: &Telemetry,
    observers: ObserverSwitches,
    index: usize,
    audit_label: &str,
) -> Host {
    let (own, up, down) = match index {
        0 => (addrs::A_P, None, Some(addrs::A_S)),
        _ => (addrs::A_S, Some(addrs::A_P), None),
    };
    let bridge = link_bridge(own, up, down, config, observers, telemetry, audit_label);
    let label = ["primary", "secondary"][index];
    let chain = [addrs::A_P, addrs::A_S];
    let mut host = replica_host(config, telemetry, label, &chain, index, Box::new(bridge));
    // The paper's §5 is unconditional: a pair whose only successor
    // vetoes itself is a service with no head.
    host.controller_mut::<ChainController>()
        .set_promote_threshold(0);
    host
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator; drive it with `run_for` / `run_until`.
    pub sim: Simulator,
    /// Client host node.
    pub client: NodeId,
    /// Primary server node.
    pub primary: NodeId,
    /// Secondary server node (when replicated).
    pub secondary: Option<NodeId>,
    /// Back-end host node (when configured).
    pub backend: Option<NodeId>,
    /// Router node.
    pub router: NodeId,
    /// Hub or switch node.
    pub segment: NodeId,
    /// The configuration it was built from.
    pub config: TestbedConfig,
    /// The telemetry hub shared by the simulator, every host stack, the
    /// bridges and the fault detectors.
    pub telemetry: Telemetry,
    /// Which observers are attached, resolved once from `config` and
    /// the environment when the testbed was built.
    observers: ObserverSwitches,
}

impl Testbed {
    /// Builds the testbed.
    pub fn new(config: TestbedConfig) -> Self {
        let observers = ObserverSwitches::resolve(
            config.audit,
            config.latency,
            config.health,
            config.span_trace,
        );
        let telemetry = new_hub(&config, observers);
        let mut sim = Simulator::new(config.seed);
        sim.set_telemetry(telemetry.clone());
        sim.set_trace_capacity(config.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY));
        let ports = if config.with_backend { 4 } else { 3 };
        let segment: NodeId = match config.segment {
            SegmentKind::Hub => sim.add_device(Box::new(Hub::new("segment", ports, 100_000_000))),
            SegmentKind::Switch => sim.add_device(Box::new(Switch::new("segment", ports))),
        };
        let (router, client) = spawn_router_and_client(&mut sim, &config, Some(&telemetry));

        // Servers: P and S (the chain `[a_p, a_s]`), or one plain host.
        let plain_server = |label, mac, ip, seed_off| {
            let mut host = Host::new(server_host_config(&config, label, mac, ip, seed_off));
            host.set_telemetry(&telemetry);
            host
        };
        let primary = spawn_host(
            &mut sim,
            if config.replicated {
                pair_replica(&config, &telemetry, observers, 0, "primary")
            } else {
                plain_server("primary", macs::PRIMARY, addrs::A_P, 2)
            },
        );
        let secondary = config.replicated.then(|| {
            let host = pair_replica(&config, &telemetry, observers, 1, "secondary");
            spawn_host(&mut sim, host)
        });
        let backend = config.with_backend.then(|| {
            let host = plain_server("backend", macs::BACKEND, addrs::A_T, 4);
            spawn_host(&mut sim, host)
        });

        // Wiring.
        let attach = match config.segment {
            SegmentKind::Hub => LinkParams::attachment().with_loss(config.attachment_loss),
            SegmentKind::Switch => LinkParams::fast_ethernet().with_loss(config.attachment_loss),
        };
        // Per-direction loss overrides model the §4 cases: the first
        // LinkParams governs frames transmitted by the *segment* side.
        let with_extra =
            |base: LinkParams, extra: f64| base.with_loss((base.loss + extra).min(1.0));
        sim.connect_asym(
            (segment, 0),
            (router, 1),
            with_extra(attach, config.loss_to_router),
            attach,
        );
        sim.connect_asym(
            (segment, 1),
            (primary, 0),
            with_extra(attach, config.loss_to_primary),
            attach,
        );
        if let Some(s) = secondary {
            sim.connect_asym(
                (segment, 2),
                (s, 0),
                with_extra(attach, config.loss_to_secondary),
                attach,
            );
        }
        if let Some(t) = backend {
            sim.connect((segment, 3), (t, 0), attach);
        }

        let mut tb = Testbed {
            sim,
            client,
            primary,
            secondary,
            backend,
            router,
            segment,
            config,
            telemetry,
            observers,
        };
        let servers: Vec<NodeId> = [Some(primary), secondary, backend]
            .into_iter()
            .flatten()
            .collect();
        let known = tb.server_addresses();
        prime_server_arp(&mut tb.sim, &servers, &known);
        prime_router_arp(&mut tb.sim, router, &known);
        tb
    }

    /// Address and NIC of every server-segment host this testbed has.
    fn server_addresses(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        [
            Some((addrs::A_P, macs::PRIMARY)),
            self.secondary.map(|_| (addrs::A_S, macs::SECONDARY)),
            self.backend.map(|_| (addrs::A_T, macs::BACKEND)),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Kills the primary host (fail-stop). The secondary's fault
    /// detector will take over after its timeout.
    pub fn kill_primary(&mut self) {
        self.kill(self.primary, "primary");
    }

    /// Kills the secondary host (fail-stop).
    pub fn kill_secondary(&mut self) {
        if let Some(s) = self.secondary {
            self.kill(s, "secondary");
        }
    }

    /// Kills `node` fail-stop. The `kill` moment opens a failure episode
    /// on the shared hub: the reference point every later §5 phase is
    /// measured against.
    fn kill(&mut self, node: NodeId, which: &str) {
        let now = self.sim.now().as_nanos();
        let fields = [("node", which.to_string())];
        (self.telemetry).event(now, "testbed", "kill", &fields, [None, None]);
        self.sim.kill(node);
    }

    /// Boots a fresh secondary in place of a killed one (empty state, no
    /// apps, same address and wiring) and re-primes its ARP cache. Until
    /// it is handed P's flows and re-admitted
    /// (`tcpfo_apps::chain_ops::rejoin_secondary`), P counts its beats
    /// late.
    pub fn revive_secondary(&mut self) {
        let s = self.secondary.expect("replicated testbed");
        let host = pair_replica(
            &self.config,
            &self.telemetry,
            self.observers,
            1,
            "secondary-revived",
        );
        self.sim.replace_device(s, Box::new(host));
        self.sim
            .schedule_timer(s, SimDuration::ZERO, tcpfo_tcp::host::TOKEN_TICK);
        let known = self.server_addresses();
        prime_server_arp(&mut self.sim, &[s], &known);
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Snapshot of the primary bridge statistics.
    pub fn primary_stats(&mut self) -> PrimaryStats {
        with_bridge(&mut self.sim, self.primary, |b: &mut PrimaryBridge| {
            b.stats.clone()
        })
        .expect("primary bridge installed")
    }

    /// Snapshot of the secondary bridge (the tail) statistics.
    pub fn secondary_stats(&mut self) -> PrimaryStats {
        let s = self.secondary.expect("replicated testbed");
        with_bridge(&mut self.sim, s, |b: &mut PrimaryBridge| b.stats.clone())
            .expect("secondary bridge installed")
    }

    /// When the surviving replica detected the peer failure, if it has.
    pub fn failover_detected_at(&mut self, node: NodeId) -> Option<tcpfo_net::time::SimTime> {
        self.sim.with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().detected_at
        })
    }

    /// Pushes each bridge's latest stats into the registry so a
    /// snapshot taken now reflects segments filtered since the last
    /// one (bridges otherwise publish lazily, on their next segment).
    fn sync_bridge_telemetry(&mut self) {
        let now = self.sim.now().as_nanos();
        for node in [Some(self.primary), self.secondary].into_iter().flatten() {
            with_bridge(&mut self.sim, node, |b: &mut PrimaryBridge| {
                b.sync_telemetry(now);
            });
        }
    }

    /// A fresh snapshot of every registered metric, from all layers.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.sync_bridge_telemetry();
        self.telemetry.registry.snapshot(self.sim.now().as_nanos())
    }

    /// The full telemetry export (metrics + failover timeline + event
    /// journal) as a JSON document.
    pub fn export_telemetry_json(&mut self) -> String {
        self.sync_bridge_telemetry();
        self.telemetry.export_json(self.sim.now().as_nanos())
    }

    /// A pcapng capture of every traced frame the client host received,
    /// openable in Wireshark/tshark. Requires tracing
    /// (`tb.sim.set_trace_enabled(true)`) during the run.
    pub fn client_capture_pcapng(&mut self) -> Vec<u8> {
        let client = self.client;
        let entries = self.sim.trace_tail(usize::MAX);
        to_pcapng(&entries, |e| {
            e.node == client && matches!(e.kind, TraceKind::Rx { .. })
        })
    }

    /// Runs `f` against the primary bridge's attached auditor, if any.
    pub fn with_primary_audit<R>(&mut self, f: impl FnOnce(&InvariantAuditor) -> R) -> Option<R> {
        self.with_primary_bridge(|b| b.observers().audit.as_deref().map(f))?
    }

    /// Runs `f` against the secondary bridge's attached auditor, if
    /// any.
    pub fn with_secondary_audit<R>(&mut self, f: impl FnOnce(&InvariantAuditor) -> R) -> Option<R> {
        with_bridge(&mut self.sim, self.secondary?, |b: &mut PrimaryBridge| {
            b.observers().audit.as_deref().map(f)
        })?
    }

    /// Runs `f` against the primary bridge itself — for checks that
    /// need more than one attached observatory at once (e.g. pairing
    /// the replication-lag ledger with an oracle walk over
    /// [`PrimaryBridge::connection_rows`]).
    pub fn with_primary_bridge<R>(&mut self, f: impl FnOnce(&PrimaryBridge) -> R) -> Option<R> {
        with_bridge(&mut self.sim, self.primary, |b: &mut PrimaryBridge| f(b))
    }

    /// Runs `f` against the primary bridge's attached health
    /// observatory (the replication-lag ledger), if any.
    pub fn with_primary_health<R>(&mut self, f: impl FnOnce(&HealthObservatory) -> R) -> Option<R> {
        self.with_primary_bridge(|b| b.observers().health.as_deref().map(f))?
    }

    /// Runs `f` against the health monitor `node`'s fault detector
    /// scores its peer with (P's view of S, or S's view of P).
    pub fn with_health_monitor<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&HealthMonitor) -> R,
    ) -> Option<R> {
        let peer = usize::from(node == self.primary);
        self.sim.with::<Host, _>(node, move |h, _| {
            let mon = h.controller_mut::<ChainController>().peer_monitor(peer)?;
            Some(f(mon))
        })
    }

    /// Applies `f` to the link parameters of every wire touching
    /// `node`, both directions — staged in-run degradation (rising
    /// loss, latency, jitter before a crash) for health-observatory
    /// experiments.
    pub fn reshape_links(&mut self, node: NodeId, f: impl Fn(LinkParams) -> LinkParams) {
        self.sim.reshape_links(node, f);
    }

    /// Total invariant violations recorded by both bridges' auditors
    /// (0 when detached).
    pub fn audit_violations(&mut self) -> u64 {
        self.with_primary_audit(|a| a.ledger().total_violations())
            .unwrap_or(0)
            + self
                .with_secondary_audit(|a| a.ledger().total_violations())
                .unwrap_or(0)
    }

    /// Everything needed to diagnose a failed run from the log alone:
    /// the tail of the packet trace, the failover timeline, and a
    /// metrics snapshot.
    pub fn dump_diagnostics(&mut self, trace_tail: usize) -> String {
        let snap = self.metrics_snapshot();
        let mut out = String::new();
        out.push_str("--- trace tail ---\n");
        let entries = self.sim.trace_tail(trace_tail);
        if entries.is_empty() {
            out.push_str("(no trace; enable with sim.set_trace_enabled(true))\n");
        }
        for e in &entries {
            out.push_str(&e.summary());
            out.push('\n');
        }
        out.push_str("--- failover timeline ---\n");
        out.push_str(&self.telemetry.timeline.breakdown());
        out.push_str("--- journal tail ---\n");
        for e in self.telemetry.journal.tail(20) {
            out.push_str(&e.summary());
            out.push('\n');
        }
        out.push_str("--- metrics ---\n");
        out.push_str(&snap.to_table());
        if let Some(report) = self.with_primary_audit(|a| a.report()) {
            out.push_str("--- primary auditor ---\n");
            out.push_str(&report);
        }
        if let Some(report) = self.with_secondary_audit(|a| a.report()) {
            out.push_str("--- secondary auditor ---\n");
            out.push_str(&report);
        }
        out
    }

    /// Asserts `cond`, panicking with `msg` *plus* the full
    /// diagnostics dump — so a CI failure log carries the trace tail,
    /// timeline and metrics without re-running anything.
    #[track_caller]
    pub fn expect(&mut self, cond: bool, msg: &str) {
        if !cond {
            panic!("{msg}\n{}", self.dump_diagnostics(40));
        }
    }
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("replicated", &self.config.replicated)
            .field("segment", &self.config.segment)
            .finish()
    }
}
