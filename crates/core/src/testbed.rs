//! The paper's testbed (Figure 1) as a ready-made simulation, and the
//! daisy chain (§1's extension) as the same picture with more replicas:
//!
//! ```text
//!   client C ──(link)── router ──┐
//!                                hub (shared 100 Mb/s segment)
//!            replica 0: primary P ┤   (owns the VIP)
//!          replica 1: secondary S ┤   (promiscuous)
//!                    replica 2, … ┤   (promiscuous)
//!                back-end T (opt) ┘
//! ```
//!
//! A pair is a chain of two. One builder places every replica — a
//! founder, a reprovisioned standby, a rebooted secondary — by its
//! position, on a telemetry hub of its own; the pair's vocabulary
//! (`kill_primary`, `primary_stats`, …) is a set of one-line methods
//! over replicas 0 and 1. The same builder produces the **standard TCP**
//! baseline (one server, no bridges) used by every comparison in §9,
//! the switched-segment ablation, and the WAN variant for the FTP
//! experiment (Fig. 6).
//!
//! [`Testbed::spawn_standby`], [`Testbed::handoff_done`] and
//! [`Testbed::run_until_restored`] put a [`crate::reprovision`] round on
//! the tracker; the handoff itself (the node-level primitives plus
//! resuming the deterministic stream) lives with the apps
//! (`tcpfo_apps::chain_ops`).

use crate::chain::ChainController;
use crate::designation::FailoverConfig;
use crate::detector::DetectorConfig;
use crate::flow::FlowTableConfig;
use crate::observers::Observers;
use crate::primary::{PrimaryBridge, PrimaryStats};
use crate::reprovision::{ReprovisionPhase, ReprovisionTracker};
use tcpfo_net::hub::Hub;
use tcpfo_net::link::LinkParams;
use tcpfo_net::router::{Interface, Router};
use tcpfo_net::sim::{NodeId, Simulator, DEFAULT_TRACE_CAPACITY};
use tcpfo_net::switch::Switch;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_net::trace::{to_pcapng, TraceKind};
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::host::{spawn_host, CpuModel, Host, HostConfig, TOKEN_TICK};
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
    /// The primary server P: replica 0, and the VIP.
    pub const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The secondary server S: replica 1. Replica `i` is `10.0.0.(2+i)`.
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
    /// Primary NIC. Replica `i`'s NIC is index `2 + i`.
    pub const PRIMARY: MacAddr = MacAddr::from_index(2);
    /// Back-end NIC.
    pub const BACKEND: MacAddr = MacAddr::from_index(4);
    /// Router, client side.
    pub const ROUTER_CLIENT: MacAddr = MacAddr::from_index(100);
    /// Router, server side.
    pub const ROUTER_SERVER: MacAddr = MacAddr::from_index(101);
}

/// The router's store-and-forward delay.
const ROUTER_DELAY: SimDuration = SimDuration::from_micros(15);

/// The back-end and replica 2 would share an address and a NIC.
const BACKEND_CLASH: &str = "the back-end T holds 10.0.0.4 and NIC 4, replica 2's: \
     a testbed with a back-end has two replicas and no standby";

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
    /// Build the replicas + bridges (`false` = standard TCP baseline:
    /// one server, no bridges).
    pub replicated: bool,
    /// Founding replicas, head first: 2 is the paper's pair, more a
    /// daisy chain (at most 200). Ignored when `replicated` is false.
    pub replicas: usize,
    /// Also attach the unreplicated back-end T to the server segment.
    pub with_backend: bool,
    /// Failover port set (§7 method 2) configured identically on every
    /// replica.
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
    /// Attach the online invariant auditor to every bridge. This and
    /// the three switches below follow one rule: `Some(_)` always wins;
    /// `None` follows the environment (`TCPFO_AUDIT` here), which
    /// [`ObserverSwitches::resolve`] reads once per testbed.
    pub audit: Option<bool>,
    /// Attach the per-stage latency observatory to every bridge
    /// (`None`: `TCPFO_LATENCY`).
    pub latency: Option<bool>,
    /// Attach the replica health observatory (replication-lag ledger)
    /// to every bridge; the controllers' advisory per-peer monitors are
    /// always on (`None`: `TCPFO_HEALTH`).
    pub health: Option<bool>,
    /// Arm the failover span tracer: attach every hub's span ring and a
    /// hot-path batch sampler on every bridge (`None`: `TCPFO_TRACE`).
    /// Distinct from [`TestbedConfig::trace_capacity`], which sizes the
    /// *packet* trace ring.
    pub span_trace: Option<bool>,
    /// Event-journal ring capacity of every hub (`None`:
    /// [`tcpfo_telemetry::journal::DEFAULT_CAPACITY`]).
    pub journal_capacity: Option<usize>,
    /// Packet-trace ring capacity (`None`: [`DEFAULT_TRACE_CAPACITY`]).
    pub trace_capacity: Option<usize>,
    /// Read by nothing: the flow table is one table. The field stays
    /// because the standing benchmark sets it (ROADMAP 2(e)).
    pub flow_shards: Option<usize>,
    /// Total flow-table capacity for every bridge (`None`: 65 536).
    pub flow_cap: Option<usize>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            replicated: true,
            replicas: 2,
            with_backend: false,
            failover_ports: vec![80],
            detector: DetectorConfig::default(),
            client_link: LinkParams::fast_ethernet(),
            segment: SegmentKind::Hub,
            cpu: CpuModel::server_2003(),
            client_cpu: CpuModel::server_2003().scaled(0.6),
            tick: SimDuration::from_millis(1),
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

    /// A server-segment host: `seed_off` separates the per-host ISN
    /// streams derived from the testbed seed, above the bits the ISN
    /// hash folds the local address into (at `<< 32` it cancelled it:
    /// every flow had `Δseq = 0`).
    fn server_host(&self, label: &str, mac: MacAddr, ip: Ipv4Addr, seed_off: u64) -> HostConfig {
        let tcp = self.tcp.clone().with_isn_seed(self.seed ^ (seed_off << 40));
        let mut h = HostConfig::new(label, mac, ip)
            .with_gateway(addrs::GW_SERVER)
            .with_tcp(tcp);
        h.cpu = self.cpu;
        h.tick = self.tick;
        h
    }

    /// A new replica's telemetry hub: its journal sized, its span ring
    /// armed as configured, and on the tracker's list.
    fn hub(&self, observers: ObserverSwitches, tracker: &mut ReprovisionTracker) -> Telemetry {
        let hub = Telemetry::with_journal_capacity(
            self.journal_capacity.unwrap_or(DEFAULT_JOURNAL_CAPACITY),
        );
        if observers.span_trace {
            hub.trace.attach(DEFAULT_SPAN_CAPACITY);
        }
        tracker.attach(&hub);
        hub
    }

    /// Replica `i` of `chain`, the one builder of every replica: a
    /// [`PrimaryBridge`] placed by position (upstream the nearest living
    /// replica toward the head, downstream the next one, none below the
    /// tail) and a [`ChainController`] that knows which members are
    /// dead, or, unreplicated, a plain server. `dead` has an entry per
    /// replica already built; one rebuilt in place is `-revived`.
    fn replica(
        &self,
        observers: ObserverSwitches,
        chain: &[Ipv4Addr],
        dead: &[bool],
        i: usize,
        hub: &Telemetry,
    ) -> Host {
        let label = replica_label(i) + if i < dead.len() { "-revived" } else { "" };
        let mut cfg = self.server_host(&label, replica_mac(i), chain[i], i as u64 + 2);
        cfg.promiscuous = i != 0;
        let mut host = Host::new(cfg);
        host.set_telemetry(hub);
        if !self.replicated {
            return host;
        }
        let living = |j: &usize| !dead.get(*j).copied().unwrap_or(false);
        let up = (0..i).rev().find(living).map(|j| chain[j]);
        let upstream = (i != 0).then(|| up.expect("a living replica toward the head"));
        let fo = FailoverConfig::from_ports(self.failover_ports.iter().copied());
        let downstream = chain.get(i + 1).copied();
        let mut bridge = PrimaryBridge::link(addrs::A_P, chain[i], upstream, downstream, fo);
        if let Some(cap) = self.flow_cap {
            bridge.set_flow_config(FlowTableConfig::new(1, cap));
        }
        bridge.set_telemetry(hub);
        *bridge.observers_mut() = Observers::attach(observers, hub, &label);
        host.set_filter(Box::new(bridge));
        let mut controller = ChainController::new(chain.to_vec(), i, self.detector);
        controller.set_telemetry(hub);
        for j in (0..chain.len()).filter(|j| *j != i && !living(j)) {
            controller.set_peer_dead(chain[j]);
        }
        host.set_controller(Box::new(controller));
        for &p in &self.failover_ports {
            host.stack_mut().add_failover_port(p);
        }
        host
    }

    /// Wires port `port` of `node` to a new port of the segment `seg`;
    /// frames `seg` sends it are lost with `extra` more (§4's cases).
    fn wire(&self, sim: &mut Simulator, seg: NodeId, node: NodeId, port: usize, extra: f64) {
        let (at, base) = match self.segment {
            SegmentKind::Hub => (
                sim.with::<Hub, _>(seg, |h, _| h.add_port()),
                LinkParams::attachment(),
            ),
            SegmentKind::Switch => (
                sim.with::<Switch, _>(seg, |s, _| s.add_port()),
                LinkParams::fast_ethernet(),
            ),
        };
        let loss = self.attachment_loss;
        let from_node = base.with_loss(loss);
        let to_node = base.with_loss((loss + extra).min(1.0));
        sim.connect_asym((seg, at), (node, port), to_node, from_node);
    }
}

/// NIC address of the replica at chain position `index`.
pub(crate) fn replica_mac(index: usize) -> MacAddr {
    MacAddr::from_index(2 + index as u32)
}

/// Host and auditor label of replica `index`: the pair's names for the
/// first two, a number for the rest.
fn replica_label(index: usize) -> String {
    let pair = ["primary", "secondary"].get(index);
    pair.map_or_else(|| format!("replica{index}"), |l| l.to_string())
}

/// Teaches every host of `nodes` the gateway and every entry of
/// `known` but its own ("we made sure that the MAC addresses of all
/// nodes were present in the ARP caches", §9).
fn prime_server_arp(sim: &mut Simulator, nodes: &[NodeId], known: &[(Ipv4Addr, MacAddr)]) {
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
fn prime_router_arp(sim: &mut Simulator, router: NodeId, known: &[(Ipv4Addr, MacAddr)]) {
    sim.with::<Router, _>(router, |r, _| {
        for &(ip, mac) in known {
            r.prime_arp(ip, 1, mac);
        }
    });
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator; drive it with `run_for` / `run_until`.
    pub sim: Simulator,
    /// Client host node.
    pub client: NodeId,
    /// Server hosts, head first: the replicas (`replicas[0]` owns the
    /// VIP at start), or the one server of the standard-TCP baseline.
    /// Grows when a standby is reprovisioned.
    pub replicas: Vec<NodeId>,
    /// Their addresses, head first.
    pub replica_addrs: Vec<Ipv4Addr>,
    /// One telemetry hub per replica, parallel to `replicas`. The
    /// simulator, the client and the back-end publish into `hubs[0]`.
    pub hubs: Vec<Telemetry>,
    /// `replicas[0]`, the primary P.
    pub primary: NodeId,
    /// `replicas[1]`, the secondary S (when replicated).
    pub secondary: Option<NodeId>,
    /// The successor's hub (`hubs[1]`, or `hubs[0]` unreplicated): the
    /// one whose §5 timeline a head's failure completes.
    pub telemetry: Telemetry,
    /// Back-end host node (when configured).
    pub backend: Option<NodeId>,
    /// Router node.
    pub router: NodeId,
    /// Hub or switch node.
    pub segment: NodeId,
    /// The configuration it was built from.
    pub config: TestbedConfig,
    /// Reprovisioning bookkeeping (its moments reach every hub).
    pub tracker: ReprovisionTracker,
    /// The replica index whose lag ledger proves catch-up (the old
    /// tail converted to a middle link), once a round started.
    catchup_link: Option<usize>,
    /// Which observers every replica gets, resolved once from `config`
    /// and the environment when the testbed was built.
    observers: ObserverSwitches,
}

impl Testbed {
    /// Builds the testbed, every founding replica on its own hub.
    ///
    /// # Panics
    ///
    /// Panics if a replicated testbed has fewer than 2 or more than 200
    /// replicas, or more than two with a back-end.
    pub fn new(config: impl Into<TestbedConfig>) -> Self {
        let cfg: TestbedConfig = config.into();
        let n = if cfg.replicated { cfg.replicas } else { 1 };
        assert!(
            !cfg.replicated || (2..=200).contains(&n),
            "2 to 200 replicas"
        );
        assert!(!cfg.with_backend || n <= 2, "{BACKEND_CLASH}");
        let observers =
            ObserverSwitches::resolve(cfg.audit, cfg.latency, cfg.health, cfg.span_trace);
        let mut sim = Simulator::new(cfg.seed);
        sim.set_trace_capacity(cfg.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY));
        // Ports are added as hosts are wired.
        let segment: NodeId = match cfg.segment {
            SegmentKind::Hub => sim.add_device(Box::new(Hub::new("segment", 0, 100_000_000))),
            SegmentKind::Switch => sim.add_device(Box::new(Switch::new("segment", 0))),
        };
        let gateway = |mac, ip| Interface {
            mac,
            ip,
            prefix_len: 24,
        };
        let mut router = Router::new(
            "router",
            vec![
                gateway(macs::ROUTER_CLIENT, addrs::GW_CLIENT),
                gateway(macs::ROUTER_SERVER, addrs::GW_SERVER),
            ],
            ROUTER_DELAY,
        );
        router.prime_arp(addrs::A_C, 0, macs::CLIENT);
        let router = sim.add_device(Box::new(router));
        let mut client = HostConfig::new("client", macs::CLIENT, addrs::A_C)
            .with_gateway(addrs::GW_CLIENT)
            .with_tcp(cfg.tcp.clone().with_isn_seed(cfg.seed ^ (1 << 32)));
        (client.cpu, client.tick) = (cfg.client_cpu, cfg.tick);
        let mut client = Host::new(client);
        client
            .net_mut()
            .prime_arp(addrs::GW_CLIENT, macs::ROUTER_CLIENT);
        let client = spawn_host(&mut sim, client);
        sim.connect((router, 0), (client, 0), cfg.client_link);
        cfg.wire(&mut sim, segment, router, 1, cfg.loss_to_router);

        let replica_addrs: Vec<_> = (2..2 + n as u8)
            .map(|b| Ipv4Addr::new(10, 0, 0, b))
            .collect();
        let mut tracker = ReprovisionTracker::new();
        let hubs: Vec<_> = (0..n).map(|_| cfg.hub(observers, &mut tracker)).collect();
        let extra = [cfg.loss_to_primary, cfg.loss_to_secondary];
        let replicas: Vec<_> = (hubs.iter().enumerate())
            .map(|(i, hub)| {
                let host = cfg.replica(observers, &replica_addrs, &[], i, hub);
                let (node, loss) = (spawn_host(&mut sim, host), extra.get(i).copied());
                cfg.wire(&mut sim, segment, node, 0, loss.unwrap_or(0.0));
                node
            })
            .collect();
        let backend = cfg.with_backend.then(|| {
            let mut host = Host::new(cfg.server_host("backend", macs::BACKEND, addrs::A_T, 4));
            host.set_telemetry(&hubs[0]);
            let node = spawn_host(&mut sim, host);
            cfg.wire(&mut sim, segment, node, 0, 0.0);
            node
        });
        sim.with::<Host, _>(client, |h, _| h.set_telemetry(&hubs[0]));
        sim.set_telemetry(hubs[0].clone());
        let mut tb = Testbed {
            sim,
            client,
            primary: replicas[0],
            secondary: replicas.get(1).copied(),
            telemetry: hubs[n.min(2) - 1].clone(),
            replicas,
            replica_addrs,
            hubs,
            backend,
            router,
            segment,
            config: cfg,
            tracker,
            catchup_link: None,
            observers,
        };
        let known = tb.arp_entries();
        let servers: Vec<NodeId> = tb.replicas.iter().chain(&tb.backend).copied().collect();
        prime_server_arp(&mut tb.sim, &servers, &known);
        prime_router_arp(&mut tb.sim, router, &known);
        tb
    }

    /// Builds replica `i` after the founders ([`TestbedConfig::replica`]):
    /// a standby is spawned and wired on a hub of its own; a killed
    /// replica reboots in place, on its wiring and its hub.
    fn spawn_replica(&mut self, i: usize) -> NodeId {
        if i == self.hubs.len() {
            let hub = self.config.hub(self.observers, &mut self.tracker);
            self.hubs.push(hub);
        }
        let dead: Vec<bool> = (0..self.replicas.len()).map(|j| self.is_dead(j)).collect();
        let (cfg, hub) = (&self.config, &self.hubs[i]);
        let host = cfg.replica(self.observers, &self.replica_addrs, &dead, i, hub);
        if let Some(&node) = self.replicas.get(i) {
            self.sim.replace_device(node, Box::new(host));
            self.sim.schedule_timer(node, SimDuration::ZERO, TOKEN_TICK);
            return node;
        }
        let node = spawn_host(&mut self.sim, host);
        self.config.wire(&mut self.sim, self.segment, node, 0, 0.0);
        self.replicas.push(node);
        node
    }

    /// Address and NIC of every replica, head first, then the back-end.
    fn arp_entries(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        let replicas = self.replica_addrs.iter().enumerate();
        let replicas = replicas.map(|(i, &a)| (a, replica_mac(i)));
        let backend = self.backend.map(|_| (addrs::A_T, macs::BACKEND));
        replicas.chain(backend).collect()
    }

    /// Whether the testbed has killed replica `i` (and not rebooted it).
    pub fn is_dead(&self, i: usize) -> bool {
        self.sim.is_dead(self.replicas[i])
    }

    /// Kills replica `i` (0 = head) fail-stop. The `kill` moment opens
    /// a failure episode on every hub: the reference point every later
    /// §5 phase is measured against.
    pub fn kill_replica(&mut self, i: usize) {
        let now = self.sim.now().as_nanos();
        let fields = [("replica", i.to_string())];
        let args = [Some(("replica", i as u64)), None];
        for hub in &self.hubs {
            hub.event(now, "testbed", "kill", &fields, args);
        }
        self.sim.kill(self.replicas[i]);
    }

    /// Kills the primary host (fail-stop). The secondary's fault
    /// detector will take over after its timeout.
    pub fn kill_primary(&mut self) {
        self.kill_replica(0);
    }

    /// Kills the secondary host (fail-stop).
    pub fn kill_secondary(&mut self) {
        self.kill_replica(1);
    }

    /// Boots a fresh secondary in place of a killed one (empty state, no
    /// apps, same address, wiring and hub) and re-primes its ARP cache.
    /// Until it is handed P's flows and re-admitted
    /// (`tcpfo_apps::chain_ops::rejoin_secondary`), P counts its beats
    /// late.
    pub fn revive_secondary(&mut self) {
        let node = self.spawn_replica(1);
        let known = self.arp_entries();
        prime_server_arp(&mut self.sim, &[node], &known);
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Installs `mk()` on every server (active replication).
    pub fn install_servers<A: tcpfo_tcp::SocketApp>(&mut self, mk: impl Fn() -> A) {
        for &node in &self.replicas {
            self.sim
                .with::<Host, _>(node, |h, _| h.add_app(Box::new(mk())));
        }
    }

    /// Runs `f` against replica `i`'s bridge, if it runs one.
    fn with_bridge<R>(&mut self, i: usize, f: impl FnOnce(&mut PrimaryBridge) -> R) -> Option<R> {
        let node = *self.replicas.get(i)?;
        self.sim.with::<Host, _>(node, |h, _| {
            h.filter_mut().as_any_mut().downcast_mut().map(f)
        })
    }

    /// Runs `f` against replica `i`'s attached auditor, if any.
    pub fn with_audit<R>(&mut self, i: usize, f: impl FnOnce(&InvariantAuditor) -> R) -> Option<R> {
        self.with_bridge(i, |b| b.observers().audit.as_deref().map(f))?
    }

    /// Snapshot of the primary bridge statistics.
    pub fn primary_stats(&mut self) -> PrimaryStats {
        self.with_bridge(0, |b| b.stats.clone())
            .expect("primary bridge installed")
    }

    /// Snapshot of the secondary bridge (the tail) statistics.
    pub fn secondary_stats(&mut self) -> PrimaryStats {
        self.with_bridge(1, |b| b.stats.clone())
            .expect("secondary bridge installed")
    }

    /// When the surviving replica at `node` detected a peer failure, if
    /// it has.
    pub fn failover_detected_at(&mut self, node: NodeId) -> Option<SimTime> {
        (self.sim).with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().detected_at
        })
    }

    /// Runs `f` against the primary bridge itself — for checks that
    /// need more than one attached observatory at once (e.g. pairing
    /// the replication-lag ledger with an oracle walk over
    /// [`PrimaryBridge::connection_rows`]).
    pub fn with_primary_bridge<R>(&mut self, f: impl FnOnce(&PrimaryBridge) -> R) -> Option<R> {
        self.with_bridge(0, |b| f(b))
    }

    /// Runs `f` against the primary bridge's attached auditor, if any.
    pub fn with_primary_audit<R>(&mut self, f: impl FnOnce(&InvariantAuditor) -> R) -> Option<R> {
        self.with_audit(0, f)
    }

    /// Runs `f` against the secondary bridge's attached auditor, if
    /// any.
    pub fn with_secondary_audit<R>(&mut self, f: impl FnOnce(&InvariantAuditor) -> R) -> Option<R> {
        self.with_audit(1, f)
    }

    /// Runs `f` against the primary bridge's attached health
    /// observatory (the replication-lag ledger), if any.
    pub fn with_primary_health<R>(&mut self, f: impl FnOnce(&HealthObservatory) -> R) -> Option<R> {
        self.with_bridge(0, |b| b.observers().health.as_deref().map(f))?
    }

    /// Runs `f` against the health monitor `node`'s fault detector
    /// scores its pair peer with (P's view of S, or S's view of P).
    pub fn with_health_monitor<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&HealthMonitor) -> R,
    ) -> Option<R> {
        let peer = usize::from(node == self.primary);
        self.sim.with::<Host, _>(node, |h, _| {
            let monitor = h.controller_mut::<ChainController>().peer_monitor(peer)?;
            Some(f(monitor))
        })
    }

    /// Applies `f` to the link parameters of every wire touching
    /// `node`, both directions — staged in-run degradation (rising
    /// loss, latency, jitter before a crash) for health-observatory
    /// experiments.
    pub fn reshape_links(&mut self, node: NodeId, f: impl Fn(LinkParams) -> LinkParams) {
        self.sim.reshape_links(node, f);
    }

    /// Publishes replica `i`'s bridge stats into its hub now (bridges
    /// otherwise publish lazily, on their next tick; a dead replica's
    /// stay as it left them). Returns the instant.
    fn sync(&mut self, i: usize) -> u64 {
        let now = self.sim.now().as_nanos();
        if !self.is_dead(i) {
            self.with_bridge(i, |b| b.sync_telemetry(now));
        }
        now
    }

    /// A fresh snapshot of replica `i`'s hub.
    pub fn metrics_snapshot(&mut self, i: usize) -> MetricsSnapshot {
        let now = self.sync(i);
        self.hubs[i].registry.snapshot(now)
    }

    /// The full telemetry export (metrics + failover timeline + event
    /// journal) of every hub, freshly published, as one JSON array in
    /// replica order.
    pub fn export_telemetry_json(&mut self) -> String {
        let docs: Vec<String> = (0..self.hubs.len())
            .map(|i| {
                let now = self.sync(i);
                self.hubs[i].export_json(now)
            })
            .collect();
        format!("[{}]\n", docs.join(","))
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

    /// Invariant violations recorded by every replica's auditor, dead or
    /// alive (0 when detached): what a head's auditor saw before it was
    /// killed still counts.
    pub fn audit_violations(&mut self) -> u64 {
        let count = |a: &InvariantAuditor| a.ledger().total_violations();
        (0..self.replicas.len())
            .filter_map(|i| self.with_audit(i, count))
            .sum()
    }

    /// Everything needed to diagnose a failed run from the log alone:
    /// the tail of the packet trace, then per replica its §5 timeline,
    /// journal tail, metrics and auditor report.
    pub fn dump_diagnostics(&mut self, trace_tail: usize) -> String {
        let mut out = String::from("--- trace tail ---\n");
        let entries = self.sim.trace_tail(trace_tail);
        if entries.is_empty() {
            out.push_str("(no trace; enable with sim.set_trace_enabled(true))\n");
        }
        out.extend(entries.iter().map(|e| e.summary() + "\n"));
        for i in 0..self.replicas.len() {
            let snap = self.metrics_snapshot(i);
            let hub = &self.hubs[i];
            out.push_str(&format!("=== replica {i} ===\n"));
            out.push_str(&hub.timeline.breakdown());
            out.push_str("--- journal tail ---\n");
            out.extend(hub.journal.tail(20).iter().map(|e| e.summary() + "\n"));
            out.push_str("--- metrics ---\n");
            out.push_str(&snap.to_table());
            if let Some(report) = self.with_audit(i, |a| a.report()) {
                out.push_str("--- auditor ---\n");
                out.push_str(&report);
            }
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

    // Reprovisioning rounds, driven by `tcpfo_apps::chain_ops::reprovision_tail`.

    /// Index of the current tail: the last living replica.
    ///
    /// # Panics
    ///
    /// Panics if every replica is dead.
    pub fn tail_index(&self) -> usize {
        (0..self.replicas.len())
            .rev()
            .find(|&i| !self.is_dead(i))
            .expect("at least one living replica")
    }

    /// Spawns a fresh standby replica at the end of the chain
    /// (phase 1): a tail diverting to the current tail, its own
    /// telemetry hub and observatories, a controller that already knows
    /// which founders are dead, ARP pre-primed both ways. Begins the
    /// tracker's round, on the standby's hub too. Returns the new
    /// replica's index.
    ///
    /// # Panics
    ///
    /// Panics on a testbed with a back-end, which holds the address the
    /// first standby would take.
    pub fn spawn_standby(&mut self) -> usize {
        assert!(self.backend.is_none(), "{BACKEND_CLASH}");
        let k = self.replica_addrs.len();
        let addr = Ipv4Addr::new(10, 0, 0, u8::try_from(2 + k).expect("10.0.0.0/24"));
        self.replica_addrs.push(addr);
        // The standby mirrors a founding tail, diverting to the current
        // tail (which takes it below as part of the handoff).
        let id = self.spawn_replica(k);
        self.tracker.begin(addr, self.sim.now().as_nanos());

        // ARP, both directions, plus the router for good measure; the
        // survivors' controllers learn about the new chain member.
        let known = self.arp_entries();
        prime_server_arp(&mut self.sim, &[id], &known);
        let survivors: Vec<NodeId> = (0..k)
            .filter(|&i| !self.is_dead(i))
            .map(|i| self.replicas[i])
            .collect();
        prime_server_arp(&mut self.sim, &survivors, &known[k..]);
        prime_router_arp(&mut self.sim, self.router, &known[k..]);
        let now = self.sim.now();
        for node in survivors {
            self.sim.with::<Host, _>(node, |h, _| {
                h.controller_mut::<ChainController>()
                    .append_replica(addr, now);
            });
        }
        k
    }

    /// Ends the handoff phase of the round that `standby` joins: the
    /// living replica above it took `flows` handed-off flows below it,
    /// and its lag ledger now proves catch-up.
    pub fn handoff_done(&mut self, standby: usize, flows: usize) {
        self.catchup_link = (0..standby).rev().find(|&j| !self.is_dead(j));
        let backlog = self.catchup_lag();
        let now = self.sim.now().as_nanos();
        self.tracker.handoff_done(flows, backlog, now);
    }

    /// Unmatched replication backlog on the converted link: the lag
    /// ledger when the health observatory is attached, otherwise the
    /// sum of primary-queue bytes across its connections. Zero means
    /// the standby's stream has caught up with the converted link's.
    pub fn catchup_lag(&mut self) -> u64 {
        let Some(link) = self.catchup_link else {
            return 0;
        };
        self.with_bridge(link, |b| match b.observers().health.as_deref() {
            Some(obs) => obs.lag.unmatched_bytes(),
            None => b.connection_rows().iter().map(|r| r.pq_bytes as u64).sum(),
        })
        .unwrap_or(0)
    }

    /// Checks the catch-up condition and, when the backlog has drained
    /// to zero, ends the tracker's round (on every hub).
    pub fn poll_reprovision(&mut self) {
        if self.tracker.phase() == ReprovisionPhase::CatchUp && self.catchup_lag() == 0 {
            let now = self.sim.now().as_nanos();
            self.tracker.restored(now);
        }
    }

    /// Runs the simulation in `step` increments until the
    /// reprovisioning round reports restored redundancy, or `max` sim
    /// time elapses. Returns whether redundancy was restored.
    ///
    /// Steps *before* the first poll: at the conversion instant the
    /// backlog is trivially zero (the standby has not produced a byte
    /// yet), so catch-up is only proven once the chain has run and the
    /// lag observed after that still drains to nothing.
    pub fn run_until_restored(&mut self, step: SimDuration, max: SimDuration) -> bool {
        let deadline = self.sim.now() + max;
        loop {
            self.run_for(step);
            self.poll_reprovision();
            if self.tracker.phase() == ReprovisionPhase::Restored {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
        }
    }
}
