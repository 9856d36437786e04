//! Testbed for daisy-chained replication: the Figure-1 topology with
//! `N ≥ 2` replicas on the shared segment.
//!
//! ```text
//!   client ── router ── hub ── head (VIP) ── B1 ── … ── tail
//!                        │        │  Primary  │Prim.│  │Secondary│
//!                        └── all replicas snoop promiscuously ──┘
//! ```
//!
//! Since PR9 the testbed carries the chain's full observability and
//! reprovisioning surface:
//!
//! * every replica gets its **own** telemetry hub (the bridges publish
//!   under role names, so sharing a registry would collide), with the
//!   observers the [`ChainConfig`] switches — resolved once, when the
//!   testbed is built — turn on;
//! * [`ChainTestbed::kill_replica`] opens a failure episode on every
//!   hub;
//! * [`ChainTestbed::spawn_standby`], [`ChainTestbed::handoff_done`]
//!   and [`ChainTestbed::run_until_restored`] put a
//!   [`crate::reprovision`] round on the tracker; the handoff itself
//!   (the node-level primitives plus resuming the deterministic stream)
//!   lives with the apps (`tcpfo_apps::chain_ops`).

use crate::chain::{observers_of, ChainController};
use crate::detector::DetectorConfig;
use crate::primary::PrimaryBridge;
use crate::reprovision::{ReprovisionPhase, ReprovisionTracker};
use crate::testbed::{
    link_bridge, new_hub, prime_router_arp, prime_server_arp, replica_host, replica_mac,
    spawn_router_and_client, with_bridge, TestbedConfig,
};
use tcpfo_net::hub::Hub;
use tcpfo_net::link::LinkParams;
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::host::{spawn_host, CpuModel, Host};
use tcpfo_telemetry::{MetricsSnapshot, ObserverSwitches, Telemetry};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::mac::MacAddr;

/// Parameters for a chained testbed.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Number of replicas (head + backups), ≥ 2.
    pub replicas: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Failover port set (§7 method 2), identical on every replica.
    pub failover_ports: Vec<u16>,
    /// Fault-detector parameters.
    pub detector: DetectorConfig,
    /// Client↔router link.
    pub client_link: LinkParams,
    /// Host CPU model for the replicas.
    pub cpu: CpuModel,
    /// Base TCP configuration (per-replica ISN seeds derived from
    /// `seed`).
    pub tcp: TcpConfig,
    /// Host stack tick.
    pub tick: SimDuration,
    /// Attach the invariant auditor to every bridge. The four switches
    /// follow the pair testbed's rule: `Some(_)` always wins, `None`
    /// follows the environment (`TCPFO_AUDIT` here), read once.
    pub audit: Option<bool>,
    /// Attach the per-stage latency observatory to every bridge
    /// (`None`: `TCPFO_LATENCY`).
    pub latency: Option<bool>,
    /// Attach the health observatory (replication-lag ledger) to every
    /// bridge (`None`: `TCPFO_HEALTH`).
    pub health: Option<bool>,
    /// Arm the failover span tracer on every replica hub and a
    /// hot-path batch sampler on every bridge (`None`: `TCPFO_TRACE`).
    pub span_trace: Option<bool>,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            replicas: 3,
            seed: 42,
            failover_ports: vec![80],
            detector: DetectorConfig::default(),
            client_link: LinkParams::fast_ethernet(),
            cpu: CpuModel::server_2003(),
            tcp: TcpConfig::default(),
            tick: SimDuration::from_millis(1),
            audit: None,
            latency: None,
            health: None,
            span_trace: None,
        }
    }
}

/// How many standby replicas the hub reserves ports for.
const STANDBY_PORTS: usize = 2;

impl ChainConfig {
    /// The parameters a chain shares with the pair testbed, in the
    /// form the shared builders take (a 2003-class client is 0.6× the
    /// servers' CPU cost there too).
    fn base(&self) -> TestbedConfig {
        TestbedConfig {
            seed: self.seed,
            failover_ports: self.failover_ports.clone(),
            detector: self.detector,
            client_link: self.client_link,
            cpu: self.cpu,
            client_cpu: self.cpu.scaled(0.6),
            tcp: self.tcp.clone(),
            tick: self.tick,
            audit: self.audit,
            latency: self.latency,
            health: self.health,
            span_trace: self.span_trace,
            ..TestbedConfig::default()
        }
    }
}

/// The assembled chain testbed.
pub struct ChainTestbed {
    /// The simulator.
    pub sim: Simulator,
    /// Client host.
    pub client: NodeId,
    /// Replica hosts, head first (`replicas[0]` owns the VIP at
    /// start). Grows when a standby is reprovisioned.
    pub replicas: Vec<NodeId>,
    /// Replica addresses, head first.
    pub replica_addrs: Vec<Ipv4Addr>,
    /// Per-replica telemetry hubs, parallel to `replicas`.
    pub hubs: Vec<Telemetry>,
    /// Which replicas the testbed has killed.
    pub dead: Vec<bool>,
    /// Router node.
    pub router: NodeId,
    /// Hub node.
    pub hub: NodeId,
    /// Built-from configuration.
    pub config: ChainConfig,
    /// `config` as the builders shared with the pair testbed take it.
    base: TestbedConfig,
    /// Reprovisioning bookkeeping (its moments reach every hub).
    pub tracker: ReprovisionTracker,
    /// The replica index whose lag ledger proves catch-up (the old
    /// tail converted to a middle link), once a round started.
    catchup_link: Option<usize>,
    /// Next free port on the shared-segment hub.
    next_hub_port: usize,
    /// Which observers every replica gets, resolved once from
    /// `config` and the environment when the testbed was built.
    observers: ObserverSwitches,
}

impl ChainTestbed {
    /// Builds the chained testbed.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas < 2` (the chain degenerates) or
    /// `> 200` (address space).
    pub fn new(config: ChainConfig) -> Self {
        assert!((2..=200).contains(&config.replicas));
        let n = config.replicas;
        let observers = ObserverSwitches::resolve(
            config.audit,
            config.latency,
            config.health,
            config.span_trace,
        );
        let replica_addrs: Vec<Ipv4Addr> = (0..n)
            .map(|i| Ipv4Addr::new(10, 0, 0, 2 + i as u8))
            .collect();
        let base = config.base();

        let mut sim = Simulator::new(config.seed);
        // One port per replica + the router uplink + headroom for
        // reprovisioned standbys.
        let hub = sim.add_device(Box::new(Hub::new(
            "segment",
            n + 1 + STANDBY_PORTS,
            100_000_000,
        )));
        let (router, client) = spawn_router_and_client(&mut sim, &base, None);
        sim.connect((hub, 0), (router, 1), LinkParams::attachment());

        let mut tb = ChainTestbed {
            sim,
            client,
            replicas: Vec::new(),
            replica_addrs,
            hubs: Vec::new(),
            dead: vec![false; n],
            router,
            hub,
            config,
            base,
            tracker: ReprovisionTracker::new(),
            catchup_link: None,
            next_hub_port: 1,
            observers,
        };

        // Replicas, head first.
        for i in 0..n {
            let node = tb.spawn_replica(i);
            tb.replicas.push(node);
        }
        tb.sim.set_telemetry(tb.hubs[0].clone());
        let known = tb.replica_arp_entries();
        prime_server_arp(&mut tb.sim, &tb.replicas, &known);
        prime_router_arp(&mut tb.sim, router, &known);
        tb
    }

    /// Address and NIC of every replica, head first.
    fn replica_arp_entries(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        (self.replica_addrs.iter().copied())
            .enumerate()
            .map(|(i, a)| (a, replica_mac(i)))
            .collect()
    }

    /// Spawns replica `i` (address already in `replica_addrs`): a
    /// [`PrimaryBridge`] placed by position (upstream the nearest living
    /// replica toward the head, downstream the next one, none below the
    /// tail), observatories per the knobs, a fresh telemetry hub, and a
    /// [`ChainController`] over the full chain that already knows which
    /// members are dead. Wires the host to the next free hub port.
    /// Founders and reprovisioned standbys are built alike.
    fn spawn_replica(&mut self, i: usize) -> NodeId {
        let own = self.replica_addrs[i];
        let telemetry = new_hub(&self.base, self.observers);
        self.tracker.attach(&telemetry);
        let upstream = (i != 0).then(|| self.replica_addrs[self.last_living_before(i)]);
        let downstream = self.replica_addrs.get(i + 1).copied();
        let label = if downstream.is_some() {
            "chain"
        } else {
            "chain-tail"
        };
        let (base, on) = (&self.base, self.observers);
        let bridge = link_bridge(own, upstream, downstream, base, on, &telemetry, label);
        let mut host = replica_host(
            &self.base,
            &telemetry,
            &format!("replica{i}"),
            &self.replica_addrs,
            i,
            Box::new(bridge),
        );
        let controller = host.controller_mut::<ChainController>();
        for (j, &dead) in self.dead.iter().enumerate() {
            if dead {
                controller.set_peer_dead(self.replica_addrs[j]);
            }
        }
        let id = spawn_host(&mut self.sim, host);
        self.sim.connect(
            (self.hub, self.next_hub_port),
            (id, 0),
            LinkParams::attachment(),
        );
        self.next_hub_port += 1;
        self.hubs.push(telemetry);
        id
    }

    /// Kills replica `i` (0 = head) fail-stop: the `kill` moment opens
    /// a failure episode on every replica's hub.
    pub fn kill_replica(&mut self, i: usize) {
        let now = self.sim.now().as_nanos();
        let fields = [("replica", i.to_string())];
        let args = [Some(("replica", i as u64)), None];
        for hub in &self.hubs {
            hub.event(now, "chain_testbed", "kill", &fields, args);
        }
        self.dead[i] = true;
        self.sim.kill(self.replicas[i]);
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Installs `mk()` on every replica (active replication).
    pub fn install_servers<A: tcpfo_tcp::SocketApp>(&mut self, mk: impl Fn() -> A) {
        for &node in &self.replicas.clone() {
            self.sim.with::<Host, _>(node, |h, _| {
                h.add_app(Box::new(mk()));
            });
        }
    }

    // -----------------------------------------------------------------
    // Reprovisioning rounds — driven by
    // `tcpfo_apps::chain_ops::reprovision_tail`, which performs the
    // handoff itself.
    // -----------------------------------------------------------------

    /// Index of the current tail: the last living replica.
    ///
    /// # Panics
    ///
    /// Panics if every replica is dead.
    pub fn tail_index(&self) -> usize {
        (0..self.replicas.len())
            .rev()
            .find(|&i| !self.dead[i])
            .expect("at least one living replica")
    }

    /// Spawns a fresh standby replica at the end of the chain
    /// (phase 1): a tail diverting to the current tail,
    /// its own telemetry hub and observatories, a controller that
    /// already knows which founders are dead, ARP pre-primed both
    /// ways. Begins the tracker's round, on the standby's hub too.
    /// Returns the new replica's index.
    ///
    /// # Panics
    ///
    /// Panics if the hub has no port headroom left (at most
    /// [`STANDBY_PORTS`] standbys per testbed).
    pub fn spawn_standby(&mut self) -> usize {
        let k = self.replica_addrs.len();
        assert!(
            self.next_hub_port < self.config.replicas + 1 + STANDBY_PORTS,
            "no hub port left for another standby"
        );
        let addr = Ipv4Addr::new(10, 0, 0, 2 + k as u8);
        self.replica_addrs.push(addr);
        self.dead.push(false);
        // The standby mirrors a founding tail, diverting to the current
        // tail (which takes it below as part of the handoff).
        let id = self.spawn_replica(k);
        self.replicas.push(id);
        self.tracker.begin(addr, self.sim.now().as_nanos());

        // ARP, both directions, plus the router for good measure; the
        // survivors' controllers learn about the new chain member.
        let known = self.replica_arp_entries();
        prime_server_arp(&mut self.sim, &[id], &known);
        let survivors: Vec<NodeId> = (0..k)
            .filter(|&i| !self.dead[i])
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
        self.catchup_link = Some(self.last_living_before(standby));
        let backlog = self.catchup_lag();
        let now = self.sim.now().as_nanos();
        self.tracker.handoff_done(flows, backlog, now);
    }

    /// The last living replica before index `i`: a tail's upstream
    /// neighbour, and the tail itself as seen from a standby appended
    /// after it.
    fn last_living_before(&self, i: usize) -> usize {
        (0..i)
            .rev()
            .find(|&j| !self.dead[j])
            .expect("a living replica toward the head")
    }

    /// Unmatched replication backlog on the converted link: the lag
    /// ledger when the health observatory is attached, otherwise the
    /// sum of primary-queue bytes across its connections. Zero means
    /// the standby's stream has caught up with the converted link's.
    pub fn catchup_lag(&mut self) -> u64 {
        let Some(link) = self.catchup_link else {
            return 0;
        };
        let node = self.replicas[link];
        with_bridge(&mut self.sim, node, |b: &mut PrimaryBridge| {
            match b.observers().health.as_deref() {
                Some(obs) => obs.lag.unmatched_bytes(),
                None => {
                    let rows = b.connection_rows();
                    rows.iter().map(|r| r.pq_bytes as u64).sum()
                }
            }
        })
        .unwrap_or(0)
    }

    /// A fresh snapshot of replica `i`'s registry, its bridge's latest
    /// stats published first (a dead replica's stay as it left them).
    pub fn metrics_snapshot(&mut self, i: usize) -> MetricsSnapshot {
        let now = self.sim.now().as_nanos();
        if !self.dead[i] {
            with_bridge(&mut self.sim, self.replicas[i], |b: &mut PrimaryBridge| {
                b.sync_telemetry(now)
            });
        }
        self.hubs[i].registry.snapshot(now)
    }

    /// Sum of invariant-auditor rule firings across every living
    /// replica's bridge (0 when the auditor is detached). The PR9
    /// acceptance gate: a whole failover-plus-reprovisioning round with
    /// the auditor attached must report zero.
    pub fn audit_violations(&mut self) -> u64 {
        let mut total = 0;
        for (i, &node) in self.replicas.clone().iter().enumerate() {
            if self.dead[i] {
                continue;
            }
            total += self.sim.with::<Host, _>(node, |h, _| {
                let audit = observers_of(h.filter_mut()).and_then(|o| o.audit.as_deref());
                audit.map_or(0, |a| a.ledger().total_violations())
            });
        }
        total
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

impl std::fmt::Debug for ChainTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainTestbed")
            .field("replicas", &self.replica_addrs)
            .field("dead", &self.dead)
            .finish()
    }
}
