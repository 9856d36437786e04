//! The host device: NIC (with promiscuous mode), ARP, IP layer, the
//! TCP/IP-boundary filter hook, the TCP stack, applications, and an
//! optional controller (the failover logic of `tcpfo-core`).
//!
//! Data paths, matching Figure 1 of the paper:
//!
//! ```text
//!   apps ── SocketApi ── TcpStack
//!                           │  segments
//!                   SegmentFilter (the "bridge", §1)
//!                           │
//!                        IP layer ── ARP
//!                           │
//!                          NIC (promiscuous?) ── wire
//! ```
//!
//! Inbound TCP segments pass the filter *before* local-address checks,
//! which is what lets the secondary's bridge claim datagrams addressed
//! to the primary (§3.1); outbound segments pass it before the IP
//! layer, which is what lets the primary's bridge delay and merge
//! replies (§3.2).

use crate::app::{SocketApi, SocketApp};
use crate::config::TcpConfig;
use crate::filter::{AddressedSegment, FilterOutput, NoopFilter, SegmentFilter};
use crate::stack::TcpStack;
use bytes::Bytes;
use std::any::Any;
use tcpfo_net::neighbour::NeighbourTable;
use tcpfo_net::sim::{Ctx, Device, NodeId, Simulator, TimerToken};
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_telemetry::registry::HISTOGRAM_BUCKETS;
use tcpfo_telemetry::{Counter, Gauge, Histogram, LogHistogram, Telemetry};
use tcpfo_wire::arp::ArpPacket;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::{same_network, Ipv4Addr, Ipv4Packet, PROTO_TCP};
use tcpfo_wire::mac::MacAddr;

/// Timer token for the host's periodic stack tick.
pub const TOKEN_TICK: TimerToken = TimerToken(1);

/// Per-host CPU cost model. The simulator serialises all protocol
/// work on one virtual CPU: every transmitted frame costs
/// `tx_fixed + len·tx_per_byte`, every received frame charges
/// `rx_fixed + len·rx_per_byte` against the same budget (delaying
/// subsequent transmissions — an approximation that captures CPU
/// contention without reordering receptions). This is what stands in
/// for the paper's 566 MHz Pentium III protocol-processing cost.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Fixed cost per transmitted frame.
    pub tx_fixed: SimDuration,
    /// Per-byte transmit cost (checksum + copy), in nanoseconds.
    pub tx_per_byte_ns: u64,
    /// Fixed cost per received frame.
    pub rx_fixed: SimDuration,
    /// Per-byte receive cost, in nanoseconds.
    pub rx_per_byte_ns: u64,
    /// Positive random skew fraction (OS scheduling noise); 0 keeps
    /// runs fully deterministic for a fixed seed either way.
    pub jitter: f64,
}

impl CpuModel {
    /// An effectively free CPU (protocol work costs nothing).
    pub fn instant() -> Self {
        CpuModel {
            tx_fixed: SimDuration::ZERO,
            tx_per_byte_ns: 0,
            rx_fixed: SimDuration::ZERO,
            rx_per_byte_ns: 0,
            jitter: 0.0,
        }
    }

    /// A 2003-era server-class host (566 MHz P-III), calibrated so the
    /// standard-TCP baseline reproduces the paper's §9 absolute
    /// numbers.
    pub fn server_2003() -> Self {
        CpuModel {
            tx_fixed: SimDuration::from_micros(80),
            tx_per_byte_ns: 22,
            rx_fixed: SimDuration::from_micros(60),
            rx_per_byte_ns: 38,
            jitter: 0.0,
        }
    }

    /// Scales all costs (the paper's client was a faster 1 GHz host:
    /// scale ≈ 0.6).
    pub fn scaled(self, factor: f64) -> Self {
        let f = |d: SimDuration| SimDuration::from_nanos((d.as_nanos() as f64 * factor) as u64);
        CpuModel {
            tx_fixed: f(self.tx_fixed),
            tx_per_byte_ns: (self.tx_per_byte_ns as f64 * factor) as u64,
            rx_fixed: f(self.rx_fixed),
            rx_per_byte_ns: (self.rx_per_byte_ns as f64 * factor) as u64,
            jitter: self.jitter,
        }
    }

    /// Returns a copy with the given jitter fraction.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }
}

/// Static configuration of a host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name for traces.
    pub label: String,
    /// NIC hardware address.
    pub mac: MacAddr,
    /// Primary IP address.
    pub ip: Ipv4Addr,
    /// Prefix length of the attached network.
    pub prefix_len: u8,
    /// Default gateway for off-link destinations.
    pub gateway: Option<Ipv4Addr>,
    /// Protocol-processing cost model.
    pub cpu: CpuModel,
    /// Stack timer granularity.
    pub tick: SimDuration,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Start the NIC in promiscuous mode (the secondary server, §3.1).
    pub promiscuous: bool,
}

impl HostConfig {
    /// A host with paper-era defaults.
    pub fn new(label: &str, mac: MacAddr, ip: Ipv4Addr) -> Self {
        HostConfig {
            label: label.to_string(),
            mac,
            ip,
            prefix_len: 24,
            gateway: None,
            cpu: CpuModel::server_2003().scaled(0.5),
            tick: SimDuration::from_millis(1),
            tcp: TcpConfig::default(),
            promiscuous: false,
        }
    }

    /// Sets the default gateway.
    pub fn with_gateway(mut self, gw: Ipv4Addr) -> Self {
        self.gateway = Some(gw);
        self
    }

    /// Sets the TCP configuration.
    pub fn with_tcp(mut self, tcp: TcpConfig) -> Self {
        self.tcp = tcp;
        self
    }

    /// Enables promiscuous receive mode.
    pub fn promiscuous(mut self) -> Self {
        self.promiscuous = true;
        self
    }
}

/// NIC + ARP + IP state, separated from [`Host`] so that services can
/// borrow it alongside the stack and filter.
pub struct HostNet {
    /// NIC hardware address.
    pub mac: MacAddr,
    /// Addresses this host answers for (IP takeover appends here).
    pub local_ips: Vec<Ipv4Addr>,
    prefix_len: u8,
    network: Ipv4Addr,
    gateway: Option<Ipv4Addr>,
    /// Promiscuous receive mode (§3.1 / disabled in §5 step 2).
    pub promiscuous: bool,
    neighbours: NeighbourTable,
    cpu: CpuModel,
    cpu_free_at: SimTime,
    /// Frames transmitted (observability).
    pub frames_sent: u64,
}

impl HostNet {
    fn new(cfg: &HostConfig) -> Self {
        HostNet {
            mac: cfg.mac,
            local_ips: vec![cfg.ip],
            prefix_len: cfg.prefix_len,
            network: cfg.ip,
            gateway: cfg.gateway,
            promiscuous: cfg.promiscuous,
            neighbours: NeighbourTable::default(),
            cpu: cfg.cpu,
            cpu_free_at: SimTime::ZERO,
            frames_sent: 0,
        }
    }

    /// Whether `ip` is one of our addresses.
    pub fn is_local(&self, ip: Ipv4Addr) -> bool {
        self.local_ips.contains(&ip)
    }

    /// Pre-populates the ARP cache (the paper primes caches before
    /// measuring, §9).
    pub fn prime_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.neighbours.insert(ip, mac);
    }

    /// Datagrams dropped while parked on an ARP resolution (the oldest
    /// goes when a next hop's queue is full).
    pub fn arp_dropped(&self) -> u64 {
        self.neighbours.dropped()
    }

    /// Sends a TCP segment as an IP datagram.
    pub fn send_tcp(&mut self, seg: AddressedSegment, ctx: &mut Ctx<'_>) {
        let pkt = Ipv4Packet::new(seg.src, seg.dst, PROTO_TCP, seg.bytes);
        self.send_ip(pkt, ctx);
    }

    /// Sends a raw IP datagram (heartbeats use this).
    pub fn send_ip(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        let next_hop = if same_network(pkt.dst, self.network, self.prefix_len) {
            pkt.dst
        } else {
            match self.gateway {
                Some(gw) => gw,
                None => return, // unroutable
            }
        };
        match self.neighbours.mac(next_hop) {
            Some(mac) => self.emit_ip(mac, &pkt, ctx),
            None => {
                let request = self
                    .neighbours
                    .park(next_hop, pkt, self.mac, self.local_ips[0]);
                ctx.transmit(0, request);
            }
        }
    }

    fn emit_ip(&mut self, dst_mac: MacAddr, pkt: &Ipv4Packet, ctx: &mut Ctx<'_>) {
        let base = self.cpu.tx_fixed
            + SimDuration::from_nanos(pkt.payload.len() as u64 * self.cpu.tx_per_byte_ns);
        let cost = self.jittered(base, ctx);
        let start = self.cpu_free_at.max(ctx.now()) + cost;
        self.cpu_free_at = start;
        let delay = start.duration_since(ctx.now());
        self.frames_sent += 1;
        ctx.transmit_delayed(0, pkt.encode_framed(dst_mac, self.mac), delay);
    }

    fn jittered(&self, base: SimDuration, ctx: &mut Ctx<'_>) -> SimDuration {
        if self.cpu.jitter > 0.0 {
            use rand::Rng;
            let f = 1.0 + ctx.rng().gen::<f64>() * self.cpu.jitter;
            SimDuration::from_nanos((base.as_nanos() as f64 * f) as u64)
        } else {
            base
        }
    }

    /// Charges receive-side protocol processing against the CPU (it
    /// delays whatever this host transmits next).
    pub fn charge_rx(&mut self, payload_len: usize, ctx: &mut Ctx<'_>) {
        let base = self.cpu.rx_fixed
            + SimDuration::from_nanos(payload_len as u64 * self.cpu.rx_per_byte_ns);
        let cost = self.jittered(base, ctx);
        self.cpu_free_at = self.cpu_free_at.max(ctx.now()) + cost;
    }

    /// How long a datagram handed to [`HostNet::send_ip`] at `now` waits
    /// for the modelled CPU to work off what is already queued.
    pub fn transmit_backlog(&self, now: SimTime) -> SimDuration {
        self.cpu_free_at.max(now).duration_since(now)
    }

    /// Takes back every frame for `ip`'s link address that the modelled
    /// CPU has not released yet and gives the CPU their slots: what stays
    /// queued leaves that much sooner. Returns frames and time freed. For
    /// a caller that knows nobody listens there any more (§5: a dead peer).
    pub fn withdraw_frames_to(&mut self, ip: Ipv4Addr, ctx: &mut Ctx<'_>) -> (u64, SimDuration) {
        let Some(mac) = self.neighbours.mac(ip) else {
            return (0, SimDuration::ZERO);
        };
        let (frames, freed) = ctx.recall(0, |frame| frame.starts_with(&mac.0));
        self.cpu_free_at = self.cpu_free_at - freed;
        self.frames_sent -= frames;
        (frames, freed)
    }

    /// Broadcasts a gratuitous ARP for `ip` (IP takeover, §5 step 5).
    pub fn gratuitous_arp(&mut self, ip: Ipv4Addr, ctx: &mut Ctx<'_>) {
        let announce = ArpPacket::gratuitous(self.mac, ip);
        ctx.transmit(0, announce.encode_framed(MacAddr::BROADCAST, self.mac));
    }
}

/// Capabilities exposed to a [`HostController`]: everything the §5/§6
/// failover procedures need.
pub struct HostServices<'h, 'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// NIC/ARP/IP state.
    pub net: &'h mut HostNet,
    /// The TCP stack.
    pub stack: &'h mut TcpStack,
    /// The TCP/IP-boundary filter (downcast to the concrete bridge).
    pub filter: &'h mut dyn SegmentFilter,
    /// Simulator dispatch context.
    pub ctx: &'h mut Ctx<'a>,
}

impl<'h, 'a> HostServices<'h, 'a> {
    /// Sends a raw IP datagram (e.g. a heartbeat) from our primary IP.
    pub fn send_raw(&mut self, proto: u8, dst: Ipv4Addr, payload: Bytes) {
        let pkt = Ipv4Packet::new(self.net.local_ips[0], dst, proto, payload);
        self.net.send_ip(pkt, self.ctx);
    }

    /// Routes a filter output: wire-bound segments to IP, TCP-bound
    /// segments into the local stack.
    pub fn dispatch(&mut self, output: FilterOutput) {
        for seg in output.to_wire {
            self.net.send_tcp(seg, self.ctx);
        }
        for seg in output.to_tcp {
            if self.net.is_local(seg.dst) {
                self.stack.on_segment(&seg, self.now);
            }
        }
    }
}

/// Failover/replication logic attached to a host (implemented in
/// `tcpfo-core`): receives raw datagrams (heartbeats) and clock ticks.
pub trait HostController: 'static {
    /// Called on every stack tick.
    fn on_tick(&mut self, services: &mut HostServices<'_, '_>);

    /// Called when a non-TCP IP datagram addressed to this host
    /// arrives.
    fn on_raw(
        &mut self,
        proto: u8,
        src: Ipv4Addr,
        payload: &[u8],
        services: &mut HostServices<'_, '_>,
    );

    /// Downcast access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Registry handles a host publishes its TCP counters through, under
/// the scope `tcp.<label>`.
struct TcpInstruments {
    retransmits: Counter,
    rto_expiries: Counter,
    checksum_drops: Counter,
    rst_sent: Counter,
    /// Current / high-water peer-advertised send window across all
    /// live sockets.
    snd_wnd: Gauge,
    /// Congestion-window evolution, sampled once per tick per socket.
    cwnd: Histogram,
}

/// A simulated host with a full network stack.
pub struct Host {
    label: String,
    net: HostNet,
    stack: TcpStack,
    filter: Box<dyn SegmentFilter>,
    apps: Vec<Option<Box<dyn SocketApp>>>,
    controller: Option<Box<dyn HostController>>,
    tick: SimDuration,
    telemetry: Option<TcpInstruments>,
    /// Reused filter-output scratch — per-packet filtering appends into
    /// these vectors and drains them, so the steady state never
    /// allocates output lists.
    fout: FilterOutput,
    /// The stack's outbox trades storage with this one on every pump,
    /// so neither list allocates again once both are warm.
    outbox: Vec<AddressedSegment>,
}

impl Host {
    /// Creates a host from its configuration (with a [`NoopFilter`];
    /// install a bridge with [`Host::set_filter`]).
    pub fn new(cfg: HostConfig) -> Self {
        Host {
            label: cfg.label.clone(),
            net: HostNet::new(&cfg),
            stack: TcpStack::new(cfg.tcp.clone()),
            filter: Box::new(NoopFilter),
            apps: Vec::new(),
            controller: None,
            tick: cfg.tick,
            telemetry: None,
            fout: FilterOutput::empty(),
            outbox: Vec::new(),
        }
    }

    /// Connects this host to a telemetry hub. Stack counters
    /// (retransmits, RTO expiries, checksum drops, RSTs) and window
    /// evolution are then published under `tcp.<label>` once per tick.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let scope = telemetry.registry.scope(&format!("tcp.{}", self.label));
        self.telemetry = Some(TcpInstruments {
            retransmits: scope.counter("retransmits"),
            rto_expiries: scope.counter("rto_expiries"),
            checksum_drops: scope.counter("checksum_drops"),
            rst_sent: scope.counter("rst_sent"),
            snd_wnd: scope.gauge("snd_wnd"),
            cwnd: scope.histogram("cwnd"),
        });
    }

    /// One `cwnd` sample per established socket and the sum of their
    /// send windows, read off the stack's running view: the cost is per
    /// distinct window value, not per open socket.
    fn publish_telemetry(&self, now: SimTime) {
        let Some(t) = &self.telemetry else { return };
        t.retransmits.set_at_least(self.stack.total_retransmits());
        t.rto_expiries.set_at_least(self.stack.total_rto_expiries());
        t.checksum_drops.set_at_least(self.stack.checksum_drops);
        t.rst_sent.set_at_least(self.stack.rst_sent);
        let (wnd_sum, cwnds) = self.stack.established_windows();
        let mut cwnd = LogHistogram::<HISTOGRAM_BUCKETS>::new();
        for (v, sockets) in cwnds {
            cwnd.record_n(u64::from(v), u64::from(sockets));
        }
        if !cwnd.is_empty() {
            t.cwnd.absorb(&cwnd);
            t.snd_wnd.set_at(wnd_sum, now.as_nanos());
        }
    }

    /// Replaces the TCP/IP-boundary filter (installs a bridge).
    pub fn set_filter(&mut self, filter: Box<dyn SegmentFilter>) {
        self.filter = filter;
    }

    /// Installs the host controller (failover logic).
    pub fn set_controller(&mut self, controller: Box<dyn HostController>) {
        self.controller = Some(controller);
    }

    /// Adds an application; returns its index for later access.
    pub fn add_app(&mut self, app: Box<dyn SocketApp>) -> usize {
        self.apps.push(Some(app));
        self.apps.len() - 1
    }

    /// This host's primary IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.net.local_ips[0]
    }

    /// NIC hardware address.
    pub fn mac(&self) -> MacAddr {
        self.net.mac
    }

    /// Network state (promiscuous flag, ARP priming, …).
    pub fn net_mut(&mut self) -> &mut HostNet {
        &mut self.net
    }

    /// The TCP stack (configuration, failover port sets, …).
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// Immutable stack access.
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// Downcast access to an installed app.
    ///
    /// # Panics
    ///
    /// Panics if the index or type is wrong, or if called re-entrantly
    /// from within that same app's `poll`.
    pub fn app_mut<T: SocketApp>(&mut self, index: usize) -> &mut T {
        self.apps[index]
            .as_mut()
            .expect("app is being polled")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("app type mismatch")
    }

    /// Downcast access to the filter (bridge reconfiguration).
    pub fn filter_mut(&mut self) -> &mut dyn SegmentFilter {
        self.filter.as_mut()
    }

    /// Downcast access to the controller.
    pub fn controller_mut<T: HostController>(&mut self) -> &mut T {
        self.controller
            .as_mut()
            .expect("no controller installed")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("controller type mismatch")
    }

    /// Runs `f` with a [`SocketApi`], then pumps the stack so any
    /// produced segments leave immediately. For driving a host from a
    /// test or measurement harness.
    pub fn with_api<R>(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut SocketApi<'_>) -> R) -> R {
        let local_ip = self.net.local_ips[0];
        let mut api = SocketApi::new(&mut self.stack, ctx.now(), local_ip);
        let r = f(&mut api);
        self.pump(ctx);
        r
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Drains a filter output, keeping its allocations for reuse.
    fn dispatch_filter_output(&mut self, output: &mut FilterOutput, ctx: &mut Ctx<'_>) {
        for seg in output.to_wire.drain(..) {
            self.net.send_tcp(seg, ctx);
        }
        for seg in output.to_tcp.drain(..) {
            if self.net.is_local(seg.dst) {
                self.stack.on_segment(&seg, ctx.now());
            }
        }
    }

    /// Runs one segment through the inbound filter using the reused
    /// output scratch.
    fn filter_inbound(&mut self, seg: AddressedSegment, ctx: &mut Ctx<'_>) {
        let mut fo = std::mem::take(&mut self.fout);
        self.filter
            .on_inbound_into(seg, ctx.now().as_nanos(), &mut fo);
        self.dispatch_filter_output(&mut fo, ctx);
        self.fout = fo;
    }

    /// Drains stack output through the filter until quiescent.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..32 {
            for rule in self.stack.drain_designations() {
                self.filter.designate(rule);
            }
            let mut out = std::mem::take(&mut self.outbox);
            self.stack.swap_outbox(&mut out);
            if out.is_empty() {
                self.outbox = out;
                return;
            }
            let mut fo = std::mem::take(&mut self.fout);
            for mut seg in out.drain(..) {
                // Stack-originated segments enter the datapath here:
                // give each a causal trace id.
                seg.ensure_trace();
                self.filter
                    .on_outbound_into(seg, ctx.now().as_nanos(), &mut fo);
                self.dispatch_filter_output(&mut fo, ctx);
            }
            self.fout = fo;
            self.outbox = out;
        }
        debug_assert!(false, "host pump did not quiesce");
    }

    fn poll_apps(&mut self, ctx: &mut Ctx<'_>) {
        let local_ip = self.net.local_ips[0];
        for i in 0..self.apps.len() {
            let Some(mut app) = self.apps[i].take() else {
                continue;
            };
            {
                let mut api = SocketApi::new(&mut self.stack, ctx.now(), local_ip);
                app.poll(&mut api);
            }
            self.apps[i] = Some(app);
            self.pump(ctx);
        }
    }

    fn run_controller_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut controller) = self.controller.take() else {
            return;
        };
        {
            let mut services = HostServices {
                now: ctx.now(),
                net: &mut self.net,
                stack: &mut self.stack,
                filter: self.filter.as_mut(),
                ctx,
            };
            controller.on_tick(&mut services);
        }
        self.controller = Some(controller);
        self.pump(ctx);
    }

    fn run_controller_raw(&mut self, proto: u8, src: Ipv4Addr, payload: &[u8], ctx: &mut Ctx<'_>) {
        let Some(mut controller) = self.controller.take() else {
            return;
        };
        {
            let mut services = HostServices {
                now: ctx.now(),
                net: &mut self.net,
                stack: &mut self.stack,
                filter: self.filter.as_mut(),
                ctx,
            };
            controller.on_raw(proto, src, payload, &mut services);
        }
        self.controller = Some(controller);
        self.pump(ctx);
    }
}

impl Device for Host {
    fn label(&self) -> &str {
        &self.label
    }

    fn handle_frame(&mut self, _port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
        let Ok(eth) = EthernetFrame::decode_shared(frame) else {
            return;
        };
        let for_us = eth.dst == self.net.mac || eth.dst.is_broadcast();
        if !for_us && !self.net.promiscuous {
            return;
        }
        match eth.ethertype {
            EtherType::Arp => {
                if let Ok(arp) = ArpPacket::decode(&eth.payload) {
                    // Promiscuously overheard ARP still teaches us
                    // mappings, but we only *answer* requests for our
                    // own addresses.
                    let net = &mut self.net;
                    let (parked, reply) = net.neighbours.on_arp(&arp, net.mac, &net.local_ips);
                    for pkt in parked {
                        net.emit_ip(arp.sender_mac, &pkt, ctx);
                    }
                    if let Some(reply) = reply {
                        ctx.transmit(0, reply);
                    }
                }
            }
            EtherType::Ipv4 => {
                let Ok(pkt) = Ipv4Packet::decode_shared(eth.payload) else {
                    return;
                };
                self.net.charge_rx(pkt.payload.len(), ctx);
                if pkt.protocol == PROTO_TCP {
                    // A received frame is a datapath entry point (for a
                    // bridge host this is the client-ingress stamp).
                    let mut seg = AddressedSegment::new(pkt.src, pkt.dst, pkt.payload);
                    seg.ensure_trace();
                    self.filter_inbound(seg, ctx);
                } else if self.net.is_local(pkt.dst) {
                    self.run_controller_raw(pkt.protocol, pkt.src, &pkt.payload, ctx);
                }
            }
            EtherType::Other(_) => {}
        }
        self.pump(ctx);
        self.poll_apps(ctx);
    }

    fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(token, TOKEN_TICK);
        self.stack.on_tick(ctx.now());
        self.pump(ctx);
        self.run_controller_tick(ctx);
        self.poll_apps(ctx);
        self.filter.on_tick(ctx.now().as_nanos());
        self.publish_telemetry(ctx.now());
        let tick = self.tick;
        ctx.schedule(tick, TOKEN_TICK);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Adds `host` to `sim` and arms its periodic tick.
pub fn spawn_host(sim: &mut Simulator, host: Host) -> NodeId {
    let id = sim.add_device(Box::new(host));
    sim.schedule_timer(id, SimDuration::ZERO, TOKEN_TICK);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::TcpState;
    use crate::types::{SocketAddr, SocketId};
    use tcpfo_net::link::LinkParams;
    use tcpfo_net::router::{Interface, Router};
    use tcpfo_net::sim::Simulator;

    /// A server app that accepts one connection and echoes everything.
    struct EchoServer {
        listener: Option<crate::types::ListenerId>,
        conn: Option<SocketId>,
        port: u16,
        pending: Vec<u8>,
        echoed: u64,
    }

    impl EchoServer {
        fn new(port: u16) -> Self {
            EchoServer {
                listener: None,
                conn: None,
                port,
                pending: Vec::new(),
                echoed: 0,
            }
        }
    }

    impl SocketApp for EchoServer {
        fn poll(&mut self, api: &mut SocketApi<'_>) {
            if self.listener.is_none() {
                self.listener = api.listen(self.port, false).ok();
            }
            if self.conn.is_none() {
                if let Some(l) = self.listener {
                    self.conn = api.accept(l);
                }
            }
            if let Some(c) = self.conn {
                // Flush previously unsent echo bytes first, then read
                // more; partial sends must never drop data.
                if !self.pending.is_empty() {
                    let n = api.send(c, &self.pending).unwrap_or(0);
                    self.pending.drain(..n);
                }
                if self.pending.is_empty() {
                    let data = api.recv(c, 65536).unwrap_or_default();
                    if !data.is_empty() {
                        self.echoed += data.len() as u64;
                        let n = api.send(c, &data).unwrap_or(0);
                        self.pending.extend_from_slice(&data[n..]);
                    }
                }
                if api.peer_closed(c) && self.pending.is_empty() && api.unacked(c) == 0 {
                    let _ = api.close(c);
                }
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A client that connects, sends a message, and collects the echo.
    struct EchoClient {
        server: SocketAddr,
        message: Vec<u8>,
        conn: Option<SocketId>,
        sent: usize,
        received: Vec<u8>,
        done: bool,
    }

    impl EchoClient {
        fn new(server: SocketAddr, message: Vec<u8>) -> Self {
            EchoClient {
                server,
                message,
                conn: None,
                sent: 0,
                received: Vec::new(),
                done: false,
            }
        }
    }

    impl SocketApp for EchoClient {
        fn poll(&mut self, api: &mut SocketApi<'_>) {
            if self.conn.is_none() {
                self.conn = api.connect(self.server, false).ok();
                return;
            }
            let c = self.conn.unwrap();
            if !api.is_established(c) {
                return;
            }
            if self.sent < self.message.len() {
                self.sent += api.send(c, &self.message[self.sent..]).unwrap_or(0);
            }
            let data = api.recv(c, 65536).unwrap_or_default();
            self.received.extend(data);
            if self.received.len() >= self.message.len() && !self.done {
                self.done = true;
                let _ = api.close(c);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);
    const GW_CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    const GW_SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// client -- router -- server, dedicated fast-Ethernet links.
    fn routed_pair(loss: f64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(11);
        let router = sim.add_device(Box::new(Router::new(
            "router",
            vec![
                Interface {
                    mac: MacAddr::from_index(100),
                    ip: GW_CLIENT,
                    prefix_len: 24,
                },
                Interface {
                    mac: MacAddr::from_index(101),
                    ip: GW_SERVER,
                    prefix_len: 24,
                },
            ],
            SimDuration::from_micros(15),
        )));
        let client = spawn_host(
            &mut sim,
            Host::new(
                HostConfig::new("client", MacAddr::from_index(1), CLIENT_IP)
                    .with_gateway(GW_CLIENT)
                    .with_tcp(TcpConfig::default().with_isn_seed(101)),
            ),
        );
        let server = spawn_host(
            &mut sim,
            Host::new(
                HostConfig::new("server", MacAddr::from_index(2), SERVER_IP)
                    .with_gateway(GW_SERVER)
                    .with_tcp(TcpConfig::default().with_isn_seed(202)),
            ),
        );
        sim.connect(
            (router, 0),
            (client, 0),
            LinkParams::fast_ethernet().with_loss(loss),
        );
        sim.connect(
            (router, 1),
            (server, 0),
            LinkParams::fast_ethernet().with_loss(loss),
        );
        (sim, client, server)
    }

    fn run_echo(loss: f64, message_len: usize, deadline_ms: u64) -> (Vec<u8>, Vec<u8>) {
        let (mut sim, client, server) = routed_pair(loss);
        sim.with::<Host, _>(server, |h, _| {
            h.add_app(Box::new(EchoServer::new(80)));
        });
        let message: Vec<u8> = (0..message_len).map(|i| (i % 251) as u8).collect();
        let msg_clone = message.clone();
        sim.with::<Host, _>(client, |h, _| {
            h.add_app(Box::new(EchoClient::new(
                SocketAddr::new(SERVER_IP, 80),
                msg_clone,
            )));
        });
        sim.run_for(SimDuration::from_millis(deadline_ms));
        let received =
            sim.with::<Host, _>(client, |h, _| h.app_mut::<EchoClient>(0).received.clone());
        (message, received)
    }

    #[test]
    fn end_to_end_echo_over_router() {
        let (message, received) = run_echo(0.0, 20_000, 1_000);
        assert_eq!(received, message);
    }

    #[test]
    fn end_to_end_echo_survives_loss() {
        // 2% loss each way; retransmission must recover everything.
        let (message, received) = run_echo(0.02, 60_000, 30_000);
        assert_eq!(received.len(), message.len(), "transfer incomplete");
        assert_eq!(received, message);
    }

    #[test]
    fn connection_refused_on_closed_port() {
        let (mut sim, client, _server) = routed_pair(0.0);
        let conn = sim.with::<Host, _>(client, |h, ctx| {
            h.with_api(ctx, |api| {
                api.connect(SocketAddr::new(SERVER_IP, 4444), false)
                    .unwrap()
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        sim.with::<Host, _>(client, |h, _| {
            let sock = h.stack().socket(conn).unwrap();
            assert_eq!(sock.state, TcpState::Closed);
            assert_eq!(sock.error, Some(crate::socket::SocketError::Reset));
        });
    }

    #[test]
    fn orderly_shutdown_reaches_closed_everywhere() {
        let (mut sim, client, server) = routed_pair(0.0);
        sim.with::<Host, _>(server, |h, _| {
            h.add_app(Box::new(EchoServer::new(80)));
        });
        sim.with::<Host, _>(client, |h, _| {
            h.add_app(Box::new(EchoClient::new(
                SocketAddr::new(SERVER_IP, 80),
                b"farewell".to_vec(),
            )));
        });
        sim.run_for(SimDuration::from_secs(3));
        sim.with::<Host, _>(server, |h, _| {
            let states: Vec<_> = h
                .stack()
                .socket_ids()
                .into_iter()
                .map(|id| h.stack().socket(id).unwrap().state)
                .collect();
            assert!(
                states.iter().all(|s| *s == TcpState::Closed),
                "server states: {states:?}"
            );
        });
    }

    /// Five datagrams queued behind the modelled CPU, three of them for
    /// a peer that is gone: taking those back leaves exactly the two
    /// slots the others need, and only those two cross the segment.
    #[test]
    fn withdrawn_frames_give_the_cpu_their_slots_back() {
        let ip = |i| Ipv4Addr::new(10, 0, 0, i);
        let mut sim = Simulator::new(11);
        let hub = sim.add_device(Box::new(tcpfo_net::hub::Hub::new("hub", 3, 100_000_000)));
        for i in 1..=3u8 {
            let cfg = HostConfig::new("h", MacAddr::from_index(i.into()), ip(i));
            let host = spawn_host(&mut sim, Host::new(cfg));
            sim.connect((hub, (i - 1).into()), (host, 0), LinkParams::attachment());
        }
        sim.with::<Host, _>(hub + 1, |h, ctx| {
            let (net, now) = (h.net_mut(), ctx.now());
            for i in [2, 3, 2, 3, 2] {
                net.prime_arp(ip(i), MacAddr::from_index(i.into()));
                let datagram = Ipv4Packet::new(ip(1), ip(i), 253, Bytes::from(vec![0; 1000]));
                net.send_ip(datagram, ctx);
            }
            let slot = SimDuration::from_nanos(net.transmit_backlog(now).as_nanos() / 5);
            assert!(slot > SimDuration::ZERO);
            let (frames, freed) = net.withdraw_frames_to(ip(2), ctx);
            assert_eq!((frames, freed), (3, slot.saturating_mul(3)));
            assert_eq!(net.transmit_backlog(now), slot.saturating_mul(2));
            assert_eq!(net.frames_sent, 2);
            assert_eq!(net.withdraw_frames_to(ip(9), ctx).0, 0, "no such neighbour");
        });
        sim.run_for(SimDuration::from_millis(1));
        sim.with::<tcpfo_net::hub::Hub, _>(hub, |h, _| assert_eq!(h.forwarded(), 2));
    }

    /// Keeps every frame it hears.
    struct Tap(Vec<Bytes>);

    impl Device for Tap {
        fn label(&self) -> &str {
            "tap"
        }
        fn handle_frame(&mut self, _: usize, frame: Bytes, _: &mut Ctx<'_>) {
            self.0.push(frame);
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Hosts `10.0.0.1` and `10.0.0.2` and a [`Tap`] on one hub.
    fn tapped_segment() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(11);
        let hub = sim.add_device(Box::new(tcpfo_net::hub::Hub::new("hub", 3, 100_000_000)));
        let host = |sim: &mut Simulator, i: u8| {
            let cfg = HostConfig::new(
                "h",
                MacAddr::from_index(i.into()),
                Ipv4Addr::new(10, 0, 0, i),
            );
            spawn_host(sim, Host::new(cfg))
        };
        let (a, b) = (host(&mut sim, 1), host(&mut sim, 2));
        let tap = sim.add_device(Box::new(Tap(Vec::new())));
        for (port, node) in [a, b, tap].into_iter().enumerate() {
            sim.connect((hub, port), (node, 0), LinkParams::attachment());
        }
        (sim, a, b, tap)
    }

    /// The ARP packets and the IPv4 datagrams (with the MAC each was
    /// framed to) the tap heard, in order.
    fn heard(sim: &mut Simulator, tap: NodeId) -> (Vec<ArpPacket>, Vec<(MacAddr, Ipv4Packet)>) {
        let frames = sim.with::<Tap, _>(tap, |t, _| std::mem::take(&mut t.0));
        let (mut arps, mut datagrams) = (Vec::new(), Vec::new());
        for frame in frames {
            let eth = EthernetFrame::decode(&frame).unwrap();
            match eth.ethertype {
                EtherType::Arp => arps.push(ArpPacket::decode(&eth.payload).unwrap()),
                EtherType::Ipv4 => {
                    datagrams.push((eth.dst, Ipv4Packet::decode(&eth.payload).unwrap()));
                }
                EtherType::Other(_) => {}
            }
        }
        (arps, datagrams)
    }

    /// After a takeover the host owns a second address (the VIP): a
    /// request for it is answered with the VIP as the sender, and the
    /// datagram parked on that request then leaves for the host's MAC.
    #[test]
    fn a_host_answers_arp_for_its_second_address_as_that_address() {
        let (mut sim, a, b, tap) = tapped_segment();
        let vip = Ipv4Addr::new(10, 0, 0, 9);
        sim.with::<Host, _>(b, |h, _| h.net_mut().local_ips.push(vip));
        sim.with::<Host, _>(a, |h, ctx| {
            let datagram = Ipv4Packet::new(h.net_mut().local_ips[0], vip, 253, Bytes::new());
            h.net_mut().send_ip(datagram, ctx);
        });
        sim.run_for(SimDuration::from_millis(1));
        let (arps, datagrams) = heard(&mut sim, tap);
        let (mac_a, mac_b) = (MacAddr::from_index(1), MacAddr::from_index(2));
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(
            arps,
            [
                ArpPacket::request(mac_a, ip_a, vip),
                ArpPacket::reply(mac_b, vip, mac_a, ip_a),
            ]
        );
        assert_eq!(datagrams.len(), 1);
        assert_eq!((datagrams[0].0, datagrams[0].1.dst), (mac_b, vip));
    }

    /// The host twin of the router's bound: a next hop that never
    /// answers holds at most 16 parked datagrams, the oldest go and are
    /// counted, and once the address is announced the newest 16 leave
    /// in the order they were sent.
    #[test]
    fn parked_datagrams_stay_bounded_when_next_hop_never_answers() {
        let (mut sim, a, b, tap) = tapped_segment();
        let silent = Ipv4Addr::new(10, 0, 0, 7);
        for tag in 0..40u8 {
            sim.with::<Host, _>(a, |h, ctx| {
                let src = h.net_mut().local_ips[0];
                let datagram = Ipv4Packet::new(src, silent, 253, Bytes::from(vec![tag]));
                h.net_mut().send_ip(datagram, ctx);
            });
            sim.run_for(SimDuration::from_millis(1));
        }
        sim.with::<Host, _>(a, |h, _| {
            assert_eq!(
                (h.net_mut().arp_dropped(), h.net_mut().frames_sent),
                (24, 0)
            );
        });
        sim.with::<Host, _>(b, |h, ctx| h.net_mut().gratuitous_arp(silent, ctx));
        sim.run_for(SimDuration::from_millis(1));
        let (arps, datagrams) = heard(&mut sim, tap);
        assert_eq!(
            arps.len(),
            41,
            "a request per datagram, then the announcement"
        );
        let tags: Vec<u8> = datagrams.iter().map(|(_, d)| d.payload[0]).collect();
        assert_eq!(tags, (24..40).collect::<Vec<_>>());
        assert!(datagrams
            .iter()
            .all(|(mac, _)| *mac == MacAddr::from_index(2)));
    }

    /// Delivers every inbound segment, counting the ones it could take
    /// over in place and the ones another view of the frame still held.
    #[derive(Default)]
    struct TakeOver {
        unique: u32,
        shared: u32,
    }

    impl SegmentFilter for TakeOver {
        fn on_outbound_into(&mut self, seg: AddressedSegment, _: u64, out: &mut FilterOutput) {
            out.to_wire.push(seg);
        }
        fn on_inbound_into(&mut self, mut seg: AddressedSegment, _: u64, out: &mut FilterOutput) {
            seg.bytes = match std::mem::take(&mut seg.bytes).try_into_mut() {
                Ok(only) => {
                    self.unique += 1;
                    only.freeze()
                }
                Err(shared) => {
                    self.shared += 1;
                    shared
                }
            };
            out.to_tcp.push(seg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Over a point-to-point wire nothing else holds a received frame,
    /// so the segment the filter gets is that frame's only view.
    #[test]
    fn a_segment_from_a_point_to_point_wire_is_its_frames_only_view() {
        let ip = |i| Ipv4Addr::new(10, 0, 0, i);
        let mut sim = Simulator::new(11);
        let host = |sim: &mut Simulator, i: u8| {
            let cfg = HostConfig::new("h", MacAddr::from_index(i.into()), ip(i));
            spawn_host(sim, Host::new(cfg))
        };
        let (a, b) = (host(&mut sim, 1), host(&mut sim, 2));
        sim.connect((a, 0), (b, 0), LinkParams::attachment());
        sim.with::<Host, _>(b, |h, _| {
            h.set_filter(Box::new(TakeOver::default()));
            h.add_app(Box::new(EchoServer::new(80)));
        });
        sim.with::<Host, _>(a, |h, _| {
            let message = b"one view".to_vec();
            h.add_app(Box::new(EchoClient::new(
                SocketAddr::new(ip(2), 80),
                message,
            )));
        });
        sim.run_for(SimDuration::from_millis(200));
        sim.with::<Host, _>(a, |h, _| {
            assert_eq!(h.app_mut::<EchoClient>(0).received, b"one view");
        });
        let (unique, shared) = sim.with::<Host, _>(b, |h, _| {
            let any = h.filter_mut().as_any_mut();
            let f = any.downcast_mut::<TakeOver>().expect("installed above");
            (f.unique, f.shared)
        });
        assert_eq!(shared, 0, "no other view held a received frame");
        assert!(unique >= 3, "handshake and data: {unique}");
    }

    #[test]
    fn promiscuous_host_sees_foreign_frames_filter_drops_them() {
        // A third host on the server LAN in promiscuous mode receives
        // the frames but its NoopFilter output is dropped for being
        // non-local — baseline for the secondary bridge.
        let mut sim = Simulator::new(11);
        let hub = sim.add_device(Box::new(tcpfo_net::hub::Hub::new("hub", 3, 100_000_000)));
        let a = spawn_host(
            &mut sim,
            Host::new(HostConfig::new(
                "a",
                MacAddr::from_index(1),
                Ipv4Addr::new(10, 0, 0, 1),
            )),
        );
        let b = spawn_host(
            &mut sim,
            Host::new(HostConfig::new(
                "b",
                MacAddr::from_index(2),
                Ipv4Addr::new(10, 0, 0, 2),
            )),
        );
        let snoop = spawn_host(
            &mut sim,
            Host::new(
                HostConfig::new("snoop", MacAddr::from_index(3), Ipv4Addr::new(10, 0, 0, 3))
                    .promiscuous(),
            ),
        );
        sim.connect((hub, 0), (a, 0), LinkParams::attachment());
        sim.connect((hub, 1), (b, 0), LinkParams::attachment());
        sim.connect((hub, 2), (snoop, 0), LinkParams::attachment());
        sim.with::<Host, _>(b, |h, _| {
            h.add_app(Box::new(EchoServer::new(80)));
        });
        sim.with::<Host, _>(a, |h, _| {
            h.add_app(Box::new(EchoClient::new(
                SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 80),
                b"sniff me".to_vec(),
            )));
        });
        sim.run_for(SimDuration::from_millis(200));
        sim.with::<Host, _>(a, |h, _| {
            assert_eq!(h.app_mut::<EchoClient>(0).received, b"sniff me");
        });
        // The snooper's stack opened no sockets and dropped everything.
        sim.with::<Host, _>(snoop, |h, _| {
            assert!(h.stack().socket_ids().is_empty());
            assert_eq!(h.stack().rst_sent, 0, "must not RST foreign traffic");
        });
    }
}
