//! The discrete-event simulator core: clock, event heap, devices, wires.
//!
//! Everything in the reproduction — hosts with full TCP stacks, the
//! failover bridges, hubs, switches, routers — is a [`Device`] attached
//! to a [`Simulator`] by wires. Devices receive frames and timer events
//! through [`Device::handle_frame`] / [`Device::handle_timer`] and act
//! through the [`Ctx`] handed to them (transmit, schedule timers, draw
//! randomness). The simulator is single-threaded and, for a fixed seed
//! and call sequence, fully deterministic: events at equal timestamps
//! fire in insertion order.

use crate::link::LinkParams;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEntry, TraceKind};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tcpfo_telemetry::{Counter, Gauge, Ring, Telemetry};

/// Default bound on retained trace entries (drop-oldest beyond this).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Index of a device within a [`Simulator`].
pub type NodeId = usize;

/// Opaque timer cookie delivered back to [`Device::handle_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// A simulated network element.
///
/// Implementors include the hub, switch and router in this crate and
/// the TCP hosts in `tcpfo-tcp`.
pub trait Device: Any {
    /// Human-readable name used in traces.
    fn label(&self) -> &str;

    /// Called when a frame arrives on `port`.
    fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>);

    /// Called when a timer armed with [`Ctx::schedule`] (or
    /// [`Simulator::schedule_timer`]) fires.
    fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>);

    /// Downcast support for [`Simulator::with`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What fires: it waits in the simulator's slab while the heap orders
/// its [`Scheduled`] key.
#[derive(Debug)]
enum Event {
    Frame {
        /// Destination, half a word each: `leaves` costs no word.
        node: u32,
        port: u32,
        /// Hand-off plus the transmit delay; recallable until then.
        leaves: SimTime,
        frame: Bytes,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
    },
}

/// Low bits of a [`Scheduled`] tag: the event's slab slot.
const SLOT_BITS: u32 = 24;

/// Events one simulator holds pending at most (the slot field's
/// range); the benchmark's busiest workload, `conn_churn`, peaks at 868.
const MAX_PENDING: usize = 1 << SLOT_BITS;

/// Events one simulator schedules at most over its life (the sequence
/// number's range above the slot).
const MAX_EVENTS: u64 = 1 << (64 - SLOT_BITS);

/// The heap's key for a pending event: when it fires, and in `tag` its
/// sequence number (`seq << SLOT_BITS`) over its slab slot. Sequence
/// numbers are unique, so `(at, tag)` orders exactly as `(at, seq)`:
/// equal instants fire in hand-over order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at: SimTime,
    tag: u64,
}

impl Scheduled {
    fn slot(self) -> usize {
        (self.tag & (MAX_PENDING as u64 - 1)) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct WireEnd {
    wire: usize,
    /// 0 if this end is `ends[0]`, 1 otherwise.
    side: usize,
}

struct Wire {
    ends: [(NodeId, usize); 2],
    /// `params[d]` governs transmission *from* `ends[d]` *to*
    /// `ends[1-d]`.
    params: [LinkParams; 2],
    busy_until: [SimTime; 2],
}

/// Mutable simulator internals handed to a device while it runs.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Arms a timer that fires on this device after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, token: TimerToken) {
        let at = self.core.now + delay;
        self.core.push(
            at,
            Event::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// Deterministic randomness source.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Transmits `frame` out of `port`, modelling serialisation,
    /// queueing, propagation and loss of the attached link.
    ///
    /// Unconnected ports silently drop (a trace entry records it).
    pub fn transmit(&mut self, port: usize, frame: Bytes) {
        self.core
            .transmit(self.node, port, frame, SimDuration::ZERO);
    }

    /// Like [`Ctx::transmit`], but the frame only reaches the link
    /// after `delay` (used by the hub to model medium serialisation
    /// before handing the frame to the attachment wires).
    pub fn transmit_delayed(&mut self, port: usize, frame: Bytes, delay: SimDuration) {
        self.core.transmit(self.node, port, frame, delay);
    }

    /// Takes back the frames this device handed to `port` with a delay
    /// that has not run out (they have not left it) and that `discard`
    /// picks, and moves the others up into the time freed: same order,
    /// each keeping its service time (the gap to the frame before it),
    /// none earlier than now; the wire is free when the last has crossed.
    /// Returns the frames taken back and how much earlier the queue ends.
    /// A frame handed over without delay has left: nothing passes it.
    pub fn recall(
        &mut self,
        port: usize,
        discard: impl FnMut(&Bytes) -> bool,
    ) -> (u64, SimDuration) {
        self.core.recall(self.node, port, discard)
    }

    /// Records a custom trace entry for this device.
    pub fn trace_note(&mut self, note: String) {
        let now = self.core.now;
        let node = self.node;
        self.core.trace(now, node, TraceKind::Note(note), None);
    }

    /// Whether tracing is on. Devices should gate `format!` arguments
    /// to [`Ctx::trace_note`] on this so disabled runs pay nothing.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_enabled
    }
}

/// Cached per-`(node, port)` instrument handles, created on a port's
/// first transmit, so the transmit hot path never looks a name up in
/// the registry: the drop counters [`SimCore::dropped`] indexes, and
/// the queue delay.
struct LinkInstruments {
    drops: [Counter; 4],
    queue_delay_ns: Gauge,
}

struct SimCore {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    /// The pending events, by the slot their key names; `None` is free.
    slab: Vec<Option<Event>>,
    /// The free slots of `slab`.
    free: Vec<u32>,
    wires: Vec<Wire>,
    /// Dense per-node port→wire table (`port_table[node][port]`): two
    /// bounds-checked indexes replace a per-transmit hash+probe.
    port_table: Vec<Vec<Option<WireEnd>>>,
    dead: Vec<bool>,
    rng: StdRng,
    trace_enabled: bool,
    trace: Ring<TraceEntry>,
    events_processed: u64,
    telemetry: Option<Telemetry>,
    /// Dense like `port_table` (`link_instruments[node][port]`), grown
    /// on demand: unwired ports count their drops too.
    link_instruments: Vec<Vec<Option<LinkInstruments>>>,
}

impl SimCore {
    fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        assert!(seq < MAX_EVENTS, "over 2^40 events in one simulator");
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                u64::from(slot)
            }
            None => {
                assert!(self.slab.len() < MAX_PENDING, "over 2^24 pending events");
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u64
            }
        };
        let tag = seq << SLOT_BITS | slot;
        self.heap.push(Reverse(Scheduled { at, tag }));
    }

    /// Takes the event `key` names out of the slab, freeing its slot.
    fn take(&mut self, key: Scheduled) -> Event {
        let slot = key.slot();
        self.free.push(slot as u32);
        self.slab[slot].take().expect("a key names a pending event")
    }

    fn trace(&mut self, at: SimTime, node: NodeId, kind: TraceKind, frame: Option<&Bytes>) {
        if self.trace_enabled {
            self.trace.push(TraceEntry {
                at,
                node,
                kind,
                frame: frame.cloned(),
            });
        }
    }

    fn link_instruments(&mut self, node: NodeId, port: usize) -> Option<&LinkInstruments> {
        let telemetry = self.telemetry.as_ref()?;
        if self.link_instruments.len() <= node {
            self.link_instruments.resize_with(node + 1, Vec::new);
        }
        let row = &mut self.link_instruments[node];
        if row.len() <= port {
            row.resize_with(port + 1, || None);
        }
        Some(row[port].get_or_insert_with(|| {
            let scope = telemetry.registry.scope(&format!("net.n{node}.p{port}"));
            LinkInstruments {
                drops: [
                    "drops.loss",
                    "drops.queue_full",
                    "drops.no_wire",
                    "drops.withdrawn",
                ]
                .map(|name| scope.counter(name)),
                queue_delay_ns: scope.gauge("queue_delay_ns"),
            }
        }))
    }

    /// A frame `node` put on a port that never crossed the wire: the
    /// port's drop counter `kind` names, then the trace entry.
    fn dropped(&mut self, at: SimTime, node: NodeId, kind: TraceKind, frame: &Bytes) {
        let (port, counter) = match kind {
            TraceKind::DropLoss { port } => (port, 0),
            TraceKind::DropQueueFull { port } => (port, 1),
            TraceKind::DropNoWire { port } => (port, 2),
            TraceKind::Withdrawn { port } => (port, 3),
            _ => unreachable!("{kind:?} drops no frame"),
        };
        if let Some(i) = self.link_instruments(node, port) {
            i.drops[counter].inc_at(at.as_nanos());
        }
        self.trace(at, node, kind, Some(frame));
    }

    fn wire_end(&self, node: NodeId, port: usize) -> Option<WireEnd> {
        *self.port_table.get(node)?.get(port)?
    }

    fn transmit(&mut self, node: NodeId, port: usize, frame: Bytes, delay: SimDuration) {
        let Some(WireEnd { wire, side }) = self.wire_end(node, port) else {
            self.dropped(self.now, node, TraceKind::DropNoWire { port }, &frame);
            return;
        };
        let now = self.now + delay;
        let w = &mut self.wires[wire];
        let params = w.params[side];
        let start = w.busy_until[side].max(now);
        let queue_delay = start.duration_since(now);
        if queue_delay > params.max_queue {
            self.dropped(now, node, TraceKind::DropQueueFull { port }, &frame);
            return;
        }
        if let Some(i) = self.link_instruments(node, port) {
            i.queue_delay_ns
                .set_at(queue_delay.as_nanos(), now.as_nanos());
        }
        let w = &mut self.wires[wire];
        let ser = params.serialization(frame.len());
        w.busy_until[side] = start + ser;
        let lost = params.loss > 0.0 && self.rng.gen::<f64>() < params.loss;
        let (peer_node, peer_port) = w.ends[1 - side];
        if lost {
            self.dropped(now, node, TraceKind::DropLoss { port }, &frame);
            return;
        }
        let mut arrival = start + ser + params.propagation;
        if params.jitter > SimDuration::ZERO {
            let extra = self.rng.gen_range(0..params.jitter.as_nanos().max(1));
            arrival += SimDuration::from_nanos(extra);
        }
        self.trace(now, node, TraceKind::Tx { port }, Some(&frame));
        self.push(
            arrival,
            Event::Frame {
                node: peer_node as u32,
                port: peer_port as u32,
                leaves: now,
                frame,
            },
        );
    }

    /// [`Ctx::recall`]. A wire's far end hears from this port only, so an
    /// event needs no field for its source; no fault-free run gets here.
    fn recall(
        &mut self,
        node: NodeId,
        port: usize,
        mut discard: impl FnMut(&Bytes) -> bool,
    ) -> (u64, SimDuration) {
        let Some(WireEnd { wire, side }) = self.wire_end(node, port) else {
            return (0, SimDuration::ZERO);
        };
        let now = self.now;
        let to = self.wires[wire].ends[1 - side];
        let params = self.wires[wire].params[side];
        // Arrival of the last frame that has left and is still crossing.
        let mut wire_free = SimTime::ZERO;
        let slab = &self.slab;
        let (mut queued, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .partition(|Reverse(s)| match slab[s.slot()] {
                Some(Event::Frame {
                    node, port, leaves, ..
                }) if (node as usize, port as usize) == to => {
                    if leaves <= now {
                        wire_free = wire_free.max(s.at);
                    }
                    leaves > now
                }
                _ => false,
            });
        self.heap = rest.into();
        // Hand-off order (the tag's sequence number) is the order on the
        // wire.
        queued.sort_unstable_by_key(|Reverse(s)| s.tag);
        let (mut free_at, mut was_free_at, mut discarded) = (now, now, 0);
        for Reverse(mut s) in queued {
            let slot = s.slot();
            let Some(Event::Frame {
                node: to_node,
                port: to_port,
                leaves,
                frame,
            }) = self.slab[slot].take()
            else {
                unreachable!("only frames are queued");
            };
            let service = leaves.max(was_free_at) - was_free_at;
            was_free_at += service;
            if discard(&frame) {
                discarded += 1;
                self.free.push(slot as u32);
                self.dropped(now, node, TraceKind::Withdrawn { port }, &frame);
                continue;
            }
            free_at += service;
            // Up by what was freed ahead of it, and not past the frame
            // ahead of it on the wire.
            let moved = was_free_at - free_at;
            s.at = (s.at - moved).max(wire_free + params.serialization(frame.len()));
            wire_free = s.at;
            self.slab[slot] = Some(Event::Frame {
                node: to_node,
                port: to_port,
                leaves: leaves - moved,
                frame,
            });
            // The same tag: the same place among its instant.
            self.heap.push(Reverse(s));
        }
        self.wires[wire].busy_until[side] = wire_free - params.propagation;
        (discarded, was_free_at - free_at)
    }
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use tcpfo_net::sim::Simulator;
/// use tcpfo_net::hub::Hub;
/// use tcpfo_net::time::SimDuration;
///
/// let mut sim = Simulator::new(42);
/// let hub = sim.add_device(Box::new(Hub::new("hub0", 3, 100_000_000)));
/// assert_eq!(hub, 0);
/// sim.run_for(SimDuration::from_millis(1));
/// assert_eq!(sim.now().as_millis(), 1);
/// ```
pub struct Simulator {
    core: SimCore,
    nodes: Vec<Option<Box<dyn Device>>>,
}

impl Simulator {
    /// Creates a simulator seeded for deterministic randomness.
    pub fn new(seed: u64) -> Self {
        Simulator {
            core: SimCore {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                wires: Vec::new(),
                port_table: Vec::new(),
                dead: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                trace_enabled: false,
                trace: Ring::new(DEFAULT_TRACE_CAPACITY),
                events_processed: 0,
                telemetry: None,
                link_instruments: Vec::new(),
            },
            nodes: Vec::new(),
        }
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> NodeId {
        self.nodes.push(Some(device));
        self.core.dead.push(false);
        self.core.port_table.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Connects `a` and `b` with a symmetric wire.
    ///
    /// # Panics
    ///
    /// Panics if either port is already wired or a node id is out of
    /// range.
    pub fn connect(&mut self, a: (NodeId, usize), b: (NodeId, usize), params: LinkParams) {
        self.connect_asym(a, b, params, params);
    }

    /// Connects `a` and `b` with per-direction parameters
    /// (`a_to_b` governs frames transmitted by `a`).
    ///
    /// # Panics
    ///
    /// Panics if either port is already wired or a node id is out of
    /// range.
    pub fn connect_asym(
        &mut self,
        a: (NodeId, usize),
        b: (NodeId, usize),
        a_to_b: LinkParams,
        b_to_a: LinkParams,
    ) {
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "node id out of range"
        );
        let widest = a.1 | b.1 | self.nodes.len();
        assert!(u32::try_from(widest).is_ok(), "node or port over 32 bits");
        assert!(
            self.core.wire_end(a.0, a.1).is_none(),
            "port {a:?} already wired"
        );
        assert!(
            self.core.wire_end(b.0, b.1).is_none(),
            "port {b:?} already wired"
        );
        let wire = self.core.wires.len();
        self.core.wires.push(Wire {
            ends: [a, b],
            params: [a_to_b, b_to_a],
            busy_until: [SimTime::ZERO; 2],
        });
        self.set_wire_end(a, WireEnd { wire, side: 0 });
        self.set_wire_end(b, WireEnd { wire, side: 1 });
    }

    /// Rewrites the link parameters of every wire attached to `node`,
    /// in both directions, by applying `f` to each direction's current
    /// parameters. Frames already in flight keep the parameters they
    /// were transmitted under; subsequent transmissions see the new
    /// ones. This stages in-run degradation (rising loss, latency,
    /// jitter before a crash) without rebuilding the topology.
    pub fn reshape_links(&mut self, node: NodeId, f: impl Fn(LinkParams) -> LinkParams) {
        for w in &mut self.core.wires {
            if w.ends[0].0 == node || w.ends[1].0 == node {
                w.params[0] = f(w.params[0]);
                w.params[1] = f(w.params[1]);
            }
        }
    }

    fn set_wire_end(&mut self, (node, port): (NodeId, usize), end: WireEnd) {
        let row = &mut self.core.port_table[node];
        if row.len() <= port {
            row.resize(port + 1, None);
        }
        row[port] = Some(end);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Marks a node fail-stop dead: pending and future events for it
    /// are discarded, it never transmits again — what it had handed
    /// over and has not left it yet goes with it.
    pub fn kill(&mut self, node: NodeId) {
        self.core.dead[node] = true;
        for port in 0..self.core.port_table[node].len() {
            self.core.recall(node, port, |_| true);
        }
    }

    /// Replaces a (possibly dead) node's device with a fresh one,
    /// keeping the wiring — models a machine rebooting with empty
    /// state. Stale events queued for the node will be delivered to
    /// the replacement, exactly like frames arriving at a freshly
    /// booted NIC.
    pub fn replace_device(&mut self, node: NodeId, device: Box<dyn Device>) {
        self.nodes[node] = Some(device);
        self.core.dead[node] = false;
    }

    /// Returns `true` if the node has been [`Simulator::kill`]ed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.core.dead[node]
    }

    /// Arms a timer on `node` after `delay` (for bootstrapping devices
    /// from outside).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: TimerToken) {
        let at = self.core.now + delay;
        self.core.push(at, Event::Timer { node, token });
    }

    /// Runs `f` against the concrete device `T` at `node` with a
    /// dispatch context, e.g. to drive an application from a test.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not hold a `T`.
    pub fn with<T: Device, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut device = self.nodes[node].take().expect("device re-entrancy");
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        let result = f(
            device
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("device type mismatch"),
            &mut ctx,
        );
        self.nodes[node] = Some(device);
        result
    }

    /// Dispatches the next event. Returns `false` when the heap is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(scheduled)) = self.core.heap.pop() else {
            return false;
        };
        let event = self.core.take(scheduled);
        debug_assert!(scheduled.at >= self.core.now, "time went backwards");
        self.core.now = scheduled.at;
        self.core.events_processed += 1;
        let node = match event {
            Event::Frame { node, .. } => node as NodeId,
            Event::Timer { node, .. } => node,
        };
        if self.core.dead[node] {
            return true;
        }
        let mut device = self.nodes[node].take().expect("device re-entrancy");
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        match event {
            Event::Frame { port, frame, .. } => {
                let port = port as usize;
                ctx.core
                    .trace(scheduled.at, node, TraceKind::Rx { port }, Some(&frame));
                device.handle_frame(port, frame, &mut ctx);
            }
            Event::Timer { token, .. } => device.handle_timer(token, &mut ctx),
        }
        self.nodes[node] = Some(device);
        true
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or the heap drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(next)) = self.core.heap.peek() {
            if next.at > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Runs for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.core.now + duration;
        self.run_until(deadline);
    }

    /// Runs until no events remain or `max_events` have been
    /// dispatched. Returns `true` if the simulation drained.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.core.heap.is_empty()
    }

    /// Enables or disables packet tracing.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.core.trace_enabled = enabled;
    }

    /// Bounds the trace ring buffer to `capacity` entries. When full,
    /// the *oldest* entries are evicted (and counted by
    /// [`Simulator::trace_dropped`]), so the retained tail always
    /// covers the most recent activity. Defaults to
    /// [`DEFAULT_TRACE_CAPACITY`].
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.core.trace.set_capacity(capacity);
    }

    /// Number of trace entries evicted because the ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.core.trace.dropped()
    }

    /// Takes the accumulated trace, leaving it empty.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.core.trace.take()
    }

    /// Copies the most recent `n` trace entries, oldest first, without
    /// draining the buffer.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEntry> {
        self.core.trace.tail(n).cloned().collect()
    }

    /// Installs a telemetry hub. The simulator then maintains
    /// per-`(node, port)` drop counters (`net.n<N>.p<P>.drops.*`) and
    /// queue-delay gauges with high-water marks
    /// (`net.n<N>.p<P>.queue_delay_ns`).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.core.telemetry = Some(telemetry);
        self.core.link_instruments.clear();
    }

    /// The installed telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.core.telemetry.as_ref()
    }

    /// Label of a node (for reports).
    pub fn label(&self, node: NodeId) -> String {
        self.nodes[node]
            .as_ref()
            .map(|d| d.label().to_string())
            .unwrap_or_else(|| format!("node{node}"))
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("nodes", &self.nodes.len())
            .field("wires", &self.core.wires.len())
            .field("pending_events", &self.core.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every frame back out the port it arrived on after a fixed
    /// delay, counting what it saw.
    struct Echo {
        label: String,
        seen: Vec<Bytes>,
        fired: Vec<TimerToken>,
    }

    impl Echo {
        fn new(label: &str) -> Self {
            Echo {
                label: label.to_string(),
                seen: Vec::new(),
                fired: Vec::new(),
            }
        }
    }

    impl Device for Echo {
        fn label(&self) -> &str {
            &self.label
        }
        fn handle_frame(&mut self, port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
            self.seen.push(frame.clone());
            ctx.transmit(port, frame);
        }
        fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
            self.fired.push(token);
            if token == TimerToken(7) {
                ctx.transmit(0, Bytes::from_static(b"ping"));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_nodes(params: LinkParams) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        let b = sim.add_device(Box::new(Echo::new("b")));
        sim.connect((a, 0), (b, 0), params);
        (sim, a, b)
    }

    #[test]
    fn frame_ping_pong_with_latency() {
        let params = LinkParams {
            bandwidth_bps: None,
            propagation: SimDuration::from_micros(10),
            loss: 0.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(params);
        sim.schedule_timer(a, SimDuration::ZERO, TimerToken(7));
        // a sends at t=0; b receives at 10µs and echoes; a receives at 20µs.
        sim.run_until(SimTime::from_nanos(15_000));
        sim.with::<Echo, _>(b, |e, _| assert_eq!(e.seen.len(), 1));
        sim.with::<Echo, _>(a, |e, _| assert_eq!(e.seen.len(), 0));
        // Cut the ping-pong off after a few more exchanges.
        sim.run_until(SimTime::from_nanos(45_000));
        sim.with::<Echo, _>(a, |e, _| assert_eq!(e.seen.len(), 2)); // 20µs, 40µs
    }

    #[test]
    fn serialization_delays_back_to_back_frames() {
        let params = LinkParams {
            bandwidth_bps: Some(8_000_000), // 1 byte/µs
            propagation: SimDuration::ZERO,
            loss: 0.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        let b = sim.add_device(Box::new(Echo::new("b")));
        sim.connect((a, 0), (b, 0), params);
        // Two 100-byte frames transmitted at t=0 must arrive at 100µs
        // and 200µs.
        sim.with::<Echo, _>(a, |_, ctx| {
            ctx.transmit(0, Bytes::from(vec![0u8; 100]));
            ctx.transmit(0, Bytes::from(vec![1u8; 100]));
        });
        sim.run_until(SimTime::from_nanos(100_000));
        sim.with::<Echo, _>(b, |e, _| assert_eq!(e.seen.len(), 1));
        sim.run_until(SimTime::from_nanos(200_000));
        sim.with::<Echo, _>(b, |e, _| assert_eq!(e.seen.len(), 2));
    }

    #[test]
    fn loss_drops_all_when_probability_one() {
        let params = LinkParams {
            bandwidth_bps: None,
            propagation: SimDuration::ZERO,
            loss: 1.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(params);
        sim.with::<Echo, _>(a, |_, ctx| ctx.transmit(0, Bytes::from_static(b"x")));
        sim.run_until_idle(100);
        sim.with::<Echo, _>(b, |e, _| assert!(e.seen.is_empty()));
    }

    /// Counts frames without echoing them back.
    struct Quiet {
        seen: usize,
    }

    impl Device for Quiet {
        fn label(&self) -> &str {
            "quiet"
        }
        fn handle_frame(&mut self, _port: usize, _frame: Bytes, _ctx: &mut Ctx<'_>) {
            self.seen += 1;
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let params = LinkParams {
            bandwidth_bps: Some(8_000), // 1 ms per byte
            propagation: SimDuration::ZERO,
            loss: 0.0,
            max_queue: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
        };
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        let b = sim.add_device(Box::new(Quiet { seen: 0 }));
        sim.connect((a, 0), (b, 0), params);
        sim.with::<Echo, _>(a, |_, ctx| {
            // First frame occupies the link for 2 ms; second would queue
            // 2 ms > max 1 ms and is dropped.
            ctx.transmit(0, Bytes::from(vec![0u8; 2]));
            ctx.transmit(0, Bytes::from(vec![1u8; 2]));
        });
        sim.run_until_idle(100);
        sim.with::<Quiet, _>(b, |q, _| assert_eq!(q.seen, 1));
    }

    #[test]
    fn killed_node_receives_nothing() {
        let params = LinkParams {
            bandwidth_bps: None,
            propagation: SimDuration::from_micros(1),
            loss: 0.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(params);
        sim.with::<Echo, _>(a, |_, ctx| ctx.transmit(0, Bytes::from_static(b"x")));
        sim.kill(b);
        sim.run_until_idle(100);
        sim.with::<Echo, _>(b, |e, _| assert!(e.seen.is_empty()));
        assert!(sim.is_dead(b));
        assert!(!sim.is_dead(a));
    }

    /// Records when each frame arrived and its first byte.
    #[derive(Default)]
    struct Log(Vec<(u64, u8)>);

    impl Device for Log {
        fn label(&self) -> &str {
            "log"
        }
        fn handle_frame(&mut self, _port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
            self.0.push((ctx.now().as_micros(), frame[0]));
        }
        fn handle_timer(&mut self, _: TimerToken, _: &mut Ctx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// `a` (an `Echo` nobody answers) wired to a `Log`; the wire takes
    /// `prop_us` to cross and serialises at one byte per microsecond if
    /// asked to.
    fn sender_and_log(prop_us: u64, serialising: bool) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        let b = sim.add_device(Box::new(Log::default()));
        let params = LinkParams {
            bandwidth_bps: serialising.then_some(8_000_000),
            propagation: SimDuration::from_micros(prop_us),
            loss: 0.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        sim.connect((a, 0), (b, 0), params);
        (sim, a, b)
    }

    /// Hands over one frame per `(tag, len, delay_us)`.
    fn hand_over(ctx: &mut Ctx<'_>, frames: &[(u8, usize, u64)]) {
        for &(tag, len, delay_us) in frames {
            let delay = SimDuration::from_micros(delay_us);
            ctx.transmit_delayed(0, Bytes::from(vec![tag; len]), delay);
        }
    }

    /// The heap moves a two-word key, the event waits in the slab: a
    /// `Scheduled` is 16 bytes, where the whole seven-word event was
    /// (a word more on that read +3 % on `bulk_stream`'s and
    /// `conn_churn`'s host time, nine pairs of ten).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_in_flight_is_two_words() {
        assert_eq!(std::mem::size_of::<Scheduled>(), 16);
    }

    /// The 2^40th event is the last one a simulator takes: the tag has
    /// no room for a larger sequence number above the slot.
    #[test]
    #[should_panic(expected = "over 2^40 events in one simulator")]
    fn the_sequence_number_is_bounded() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        sim.core.seq = MAX_EVENTS - 1;
        sim.schedule_timer(a, SimDuration::ZERO, TimerToken(1));
        assert!(sim.step());
        sim.with::<Echo, _>(a, |e, _| assert_eq!(e.fired, [TimerToken(1)]));
        sim.schedule_timer(a, SimDuration::ZERO, TimerToken(2));
    }

    #[test]
    fn killed_node_transmits_only_what_had_left_it() {
        let run = || {
            let (mut sim, a, b) = sender_and_log(10, false);
            // Leave at 0, 5 and 50 µs; the kill falls at 7 µs.
            sim.with::<Echo, _>(a, |_, ctx| {
                hand_over(ctx, &[(0, 1, 0), (1, 1, 5), (2, 1, 50)])
            });
            sim.run_until(SimTime::from_nanos(7_000));
            sim.kill(a);
            assert!(sim.run_until_idle(100));
            let seen = sim.with::<Log, _>(b, |log, _| log.0.clone());
            (seen, sim.events_processed())
        };
        let (seen, events) = run();
        assert_eq!(seen, [(10, 0), (15, 1)], "on the wire at the kill, or not");
        assert_eq!(run().1, events);
    }

    #[test]
    fn recall_moves_the_survivors_up_and_frees_the_wire() {
        let (mut sim, a, b) = sender_and_log(1, false);
        let telemetry = Telemetry::new();
        sim.set_telemetry(telemetry.clone());
        sim.set_trace_enabled(true);
        // One frame every 10 µs; at 5 µs the odd ones are taken back.
        let queue: Vec<_> = (0..5).map(|i| (i, 1, 10 * (u64::from(i) + 1))).collect();
        sim.with::<Echo, _>(a, |_, ctx| hand_over(ctx, &queue));
        sim.run_until(SimTime::from_nanos(5_000));
        sim.with::<Echo, _>(a, |_, ctx| {
            let (frames, freed) = ctx.recall(0, |f| f[0] % 2 == 1);
            assert_eq!((frames, freed), (2, SimDuration::from_micros(20)));
            // Handed over now, it waits for the wire behind the last
            // survivor and no longer.
            hand_over(ctx, &[(9, 1, 0)]);
        });
        sim.run_until(SimTime::from_nanos(35_000));
        // Frame 0 had 5 µs of its service left; 2 and 4 keep their 10.
        let seen = sim.with::<Log, _>(b, |log, _| std::mem::take(&mut log.0));
        assert_eq!(seen, [(11, 0), (21, 2), (31, 4), (31, 9)]);

        // Everything taken back: the next frame leaves now, not behind
        // the hole.
        sim.with::<Echo, _>(a, |_, ctx| {
            hand_over(ctx, &[(5, 1, 10), (6, 1, 20), (7, 1, 30)]);
            let (frames, freed) = ctx.recall(0, |_| true);
            assert_eq!((frames, freed), (3, SimDuration::from_micros(30)));
            hand_over(ctx, &[(9, 1, 0)]);
        });
        assert!(sim.run_until_idle(100));
        sim.with::<Log, _>(b, |log, _| assert_eq!(log.0, [(36, 9)]));

        let snap = telemetry.registry.snapshot(sim.now().as_nanos());
        assert_eq!(snap.counter("net.n0.p0.drops.withdrawn"), Some(5));
        let withdrawn = |e: &&TraceEntry| e.kind == TraceKind::Withdrawn { port: 0 };
        assert_eq!(sim.take_trace().iter().filter(withdrawn).count(), 5);
    }

    #[test]
    fn recalled_survivor_does_not_pass_the_frame_ahead_of_it() {
        // 100 bytes hold the wire from 10 to 110 µs; three 10-byte frames
        // queue behind them, 50 µs of service each, and a fourth after
        // those. With the three gone the fourth is ready at 60 µs and
        // still crosses after the 100 bytes.
        let (mut sim, a, b) = sender_and_log(0, true);
        sim.with::<Echo, _>(a, |_, ctx| {
            let small = |tag, delay_us| (tag, 10, delay_us);
            let queue = [small(1, 60), small(2, 110), small(3, 160), small(4, 210)];
            hand_over(ctx, &[(0, 100, 10)]);
            hand_over(ctx, &queue);
            let (frames, freed) = ctx.recall(0, |f| (1..=3).contains(&f[0]));
            assert_eq!((frames, freed), (3, SimDuration::from_micros(150)));
            hand_over(ctx, &[(9, 10, 0)]);
        });
        assert!(sim.run_until_idle(100));
        sim.with::<Log, _>(b, |log, _| {
            assert_eq!(log.0, [(110, 0), (120, 4), (130, 9)])
        });
    }

    #[test]
    fn timers_fire_in_order_and_ties_by_insertion() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        sim.schedule_timer(a, SimDuration::from_micros(5), TimerToken(2));
        sim.schedule_timer(a, SimDuration::from_micros(1), TimerToken(1));
        sim.schedule_timer(a, SimDuration::from_micros(5), TimerToken(3));
        sim.run_until_idle(10);
        sim.with::<Echo, _>(a, |e, _| {
            assert_eq!(e.fired, vec![TimerToken(1), TimerToken(2), TimerToken(3)]);
        });
    }

    /// Dispatches in order: `(µs, node, 'f' or 't', frame tag or token)`.
    type DispatchLog = std::rc::Rc<std::cell::RefCell<Vec<(u64, char, char, u64)>>>;

    /// Appends every dispatch to a log all recorders share. A frame
    /// tagged 2 arms a timer for the same instant.
    struct Rec {
        name: char,
        log: DispatchLog,
    }

    impl Device for Rec {
        fn label(&self) -> &str {
            "rec"
        }
        fn handle_frame(&mut self, _port: usize, frame: Bytes, ctx: &mut Ctx<'_>) {
            let now = ctx.now().as_micros();
            (self.log.borrow_mut()).push((now, self.name, 'f', frame[0].into()));
            if frame[0] == 2 {
                ctx.schedule(SimDuration::ZERO, TimerToken(20));
            }
        }
        fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
            let now = ctx.now().as_micros();
            (self.log.borrow_mut()).push((now, self.name, 't', token.0));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Frames and timers falling on the same nanosecond fire in the
    /// order they were handed to the simulator, wherever they come
    /// from; a recalled survivor keeps its place among them, and a node
    /// killed in the middle of an instant hears nothing more of it.
    #[test]
    fn same_instant_events_fire_in_hand_over_order() {
        let log = std::rc::Rc::default();
        let mut sim = Simulator::new(1);
        let rec = |name| {
            Box::new(Rec {
                name,
                log: std::rc::Rc::clone(&log),
            })
        };
        let (a, b, c) = (
            sim.add_device(rec('a')),
            sim.add_device(rec('b')),
            sim.add_device(rec('c')),
        );
        let params = LinkParams {
            bandwidth_bps: None,
            propagation: SimDuration::from_micros(10),
            loss: 0.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        sim.connect((a, 0), (b, 0), params);
        sim.connect((c, 0), (b, 1), params);
        let us = SimDuration::from_micros;
        sim.schedule_timer(b, us(10), TimerToken(1));
        sim.schedule_timer(b, us(17), TimerToken(4));
        sim.with::<Rec, _>(a, |_, ctx| hand_over(ctx, &[(1, 1, 0)]));
        sim.schedule_timer(a, us(10), TimerToken(2));
        sim.with::<Rec, _>(c, |_, ctx| hand_over(ctx, &[(3, 1, 0), (7, 1, 20)]));
        sim.schedule_timer(c, us(10), TimerToken(3));
        sim.with::<Rec, _>(a, |_, ctx| {
            hand_over(ctx, &[(2, 1, 0), (5, 1, 6), (6, 1, 8)]);
        });
        sim.schedule_timer(b, us(17), TimerToken(5));
        sim.run_until(SimTime::from_nanos(5_000));
        // Frame 5 goes; frame 6 moves up a microsecond, to 17 µs, and
        // keeps its place between the timers handed over around it.
        sim.with::<Rec, _>(a, |_, ctx| {
            assert_eq!(ctx.recall(0, |f| f[0] == 5), (1, us(1)));
        });
        // Into the 10 µs instant, then `c` dies with its timer and its
        // frame 7 still queued.
        for _ in 0..3 {
            assert!(sim.step());
        }
        assert_eq!(sim.now(), SimTime::from_nanos(10_000));
        sim.kill(c);
        assert!(sim.run_until_idle(100));
        let log = log.borrow().clone();
        assert_eq!(
            log,
            [
                (10, 'b', 't', 1),
                (10, 'b', 'f', 1),
                (10, 'a', 't', 2),
                (10, 'b', 'f', 3),
                (10, 'b', 'f', 2),
                (10, 'b', 't', 20),
                (17, 'b', 't', 4),
                (17, 'b', 'f', 6),
                (17, 'b', 't', 5),
            ]
        );
        assert_eq!(sim.events_processed(), 10, "c's timer is popped, not run");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_nanos(999));
        assert_eq!(sim.now(), SimTime::from_nanos(999));
        sim.run_for(SimDuration::from_nanos(1));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let params = LinkParams {
                bandwidth_bps: Some(1_000_000),
                propagation: SimDuration::from_micros(3),
                loss: 0.3,
                max_queue: SimDuration::from_secs(1),
                jitter: SimDuration::ZERO,
            };
            let (mut sim, a, b) = two_nodes(params);
            for i in 0..20 {
                sim.schedule_timer(a, SimDuration::from_micros(i * 7), TimerToken(7));
            }
            sim.run_until(SimTime::from_nanos(50_000_000));
            sim.with::<Echo, _>(b, |e, _| e.seen.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_records_tx_and_rx() {
        let params = LinkParams::attachment();
        let (mut sim, a, _b) = two_nodes(params);
        sim.set_trace_enabled(true);
        sim.with::<Echo, _>(a, |_, ctx| ctx.transmit(0, Bytes::from_static(b"t")));
        sim.run_until_idle(10);
        let trace = sim.take_trace();
        assert!(trace.iter().any(|t| matches!(t.kind, TraceKind::Tx { .. })));
        assert!(trace.iter().any(|t| matches!(t.kind, TraceKind::Rx { .. })));
    }

    #[test]
    fn unwired_port_drops_silently() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        sim.with::<Echo, _>(a, |_, ctx| ctx.transmit(9, Bytes::from_static(b"x")));
        assert!(sim.run_until_idle(10));
    }

    #[test]
    fn trace_ring_drops_oldest_and_counts() {
        let params = LinkParams::attachment();
        let (mut sim, a, _b) = two_nodes(params);
        sim.set_trace_enabled(true);
        sim.set_trace_capacity(4);
        for i in 0..6u8 {
            sim.with::<Echo, _>(a, |_, ctx| ctx.trace_note(format!("n{i}")));
        }
        assert_eq!(sim.trace_dropped(), 2);
        let tail = sim.trace_tail(2);
        assert_eq!(tail.len(), 2);
        assert!(matches!(&tail[1].kind, TraceKind::Note(n) if n == "n5"));
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 4, "ring retains only the newest entries");
        assert!(matches!(&trace[0].kind, TraceKind::Note(n) if n == "n2"));
        // Shrinking below the current length evicts immediately.
        sim.set_trace_capacity(1);
        for i in 0..3u8 {
            sim.with::<Echo, _>(a, |_, ctx| ctx.trace_note(format!("m{i}")));
        }
        assert_eq!(sim.take_trace().len(), 1);
    }

    #[test]
    fn telemetry_counts_drops_per_link() {
        use tcpfo_telemetry::Telemetry;

        // Loss drops.
        let params = LinkParams {
            bandwidth_bps: None,
            propagation: SimDuration::ZERO,
            loss: 1.0,
            max_queue: SimDuration::from_secs(1),
            jitter: SimDuration::ZERO,
        };
        let (mut sim, a, _b) = two_nodes(params);
        let telemetry = Telemetry::new();
        sim.set_telemetry(telemetry.clone());
        sim.with::<Echo, _>(a, |_, ctx| {
            ctx.transmit(0, Bytes::from_static(b"x"));
            ctx.transmit(9, Bytes::from_static(b"y")); // unwired
        });
        sim.run_until_idle(10);
        let snap = telemetry.registry.snapshot(sim.now().as_nanos());
        assert_eq!(snap.counter("net.n0.p0.drops.loss"), Some(1));
        assert_eq!(snap.counter("net.n0.p9.drops.no_wire"), Some(1));

        // Queue-full drops and queue-delay high-water.
        let slow = LinkParams {
            bandwidth_bps: Some(8_000), // 1 ms per byte
            propagation: SimDuration::ZERO,
            loss: 0.0,
            max_queue: SimDuration::from_millis(2),
            jitter: SimDuration::ZERO,
        };
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new("a")));
        let b = sim.add_device(Box::new(Quiet { seen: 0 }));
        sim.connect((a, 0), (b, 0), slow);
        let telemetry = Telemetry::new();
        sim.set_telemetry(telemetry.clone());
        sim.with::<Echo, _>(a, |_, ctx| {
            // 2 ms serialisation each: 2nd queues 2 ms, 3rd would queue
            // 4 ms > max 2 ms and is dropped.
            ctx.transmit(0, Bytes::from(vec![0u8; 2]));
            ctx.transmit(0, Bytes::from(vec![1u8; 2]));
            ctx.transmit(0, Bytes::from(vec![2u8; 2]));
        });
        sim.run_until_idle(100);
        let snap = telemetry.registry.snapshot(sim.now().as_nanos());
        assert_eq!(snap.counter("net.n0.p0.drops.queue_full"), Some(1));
        let g = snap.gauge("net.n0.p0.queue_delay_ns").unwrap();
        assert_eq!(g.high_water, 2_000_000, "second frame queued 2 ms");
    }
}
