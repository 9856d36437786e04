//! The per-segment datapath: a segment's flow is read off its bytes
//! ([`Route`]), resolved once in the flow table, and run through an
//! [`Engine`] bound to the table — our TCP layer's output, the stream
//! diverted from below, or the client's segments and their
//! acknowledgment translation.

use super::merge::{Conn, Emitter, BELOW, OURS};
use super::residue::{PrimaryFlow, PEER};
use super::{PrimaryBridge, PrimaryInstruments, PrimaryMode};
use crate::designation::{ConnKey, FailoverConfig};
use crate::flow::{FlowState, FlowTable, SlotId};
use crate::observers::Lag;
use bytes::Bytes;
use tcpfo_tcp::filter::{AddressedSegment, BatchDir, FilterOutput, TraceId};
use tcpfo_tcp::seq::seq_gt;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::audit::SegmentRole;
use tcpfo_telemetry::{InvariantAuditor, Stage};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{peek_orig_dest, peek_ports, SegmentPatcher, TcpFlags, TcpSegment};

/// The flow a segment belongs to, read off its raw bytes by
/// [`PrimaryBridge::route`] before anything is decoded. `None`: too
/// short to carry a TCP header (such a segment passes through).
#[derive(Debug, Clone, Copy)]
pub(super) enum Route {
    /// Our TCP layer's output, keyed by its destination.
    Outbound(Option<ConnKey>),
    /// The downstream replica's diverted output, keyed by the original
    /// destination its option carries.
    Diverted(ConnKey),
    /// Anything else off the wire, keyed by its source.
    Peer(Option<ConnKey>),
}

impl PrimaryBridge {
    /// Reads a segment's flow off its raw bytes — once. Diverted
    /// secondary output is keyed by the original destination carried in
    /// its option.
    pub(super) fn route(&self, dir: BatchDir, seg: &AddressedSegment) -> Route {
        match dir {
            BatchDir::Outbound => Route::Outbound(ConnKey::of_egress(seg)),
            BatchDir::Inbound => {
                let orig = if Some(seg.src) == self.a_s && seg.dst == self.own {
                    peek_orig_dest(&seg.bytes).zip(peek_ports(&seg.bytes))
                } else {
                    None
                };
                match orig {
                    Some(((ip, port), (src_port, _))) => {
                        Route::Diverted(ConnKey::new(src_port, SocketAddr::new(ip, port)))
                    }
                    None => Route::Peer(ConnKey::of_ingress(seg)),
                }
            }
        }
    }

    /// Builds the engine, borrowing this bridge's state. The engine's
    /// table reference is a *field-path* borrow of `flows`, so `stats` /
    /// `emit_buf` stay independently borrowable inside it.
    pub(super) fn engine(&mut self, trace: TraceId, now_nanos: u64) -> Engine<'_> {
        let PrimaryBridge {
            a_p,
            a_s,
            upstream,
            mode,
            unsafe_ack_without_min,
            config,
            flows,
            stats,
            emit_buf,
            telemetry,
            observers,
            ..
        } = self;
        let (clock, lag, audit) = observers.datapath();
        Engine {
            a_s: *a_s,
            gate: upstream.is_some(),
            mode: *mode,
            unsafe_ack: *unsafe_ack_without_min,
            now: now_nanos,
            config: &*config,
            flows,
            emit: Emitter {
                a_p: *a_p,
                trace,
                stats,
                buf: emit_buf,
                clock,
            },
            instruments: telemetry.as_ref(),
            lag,
            audit,
        }
    }
}

/// The per-flow datapath, bound to the bridge's flow table.
///
/// Scalars are copied out of the bridge and the mutable pieces are held
/// as *separate* references, so the borrow checker can see that a flow
/// borrowed out of `flows` never aliases the [`Emitter`]: a connection
/// is mutated where it sits in the table.
///
/// A segment's flow is resolved **once**, by [`Engine::find`] on entry;
/// every later step takes the [`SlotId`], never the key.
pub(super) struct Engine<'a> {
    pub(super) a_s: Option<Ipv4Addr>,
    /// Below the head: a designated non-SYN client segment of a flow the
    /// table does not hold is dropped (the §8 witness gate).
    gate: bool,
    mode: PrimaryMode,
    pub(super) unsafe_ack: bool,
    /// Sim time of the segment being filtered.
    pub(super) now: u64,
    config: &'a FailoverConfig,
    pub(super) flows: &'a mut FlowTable<PrimaryFlow>,
    pub(super) emit: Emitter<'a>,
    /// The journal's handles; `None` without telemetry.
    pub(super) instruments: Option<&'a PrimaryInstruments>,
    /// The bridge's running queue totals and the health observatory's
    /// replication-lag ledger.
    pub(super) lag: Lag<'a>,
    /// The invariant auditor, handed each segment's role by
    /// [`Engine::shadow`].
    audit: Option<&'a mut InvariantAuditor>,
}

impl Engine<'_> {
    /// Resolves the segment's flow: the one keyed probe it pays.
    fn find(&mut self, key: &ConnKey) -> Option<SlotId> {
        let t0 = self.emit.clock.start();
        let slot = self.flows.find(key);
        self.emit.clock.end(Stage::FlowLookup, t0);
        slot
    }

    /// `slot` if it holds a live (queue-carrying) connection.
    pub(super) fn live(&self, slot: Option<SlotId>) -> Option<SlotId> {
        slot.filter(|&s| self.flows.state(s).is_live())
    }

    /// Opens connection state for `key`: in the slot the tuple's residue
    /// occupies (a fresh SYN supersedes a tombstone — tuple reuse across
    /// a failover epoch), else in a new one, routing any capacity
    /// eviction to [`Engine::on_evicted`].
    fn open(&mut self, key: ConnKey, slot: Option<SlotId>, out: &mut FilterOutput) -> SlotId {
        let conn = Box::new(Conn::new(self.emit.a_p, key.peer, key.server_port));
        let flow = PrimaryFlow::Live(conn);
        if let Some(slot) = slot {
            self.flows
                .replace(slot, FlowState::Establishing, flow, self.now);
            return slot;
        }
        let (slot, evicted) = self
            .flows
            .insert(key, FlowState::Establishing, flow, self.now);
        if let Some(ev) = evicted {
            self.on_evicted(ev, out);
        }
        slot
    }

    /// Brings a connection's lifecycle state up to its merge progress.
    pub(super) fn settle(&mut self, slot: SlotId) {
        if let PrimaryFlow::Live(conn) = self.flows.get(slot) {
            let st = conn.state();
            self.flows.set_state(slot, st, self.now);
        }
    }

    /// Rewrites one 32-bit header field of `raw` in place (RFC 1624
    /// checksum fixup) and returns the patched segment.
    fn patch(
        &mut self,
        raw: AddressedSegment,
        set: impl FnOnce(&mut SegmentPatcher),
    ) -> AddressedSegment {
        let t0 = self.emit.clock.start();
        let mut patcher = SegmentPatcher::new(raw.bytes, raw.src, raw.dst);
        set(&mut patcher);
        let (bytes, src, dst) = patcher.finish();
        self.emit.clock.end(Stage::ChecksumFixup, t0);
        AddressedSegment::new(src, dst, bytes).traced(self.emit.trace)
    }

    /// Hands the auditor, when one is attached, the segment and the
    /// role this engine gave it, before the step patches or queues it.
    #[inline]
    fn shadow(&mut self, role: SegmentRole, seg: &AddressedSegment) {
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.ingress(self.now, role, seg);
        }
    }

    /// Decodes a segment under the ingress-parse stage clock.
    fn decode(&mut self, bytes: &Bytes) -> Option<TcpSegment> {
        let t0 = self.emit.clock.start();
        let parsed = TcpSegment::decode_shared(bytes);
        self.emit.clock.end(Stage::IngressParse, t0);
        parsed.ok()
    }

    /// One segment through the datapath, as [`PrimaryBridge::route`]
    /// classified it. Returns whether it belonged to a failover
    /// connection — a designated port or tuple, a tracked flow, the
    /// downstream's diverted stream — rather than passing through
    /// untouched: only then is what it appended to `out` a chain
    /// link's to route.
    pub(super) fn run(
        &mut self,
        route: Route,
        seg: AddressedSegment,
        out: &mut FilterOutput,
    ) -> bool {
        match route {
            Route::Outbound(key) => self.outbound(seg, key, out),
            Route::Diverted(key) => {
                self.diverted(seg, key, out);
                true
            }
            Route::Peer(key) => self.peer(seg, key, out),
        }
    }

    /// The outbound datapath body (our TCP layer → wire).
    fn outbound(
        &mut self,
        seg: AddressedSegment,
        key: Option<ConnKey>,
        out: &mut FilterOutput,
    ) -> bool {
        let (Some(parsed), Some(key)) = (self.decode(&seg.bytes), key) else {
            out.to_wire.push(seg);
            return false;
        };
        let slot = self.find(&key);
        let designated = slot.is_some()
            || self
                .config
                .matches(parsed.src_port, seg.dst, parsed.dst_port);
        if !designated || Some(seg.dst) == self.a_s {
            out.to_wire.push(seg);
            return false;
        }
        // §6-degraded connections pass through immediately with Δseq
        // subtracted and ack/window untouched — in *any* mode (a flow
        // not handed to a replica that joined below stays degraded).
        let fin = parsed.flags.contains(TcpFlags::FIN);
        if let Some(delta) = self.forward_degraded(slot, OURS, fin) {
            if delta == 0 {
                out.to_wire.push(seg);
            } else {
                let new_seq = parsed.seq.wrapping_sub(delta);
                drop(parsed);
                let patched = self.patch(seg, |p| p.set_seq(new_seq));
                out.to_wire.push(patched);
            }
            return true;
        }
        match self.mode {
            PrimaryMode::SecondaryFailed => {
                // Server-initiated opens while degraded are local-only
                // for their lifetime, like client opens.
                if parsed.flags.contains(TcpFlags::SYN)
                    && !parsed.flags.contains(TcpFlags::ACK)
                    && slot.is_none()
                {
                    self.open_degraded(key, None, out);
                }
                out.to_wire.push(seg);
            }
            PrimaryMode::Normal => {
                self.shadow(SegmentRole::Ours, &seg);
                // Any SYN from our own TCP layer opens bridge state: a
                // SYN+ACK answers a client SYN that passed through
                // before the designation was registered (§7 method 1),
                // a bare SYN starts a server-initiated connection
                // (§7.2).
                let mut slot = slot;
                if parsed.flags.contains(TcpFlags::SYN) && self.live(slot).is_none() {
                    slot = Some(self.open(key, slot, out));
                }
                self.on_replica_segment(key, slot, OURS, &parsed, out);
            }
        }
        true
    }

    /// Diverted secondary output (the buffer stays uniquely owned up to
    /// here — the router only peeked — so the strip is in place).
    fn diverted(&mut self, seg: AddressedSegment, key: ConnKey, out: &mut FilterOutput) {
        self.shadow(SegmentRole::Diverted, &seg);
        if self.mode == PrimaryMode::SecondaryFailed {
            return; // §6 step 2
        }
        // Strip the option before processing so payload matching sees
        // the canonical segment.
        let stripped = self.patch(seg, |p| {
            p.strip_orig_dest_option();
        });
        let Some(canonical) = self.decode(&stripped.bytes) else {
            self.emit.stats.drops += 1;
            return;
        };
        let mut slot = self.find(&key);
        // A SYN from the secondary may precede any primary activity (a
        // server-initiated open where S ran first, or a SYN+ACK racing
        // the primary's own): open state.
        if canonical.flags.contains(TcpFlags::SYN) && self.live(slot).is_none() {
            slot = Some(self.open(key, slot, out));
        }
        self.on_replica_segment(key, slot, BELOW, &canonical, out);
    }

    /// Any other segment off the wire (wire → our TCP layer).
    fn peer(
        &mut self,
        seg: AddressedSegment,
        key: Option<ConnKey>,
        out: &mut FilterOutput,
    ) -> bool {
        let (Some(parsed), Some(key)) = (self.decode(&seg.bytes), key) else {
            out.to_tcp.push(seg);
            return false;
        };
        // A segment from an unreplicated peer addressed to us?
        if seg.dst == self.emit.a_p {
            let slot = self.find(&key);
            let designated = slot.is_some()
                || self
                    .config
                    .matches(parsed.dst_port, seg.src, parsed.src_port);
            let merged = designated && self.mode == PrimaryMode::Normal;
            self.shadow(SegmentRole::Client { merged }, &seg);
            if designated {
                self.on_client_segment(parsed, seg, key, slot, out);
                return true;
            }
        }
        out.to_tcp.push(seg);
        false
    }

    /// Handles an ingress segment from the unreplicated peer (the
    /// client C, or back-end T for server-initiated connections);
    /// `slot` is whatever the table holds for `key`.
    ///
    /// Takes `parsed` by value so its payload slice (which shares
    /// `raw.bytes`' storage) can be dropped before the ack-translate
    /// patch — leaving the buffer uniquely owned means the patcher
    /// takes it over in place instead of copying.
    fn on_client_segment(
        &mut self,
        parsed: TcpSegment,
        raw: AddressedSegment,
        key: ConnKey,
        slot: Option<SlotId>,
        out: &mut FilterOutput,
    ) {
        let live = self.live(slot);
        let (syn, fin) = (
            parsed.flags.contains(TcpFlags::SYN),
            parsed.flags.contains(TcpFlags::FIN),
        );
        // New client-initiated connection?
        if syn && !parsed.flags.contains(TcpFlags::ACK) {
            match self.mode {
                PrimaryMode::Normal if live.is_none() => {
                    self.open(key, slot, out);
                }
                PrimaryMode::SecondaryFailed => self.open_degraded(key, slot, out),
                _ => {}
            }
            out.to_tcp.push(raw);
            return;
        }
        let Some(slot) = live else {
            if let Some(delta) = self.forward_degraded(slot, PEER, fin) {
                // §6 pass-through: translate the ack and pass
                // everything to our TCP layer.
                if parsed.flags.contains(TcpFlags::ACK) && delta != 0 {
                    let new_ack = parsed.ack.wrapping_add(delta);
                    drop(parsed);
                    let patched = self.patch(raw, |p| p.set_ack(new_ack));
                    self.emit.stats.acks_translated += 1;
                    out.to_tcp.push(patched);
                } else {
                    out.to_tcp.push(raw);
                }
            } else if fin && slot.is_some() {
                // §8: the client retransmits its FIN after we deleted
                // the connection: ACK it ourselves.
                let from = (self.emit.a_p, key.server_port);
                self.ack_late_fin(from, (key.peer.ip, key.peer.port), &parsed, out);
            } else if self.gate && !syn && slot.is_none() {
                // A connection this replica never saw established: it
                // cannot replicate it, and its stack would answer with
                // a RST — drop, never deliver.
                self.emit.stats.unwitnessed_dropped += 1;
            } else {
                // Unknown connection (e.g. created before the bridge,
                // or non-failover traffic that matched a port): pass
                // through.
                out.to_tcp.push(raw);
            }
            return;
        };
        let PrimaryFlow::Live(conn) = self.flows.touch(slot, self.now) else {
            unreachable!("live lifecycle state implies a live flow entry");
        };
        // Track teardown progress (in S/client-facing space).
        if parsed.flags.contains(TcpFlags::ACK) {
            conn.client_acked = Some(match conn.client_acked {
                Some(a) if seq_gt(a, parsed.ack) => a,
                _ => parsed.ack,
            });
        }
        if parsed.flags.contains(TcpFlags::FIN) {
            conn.client_fin = Some(parsed.seq.wrapping_add(parsed.payload.len() as u32));
        }
        let delta_opt = conn.delta;
        self.settle(slot);
        // Translate the acknowledgment into the primary's space.
        if parsed.flags.contains(TcpFlags::ACK) {
            if let Some(delta) = delta_opt {
                let new_ack = parsed.ack.wrapping_add(delta);
                drop(parsed);
                let patched = self.patch(raw, |p| p.set_ack(new_ack));
                self.emit.stats.acks_translated += 1;
                out.to_tcp.push(patched);
            } else {
                // An ACK cannot precede the merged SYN in a correct
                // run; drop rather than corrupt the primary's TCB.
                self.emit.stats.drops += 1;
            }
        } else {
            out.to_tcp.push(raw);
        }
        self.maybe_teardown(slot);
    }
}
