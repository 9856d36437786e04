//! §6 and §8: what outlives a connection's merge. A [`Tombstone`] is a
//! §6 pass-through entry that keeps subtracting `Δseq`, or a §8 residue
//! that re-ACKs late FINs; the bridge degrades to §6 when the replica
//! below fails, leaves it when a replica joins below, and tears a
//! connection down once both directions are closed. A flow evicted
//! under capacity pressure is reset.

use super::datapath::Engine;
use super::merge::{Conn, Handshake, OURS};
use super::{PrimaryBridge, PrimaryMode};
use crate::designation::ConnKey;
use crate::flow::{Evicted, FlowState, SlotId};
use crate::observers::Lag;
use crate::reprovision::FlowHandoff;
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput, TraceId};
use tcpfo_tcp::seq::{seq_gt, seq_le};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{TcpFlags, TcpSegment};

/// What remains of a connection after the bridge drops its queue state.
/// Expiry is the flow table's job: §8 tombstones sit in
/// [`FlowState::TimeWait`] and are reaped on its TTL; §6 entries sit in
/// [`FlowState::Degraded`] until FINs both ways move them there too, and
/// the idle TTL is their backstop.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tombstone {
    /// The connection's `Δseq`.
    pub(super) delta: u32,
    /// §6-degraded *live* connection (keep translating both directions
    /// until it is reaped) rather than a §8-closed one (only re-ACK late
    /// FINs).
    pub(super) degraded: bool,
    /// §6: FINs forwarded from the peer and from our own TCP layer.
    fins: [bool; 2],
}

/// Which side of a §6 connection a segment came from
/// ([`Tombstone::fins`]): the peer, or our own TCP layer ([`OURS`]).
pub(super) const PEER: usize = 0;

/// One entry in the primary's flow table: a live connection with queue
/// state, or the residue that outlives it.
#[derive(Debug)]
pub(super) enum PrimaryFlow {
    /// Live connection (boxed: a [`Conn`] is two queues plus a header
    /// template; tombstones are 8 bytes).
    Live(Box<Conn>),
    /// §8 or §6 residue.
    Tomb(Tombstone),
}

impl PrimaryFlow {
    /// A fresh §6 pass-through entry at `delta`.
    pub(super) fn degraded(delta: u32) -> Self {
        PrimaryFlow::Tomb(Tombstone {
            delta,
            degraded: true,
            fins: [false; 2],
        })
    }

    /// The entry leaves the table: a live connection's held bytes stop
    /// being replication lag.
    pub(super) fn left(&self, lag: &mut Lag) {
        if let PrimaryFlow::Live(c) = self {
            c.left(lag);
        }
    }
}

impl PrimaryBridge {
    /// §6: the fault detector reports the secondary dead. Flushes every
    /// primary output queue to the client and degrades to Δ-adjusted
    /// pass-through. The returned output, already routed by this
    /// link's place in the chain, must be dispatched by the caller (the
    /// host controller).
    ///
    /// Connections are processed in slab-slot order — a fixed,
    /// reproducible order (the old `HashMap` iteration here was the one
    /// run-to-run nondeterminism in the bridge).
    pub fn secondary_failed(&mut self, now_nanos: u64) -> FilterOutput {
        self.sync_telemetry(now_nanos);
        self.observers
            .mode_changed(PrimaryMode::SecondaryFailed, now_nanos);
        let live = self.conn_count().to_string();
        self.journal(now_nanos, "degraded", &[("live_conns", live)]);
        let mut out = FilterOutput::empty();
        self.mode = PrimaryMode::SecondaryFailed;
        self.engine(TraceId::NONE, now_nanos).degrade(&mut out);
        self.sync_telemetry(now_nanos);
        if self.is_link() {
            self.route_as_link((0, 0), now_nanos, &mut out);
        }
        out
    }

    /// The way out of §6 (see [`crate::reprovision`]): the replica at
    /// `down` joins below, new connections replicate again, and the
    /// flows handed to it are re-stated with
    /// [`PrimaryBridge::adopt_flow`]. Stamped at the caller's clock.
    pub fn join_below(&mut self, down: Ipv4Addr, now_nanos: u64) {
        self.a_s = Some(down);
        self.mode = PrimaryMode::Normal;
        self.observers.mode_changed(PrimaryMode::Normal, now_nanos);
        self.journal(now_nanos, "joined", &[("below", down.to_string())]);
    }

    /// Adopts one handed-off flow (see [`crate::reprovision`]): a live
    /// entry, in the slot of the §6 entry it re-states, its merge
    /// synchronised at the handoff's `Δseq` and cursor. Both output
    /// queues start empty — the adopting link's own stream buffers from
    /// the cursor until the joiner's diverted stream matches it, the
    /// catch-up the lag ledger proves drains to zero. With nobody below
    /// (the joiner itself) the flow is a §6 entry at `Δseq = 0`: its TCB
    /// was built in the client-facing space.
    pub fn adopt_flow(&mut self, h: &FlowHandoff, now_nanos: u64) {
        self.stats.adopted_flows += 1;
        let key = ConnKey::new(h.server_port, h.client);
        let (st, flow) = if self.mode == PrimaryMode::SecondaryFailed {
            (FlowState::Degraded, PrimaryFlow::degraded(0))
        } else {
            let mut conn = Box::new(Conn::new(self.a_p, h.client, h.server_port));
            conn.handshake = Handshake::Adopted;
            conn.delta = Some(h.delta);
            conn.mss = h.mss;
            conn.send_next = h.cursor;
            conn.last_ack_sent = Some(h.rcv_nxt);
            for side in &mut conn.sides {
                side.ack = Some(h.rcv_nxt);
                side.win = h.win;
            }
            (conn.state(), PrimaryFlow::Live(conn))
        };
        if let (_, Some(dropped)) = self.flows.insert(key, st, flow, now_nanos) {
            self.stats.evicted_flows += 1;
            let queued = self.telemetry.as_ref().map(|t| &t.queued);
            dropped.data.left(&mut self.observers.lag(queued));
        }
    }
}

impl Engine<'_> {
    /// §6 over the whole table, slot by slot in slab order: flush
    /// each live connection's own output queue to the client, then
    /// leave in its slot the pass-through entry that keeps subtracting
    /// `Δseq` for the rest of the connection's life.
    pub(super) fn degrade(&mut self, out: &mut FilterOutput) {
        for i in 0..self.flows.slot_count() {
            let Some(slot) = self.live(self.flows.slot_at(i)) else {
                continue;
            };
            let key = self.flows.key(slot);
            let PrimaryFlow::Live(conn) = self.flows.data_mut(slot) else {
                continue;
            };
            // The flow leaves replicated operation here: whatever the
            // secondary never matched stops being replication lag
            // (it is flushed straight to the client below).
            conn.left(&mut self.lag);
            let Some(delta) = conn.delta else {
                // Handshake never completed against the secondary:
                // release the held SYN as our stack sent it; the
                // connection continues as a plain TCP connection.
                if let Handshake::Held([_, Some(syn)]) = conn.handshake {
                    let seg = syn.segment(key);
                    self.emit.encoded(conn, seg, out);
                }
                self.flows.remove(slot);
                continue;
            };
            // Step 1: remove all payload data from the primary output
            // queue and send it to the client (respecting the MSS).
            if let Some(ack) = conn.sides[OURS].ack {
                let win = conn.sides[OURS].win;
                loop {
                    let seq = conn.send_next;
                    let avail = conn.sides[OURS].queue.contiguous_from(seq);
                    if avail == 0 {
                        break;
                    }
                    let n = avail.min(usize::from(conn.mss));
                    let payload = conn.sides[OURS].queue.take(seq, n);
                    conn.send_next = seq.wrapping_add(n as u32);
                    self.emit.stats.merged_segments += 1;
                    self.emit.stats.merged_bytes += n as u64;
                    self.emit
                        .release(conn, seq, Some(ack), TcpFlags::PSH, win, &payload, out);
                }
                if !conn.fin_sent && conn.sides[OURS].fin == Some(conn.send_next) {
                    let seq = conn.send_next;
                    conn.fin_sent = true;
                    conn.send_next = seq.wrapping_add(1);
                    self.emit.stats.fins_sent += 1;
                    self.emit
                        .empty(conn, seq, Some(ack), TcpFlags::FIN, win, out);
                }
            }
            // Steps 2–3: the pass-through entry takes the slot.
            let tomb = PrimaryFlow::degraded(delta);
            self.flows
                .replace(slot, FlowState::Degraded, tomb, self.now);
        }
    }

    /// A segment from `side` passes through the §6 entry `slot` holds,
    /// if it holds one: the peer's segments (and FINs) are activity, and
    /// FINs from both sides walk the entry to TimeWait. Returns its
    /// `Δseq`.
    pub(super) fn forward_degraded(
        &mut self,
        slot: Option<SlotId>,
        side: usize,
        fin: bool,
    ) -> Option<u32> {
        let slot = slot?;
        if !matches!(self.flows.get(slot), PrimaryFlow::Tomb(t) if t.degraded) {
            return None;
        }
        let flow = if side == PEER || fin {
            self.flows.touch(slot, self.now)
        } else {
            self.flows.data_mut(slot)
        };
        let PrimaryFlow::Tomb(t) = flow else {
            unreachable!("checked above");
        };
        t.fins[side] |= fin;
        let (delta, closed) = (t.delta, t.fins == [true; 2]);
        if closed {
            self.flows.set_state(slot, FlowState::TimeWait, self.now);
        }
        Some(delta)
    }

    /// Opens a connection born degraded: local-only (Δseq = 0
    /// pass-through) unless it is handed to a replica that joins below
    /// later. A tuple's residue makes way (closed, or at
    /// Δseq = 0 anyway: tuple reuse); a live entry's Δseq stays (the SYN
    /// is a retransmission).
    pub(super) fn open_degraded(
        &mut self,
        key: ConnKey,
        slot: Option<SlotId>,
        out: &mut FilterOutput,
    ) {
        let fresh = PrimaryFlow::degraded(0);
        let Some(slot) = slot else {
            let (_, evicted) = self.flows.insert(key, FlowState::Degraded, fresh, self.now);
            if let Some(ev) = evicted {
                self.on_evicted(ev, out);
            }
            return;
        };
        let closed = self.flows.state(slot) == FlowState::TimeWait;
        if closed || matches!(self.flows.get(slot), PrimaryFlow::Tomb(t) if t.delta == 0) {
            self.flows
                .replace(slot, FlowState::Degraded, fresh, self.now);
        }
    }

    /// Capacity-pressure eviction: the table pushed out its
    /// least-recently-active entry to make room. An established live connection cannot silently
    /// vanish — its client would retransmit into a black hole forever —
    /// so it is reset with an RST in the client-facing sequence space.
    pub(super) fn on_evicted(&mut self, ev: Evicted<PrimaryFlow>, out: &mut FilterOutput) {
        self.emit.stats.evicted_flows += 1;
        if let Some(t) = self.instruments {
            t.record(
                self.now,
                "flow_evicted",
                &[
                    ("flow", ev.key.to_string()),
                    ("state", ev.state.to_string()),
                ],
            );
        }
        ev.data.left(&mut self.lag);
        if let PrimaryFlow::Live(mut conn) = ev.data {
            if conn.delta.is_some() {
                let seq = conn.send_next;
                self.emit.empty(&mut conn, seq, None, TcpFlags::RST, 0, out);
                self.emit.stats.evicted_rsts += 1;
            }
        }
    }

    /// ACKs a FIN retransmitted into a §8 tombstone on the sender's
    /// behalf: from `src` back to `dst`, whose segment `fin` was.
    pub(super) fn ack_late_fin(
        &mut self,
        (src, src_port): (Ipv4Addr, u16),
        (dst, dst_port): (Ipv4Addr, u16),
        fin: &TcpSegment,
        out: &mut FilterOutput,
    ) {
        let ack_seg = TcpSegment::builder(src_port, dst_port)
            .seq(fin.ack)
            .ack(fin.seq.wrapping_add(fin.seq_len()))
            .window(fin.window)
            .build();
        let bytes = ack_seg.encode(src, dst);
        out.to_wire
            .push(AddressedSegment::new(src, dst, bytes).traced(self.emit.trace));
        self.emit.stats.late_fin_acks += 1;
    }

    /// §8: once both directions are closed and acknowledged, delete the
    /// connection state, leaving a TimeWait tombstone for late
    /// retransmissions (reaped by the flow GC after its TTL).
    pub(super) fn maybe_teardown(&mut self, slot: SlotId) {
        let PrimaryFlow::Live(conn) = self.flows.get(slot) else {
            return;
        };
        let Some(delta) = conn.delta else { return };
        // Server->client direction closed: merged FIN sent and
        // acknowledged by the client.
        let Some(client_acked) = conn.client_acked else {
            return;
        };
        let server_side_done = conn.fin_sent && seq_le(conn.send_next, client_acked);
        // Client->server direction closed: client FIN seen and both
        // replicas acknowledged past it.
        let client_side_done = match (conn.client_fin, conn.min_ack()) {
            (Some(f), Some(m)) => seq_gt(m, f),
            _ => false,
        };
        if server_side_done && client_side_done {
            // The TimeWait tombstone takes the live entry's slot; any
            // residual unmatched bytes leave the lag ledger with it
            // (a fully acknowledged teardown normally has none).
            conn.left(&mut self.lag);
            let tomb = PrimaryFlow::Tomb(Tombstone {
                delta,
                degraded: false,
                fins: [true; 2],
            });
            self.flows
                .replace(slot, FlowState::TimeWait, tomb, self.now);
            self.emit.stats.conns_closed += 1;
        }
    }
}
