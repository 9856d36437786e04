//! The §3, §4 and §7 merge. A connection is one [`Side`] per replica
//! beside its client-facing space; what both sides agree on is released
//! through the [`Emitter`], the one way a connection's client-facing
//! segments leave. The handshake merges into one SYN (§7), and a
//! retransmission is forwarded at once (§4).
//!
//! A connection keeps only what the merge still reads: each replica's
//! SYN is held as a [`HeldSyn`] record until both are in, and after
//! the merge only the merged SYN's ISN and acknowledgment remain.

use super::datapath::Engine;
use super::residue::PrimaryFlow;
use super::PrimaryStats;
use crate::designation::ConnKey;
use crate::flow::{FlowState, SlotId};
use crate::observers::{Lag, StageClock};
use crate::queues::{ByteQueue, TakenBytes};
use bytes::{Bytes, BytesMut};
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput, TraceId};
use tcpfo_tcp::seq::{seq_gt, seq_le, seq_min};
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::{FlowClass, Stage};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{HeaderTemplate, TcpFlags, TcpOption, TcpOptions, TcpSegment};

/// Index of our own TCP layer's [`Side`] in [`Conn::sides`] (and of
/// its FIN in a §6 entry's `fins`); the bridge's queue totals index
/// their sides the same way.
pub(super) const OURS: usize = 1;
const _: () = assert!(OURS == tcpfo_telemetry::QueueTotals::OWN);
/// Index of the [`Side`] diverted from below.
pub(super) const BELOW: usize = 0;

/// A replica's held handshake segment (client-initiated: SYN+ACK;
/// server-initiated: SYN), reduced to its header fields and MSS — all
/// our stack's SYN carries, so [`HeldSyn::segment`] rebuilds it byte
/// for byte.
#[derive(Debug, Clone, Copy)]
pub(super) struct HeldSyn {
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    mss: Option<u16>,
}

impl HeldSyn {
    fn of(seg: &TcpSegment) -> Self {
        HeldSyn {
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            mss: seg.mss(),
        }
    }

    /// The segment as the replica's stack sent it on `key`.
    pub(super) fn segment(&self, key: ConnKey) -> TcpSegment {
        let mut options = TcpOptions::default();
        if let Some(mss) = self.mss {
            options.push(TcpOption::Mss(mss));
        }
        TcpSegment {
            src_port: key.server_port,
            dst_port: key.peer.port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            options,
            payload: Bytes::new(),
        }
    }
}

/// Where a connection's handshake stands.
#[derive(Debug)]
pub(super) enum Handshake {
    /// Each replica's SYN as far as it arrived, indexed by [`OURS`]
    /// and [`BELOW`].
    Held([Option<HeldSyn>; 2]),
    /// Merged: the client-facing ISN and acknowledgment of the merged
    /// SYN, re-sent when a replica retransmits its SYN.
    Merged { iss: u32, ack: Option<u32> },
    /// Adopted from a handoff: merged upstream, nothing to re-send.
    Adopted,
}

/// One replica's side of a connection, in client stream space.
#[derive(Debug, Default)]
pub(super) struct Side {
    /// Its output queue: the normalised send stream.
    pub(super) queue: ByteQueue,
    /// Its FIN position, once produced.
    pub(super) fin: Option<u32>,
    /// The latest acknowledgment it sent.
    pub(super) ack: Option<u32>,
    /// The latest window it advertised.
    pub(super) win: u16,
}

/// Per-connection bridge state.
#[derive(Debug)]
pub(super) struct Conn {
    /// Prebuilt client-facing egress header: pseudo-header and port sums
    /// cached once, so releasing bytes never recomputes them. (The
    /// client's address and our port are the flow's key.)
    tmpl: HeaderTemplate,
    /// Each replica's side, indexed by [`OURS`] and [`BELOW`].
    pub(super) sides: [Side; 2],
    /// The held SYN records until the merge, then what re-sends it.
    pub(super) handshake: Handshake,
    /// `seq_P,init − seq_S,init`, known once both SYNs are seen.
    pub(super) delta: Option<u32>,
    /// Effective MSS for merged segments: `min(MSS_P, MSS_S)`.
    pub(super) mss: u16,
    /// Next client-facing sequence number to send (S space).
    pub(super) send_next: u32,
    /// Whether the merged FIN has been released.
    pub(super) fin_sent: bool,
    /// Acknowledgment carried by the last segment sent to the client.
    pub(super) last_ack_sent: Option<u32>,
    /// Highest ack observed from the client (S space).
    pub(super) client_acked: Option<u32>,
    /// The client's FIN position, if received.
    pub(super) client_fin: Option<u32>,
    /// Sim time the current head-of-queue bytes became resident in our
    /// own output queue (`u64::MAX` = queue empty / unstamped).
    /// Maintained only while the health observatory is attached; feeds
    /// the time-at-head-of-queue replication-lag histograms.
    pq_head_since: u64,
    /// Total payload bytes released to the client so far — classifies
    /// the flow (mice vs bulk) for per-class lag sampling.
    released_bytes: u64,
}

impl Conn {
    pub(super) fn new(a_p: Ipv4Addr, client: SocketAddr, server_port: u16) -> Self {
        Conn {
            tmpl: HeaderTemplate::new(a_p, client.ip, server_port, client.port),
            sides: Default::default(),
            handshake: Handshake::Held([None; 2]),
            delta: None,
            mss: 536,
            send_next: 0,
            fin_sent: false,
            last_ack_sent: None,
            client_acked: None,
            client_fin: None,
            pq_head_since: u64::MAX,
            released_bytes: 0,
        }
    }

    /// Bytes our own output queue holds that the side below has not
    /// matched yet: the connection's replication lag.
    pub(super) fn held(&self) -> usize {
        self.sides[OURS].queue.len()
    }

    /// The connection leaves replicated operation (teardown, RST,
    /// eviction, GC, §6): its held bytes stop being replication lag, and
    /// both sides' bytes leave the queue totals.
    pub(super) fn left(&self, lag: &mut Lag) {
        lag.left(self.sides.each_ref().map(|s| s.queue.len()), self.mss);
    }

    pub(super) fn min_ack(&self) -> Option<u32> {
        Some(seq_min(self.sides[OURS].ack?, self.sides[BELOW].ack?))
    }

    pub(super) fn min_win(&self) -> u16 {
        self.sides[OURS].win.min(self.sides[BELOW].win)
    }

    /// The acknowledgment to stamp on client-facing segments:
    /// `min(ack_P, ack_S)` — or, under the ablation flag, the unsafe
    /// primary-only acknowledgment.
    fn client_ack(&self, unsafe_ack: bool) -> Option<u32> {
        if unsafe_ack {
            self.sides[OURS].ack.or(self.sides[BELOW].ack)
        } else {
            self.min_ack()
        }
    }

    /// Records the acknowledgment a client-facing segment carries.
    fn note_ack_sent(&mut self, ack: u32) {
        self.last_ack_sent = Some(match self.last_ack_sent {
            Some(l) if seq_gt(l, ack) => l,
            _ => ack,
        });
    }

    /// The lifecycle state the connection's table entry should carry,
    /// derived from its merge progress (FIN positions never un-set, so
    /// this is monotone along [`FlowState::can_transition`]).
    pub(super) fn state(&self) -> FlowState {
        if self.delta.is_none() {
            FlowState::Establishing
        } else if self.fin_sent
            || self.sides.iter().any(|s| s.fin.is_some())
            || self.client_fin.is_some()
        {
            FlowState::Closing
        } else {
            FlowState::Replicated
        }
    }
}

/// What emitting a segment needs and nothing that borrows the flow
/// table: the egress scratch, the counters, the stage clock, our
/// address and the trace id. Kept apart from the engine's flow table
/// so a `&mut Conn` borrowed from the table lives across an emit.
pub(super) struct Emitter<'a> {
    pub(super) a_p: Ipv4Addr,
    /// Causal trace of the segment being filtered.
    pub(super) trace: TraceId,
    pub(super) stats: &'a mut PrimaryStats,
    /// Recycled egress scratch (see `PrimaryBridge::emit_buf`).
    pub(super) buf: &'a mut BytesMut,
    /// Stage clock over the observatory's histograms.
    pub(super) clock: StageClock<'a>,
}

impl Emitter<'_> {
    /// Cold-path emitter for segments that need options (merged SYNs):
    /// full encode.
    pub(super) fn encoded(&mut self, conn: &mut Conn, seg: TcpSegment, out: &mut FilterOutput) {
        if seg.flags.contains(TcpFlags::ACK) {
            conn.note_ack_sent(seg.ack);
        }
        let client = conn.tmpl.dst();
        let bytes = seg.encode(self.a_p, client);
        out.to_wire
            .push(AddressedSegment::new(self.a_p, client, bytes).traced(self.trace));
    }

    /// Hot-path emitter: patches the connection's prebuilt header
    /// template into the recycled scratch buffer. No allocation, no
    /// full checksum pass (callers supply the payload's cached sum when
    /// they have one).
    #[allow(clippy::too_many_arguments)]
    fn hot<'p>(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        mut flags: TcpFlags,
        window: u16,
        parts: impl Iterator<Item = &'p [u8]> + Clone,
        payload_len: usize,
        payload_sum: Option<u32>,
        out: &mut FilterOutput,
    ) {
        let ack_val = match ack {
            Some(a) => {
                flags |= TcpFlags::ACK;
                conn.note_ack_sent(a);
                a
            }
            None => 0,
        };
        let t0 = self.clock.start();
        let bytes = conn.tmpl.emit_parts(
            self.buf,
            seq,
            ack_val,
            flags,
            window,
            parts,
            payload_len,
            payload_sum,
        );
        out.to_wire
            .push(AddressedSegment::new(self.a_p, conn.tmpl.dst(), bytes).traced(self.trace));
        self.clock.end(Stage::EgressEmit, t0);
    }

    /// [`Emitter::hot`] for a rope release: the payload is the
    /// [`TakenBytes`] chain straight out of an output queue,
    /// checksummed from its cached sum.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn release(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        flags: TcpFlags,
        window: u16,
        payload: &TakenBytes,
        out: &mut FilterOutput,
    ) {
        self.hot(
            conn,
            seq,
            ack,
            flags,
            window,
            payload.parts(),
            payload.len(),
            Some(payload.sum()),
            out,
        );
    }

    /// [`Emitter::hot`] for an empty segment (bare ACKs, merged FINs,
    /// translated and eviction RSTs).
    pub(super) fn empty(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        flags: TcpFlags,
        window: u16,
        out: &mut FilterOutput,
    ) {
        self.hot(
            conn,
            seq,
            ack,
            flags,
            window,
            std::iter::empty(),
            0,
            Some(0),
            out,
        );
    }
}

impl Engine<'_> {
    /// Releases everything both replicas agree on (§3.4 Figure 2), then
    /// the merged FIN, then a bare ACK if the minimum advanced.
    fn try_merge(&mut self, slot: SlotId, out: &mut FilterOutput) {
        let PrimaryFlow::Live(conn) = self.flows.data_mut(slot) else {
            return;
        };
        loop {
            let qm0 = self.emit.clock.start();
            let avail = conn.sides[OURS]
                .queue
                .contiguous_from(conn.send_next)
                .min(conn.sides[BELOW].queue.contiguous_from(conn.send_next));
            if avail > 0 {
                let n = avail.min(usize::from(conn.mss));
                let pq_before = conn.held();
                let from_s = conn.sides[BELOW].queue.take(conn.send_next, n);
                let from_p = conn.sides[OURS].queue.take(conn.send_next, n);
                self.lag.matched(n);
                if from_p != from_s {
                    self.emit.stats.mismatched_bytes += n as u64;
                }
                self.emit.clock.end(Stage::QueueMatch, qm0);
                // Replication-lag sampling at the match point: how far
                // behind the witness was when this release became
                // possible, and how long the head byte sat waiting.
                // The ledger update runs before the ack check below so
                // the gauge stays exact even on the drop path.
                if self.lag.attached() {
                    let class = FlowClass::of_released(conn.released_bytes);
                    let head_wait = if conn.pq_head_since == u64::MAX {
                        0
                    } else {
                        self.now.saturating_sub(conn.pq_head_since)
                    };
                    self.lag
                        .released(class, (pq_before, conn.held()), conn.mss, head_wait);
                    conn.pq_head_since = if conn.held() == 0 { u64::MAX } else { self.now };
                }
                let Some(ack) = conn.client_ack(self.unsafe_ack) else {
                    self.emit.stats.drops += 1;
                    break;
                };
                let seq = conn.send_next;
                conn.send_next = conn.send_next.wrapping_add(n as u32);
                conn.released_bytes += n as u64;
                self.emit.stats.merged_segments += 1;
                self.emit.stats.merged_bytes += n as u64;
                let win = conn.min_win();
                self.emit
                    .release(conn, seq, Some(ack), TcpFlags::PSH, win, &from_s, out);
                continue;
            }
            // No matched payload: the release decision itself is still
            // a queue-match sample.
            self.emit.clock.end(Stage::QueueMatch, qm0);
            // FIN merge: both replicas have closed at this position.
            if !conn.fin_sent && conn.sides.iter().all(|s| s.fin == Some(conn.send_next)) {
                if let Some(ack) = conn.client_ack(self.unsafe_ack) {
                    let seq = conn.send_next;
                    conn.fin_sent = true;
                    conn.send_next = conn.send_next.wrapping_add(1);
                    self.emit.stats.fins_sent += 1;
                    let win = conn.min_win();
                    self.emit
                        .empty(conn, seq, Some(ack), TcpFlags::FIN, win, out);
                    continue;
                }
            }
            break;
        }
        // §3.4: prevent the delayed-ACK deadlock — if min(ack) advanced
        // beyond the last ack we sent, emit a bare ACK segment.
        if let Some(m) = conn.client_ack(self.unsafe_ack) {
            let advanced = match conn.last_ack_sent {
                Some(l) => seq_gt(m, l),
                None => true,
            };
            if advanced {
                self.emit.stats.empty_acks += 1;
                let (seq, win) = (conn.send_next, conn.min_win());
                self.emit
                    .empty(conn, seq, Some(m), TcpFlags::EMPTY, win, out);
            }
        }
        self.settle(slot);
    }

    /// Builds the merged SYN / SYN+ACK once both replicas' SYNs are
    /// held (§7.1, §7.2), dropping both records, and sends the same
    /// SYN again when a replica retransmits its SYN after the merge.
    fn merge_syn(&mut self, key: ConnKey, slot: SlotId, out: &mut FilterOutput) {
        let PrimaryFlow::Live(conn) = self.flows.data_mut(slot) else {
            return;
        };
        let (iss, ack) = match conn.handshake {
            Handshake::Held(held) => {
                let (Some(p), Some(s)) = (held[OURS], held[BELOW]) else {
                    return;
                };
                let (delta, iss) = (p.seq.wrapping_sub(s.seq), s.seq);
                // Client-initiated: both SYN+ACKs acknowledge the same
                // client ISN.
                let ack = p.flags.contains(TcpFlags::ACK).then_some(p.ack);
                debug_assert!(ack.is_none() || p.ack == s.ack);
                conn.delta = Some(delta);
                conn.mss = p.mss.unwrap_or(536).min(s.mss.unwrap_or(536));
                conn.send_next = iss.wrapping_add(1);
                if ack.is_some() {
                    conn.sides[OURS].ack = Some(p.ack);
                    conn.sides[BELOW].ack = Some(s.ack);
                }
                conn.handshake = Handshake::Merged { iss, ack };
                if let Some(t) = self.instruments {
                    t.record(
                        self.now,
                        "sync",
                        &[
                            ("client", format!("{}:{}", key.peer.ip, key.peer.port)),
                            ("delta_seq", delta.to_string()),
                        ],
                    );
                }
                (iss, ack)
            }
            Handshake::Merged { iss, ack } => {
                self.emit.stats.retransmissions_forwarded += 1;
                (iss, ack)
            }
            Handshake::Adopted => {
                self.emit.stats.drops += 1;
                return;
            }
        };
        let mut b = TcpSegment::builder(key.server_port, key.peer.port)
            .seq(iss)
            .flags(TcpFlags::SYN)
            .window(conn.min_win())
            .mss(conn.mss);
        if let Some(ack) = ack {
            b = b.ack(ack);
        }
        self.emit.encoded(conn, b.build(), out);
        self.settle(slot);
    }

    /// Handles a data/FIN/ACK segment from the replica at `side`
    /// ([`OURS`] or [`BELOW`]); `slot` is whatever the table holds for
    /// `key`.
    pub(super) fn on_replica_segment(
        &mut self,
        key: ConnKey,
        slot: Option<SlotId>,
        side: usize,
        seg: &TcpSegment,
        out: &mut FilterOutput,
    ) {
        let Some(slot) = self.live(slot) else {
            // §8: a FIN from the secondary after state deletion is
            // ACKed directly back to the secondary. Anything else —
            // our TCP layer retransmitting into a dead connection
            // included — is dropped (the tombstone answers the peer).
            match self.a_s.filter(|_| side == BELOW) {
                Some(a_s) if seg.flags.contains(TcpFlags::FIN) && slot.is_some() => {
                    let to = (a_s, key.server_port);
                    self.ack_late_fin((key.peer.ip, key.peer.port), to, seg, out);
                }
                _ => self.emit.stats.drops += 1,
            }
            return;
        };
        let PrimaryFlow::Live(conn) = self.flows.touch(slot, self.now) else {
            unreachable!("live lifecycle state implies a live flow entry");
        };
        // Handshake segments.
        if seg.flags.contains(TcpFlags::SYN) {
            conn.sides[side].win = seg.window;
            if let Handshake::Held(held) = &mut conn.handshake {
                held[side] = Some(HeldSyn::of(seg));
            }
            self.merge_syn(key, slot, out);
            return;
        }
        // Record acknowledgment and window, noting whether this
        // replica repeated its previous ack (a genuine re-ACK).
        let theirs = &mut conn.sides[side];
        let re_ack = seg.flags.contains(TcpFlags::ACK) && theirs.ack == Some(seg.ack);
        if seg.flags.contains(TcpFlags::ACK) {
            theirs.ack = Some(seg.ack);
            theirs.win = seg.window;
        }
        let Some(delta) = conn.delta else {
            // Data before the handshake merged: cannot normalise.
            self.emit.stats.drops += 1;
            return;
        };
        // Normalise into client (secondary) sequence space.
        let seq = if side == OURS {
            seg.seq.wrapping_sub(delta)
        } else {
            seg.seq
        };
        let end = seq.wrapping_add(seg.payload.len() as u32);
        let has_fin = seg.flags.contains(TcpFlags::FIN);
        if has_fin {
            conn.sides[side].fin = Some(end);
        }
        // RST: forward with translated sequence number and drop state.
        if seg.flags.contains(TcpFlags::RST) {
            let (_, PrimaryFlow::Live(mut conn)) = self.flows.remove(slot) else {
                unreachable!("live lifecycle state implies a live flow entry");
            };
            conn.left(&mut self.lag);
            self.emit.empty(&mut conn, seq, None, TcpFlags::RST, 0, out);
            self.emit.stats.conns_closed += 1;
            return;
        }
        let fin_end = if has_fin { end.wrapping_add(1) } else { end };
        let is_retransmission = fin_end != seq && seq_le(fin_end, conn.send_next);
        if is_retransmission {
            // §4: the bridge receives only a single copy of a
            // retransmission; do not enqueue, send immediately with the
            // current minimum ack/window.
            let Some(ack) = conn.client_ack(self.unsafe_ack) else {
                self.emit.stats.drops += 1;
                return;
            };
            let mut flags = TcpFlags::EMPTY;
            if !seg.payload.is_empty() {
                flags |= TcpFlags::PSH;
            }
            if has_fin {
                flags |= TcpFlags::FIN;
            }
            self.emit.stats.retransmissions_forwarded += 1;
            let win = conn.min_win();
            self.emit.hot(
                conn,
                seq,
                Some(ack),
                flags,
                win,
                std::iter::once(&seg.payload[..]),
                seg.payload.len(),
                None,
                out,
            );
            self.settle(slot);
            return;
        }
        if !seg.payload.is_empty() {
            // Measure the side's queue around the insert (it clips
            // overlaps, so the delta is not the payload size) and stamp
            // our head-arrival time on the empty→non-empty edge.
            let queue = &mut conn.sides[side].queue;
            let before = queue.len();
            queue.insert(seq, seg.payload.clone(), conn.send_next);
            let after = queue.len();
            self.lag.inserted(side, (before, after), conn.mss);
            if side == OURS && before == 0 && after > 0 && self.lag.attached() {
                conn.pq_head_since = self.now;
            }
        }
        let pure_ack = seg.payload.is_empty() && !has_fin && seg.flags.contains(TcpFlags::ACK);
        let emitted_before = out.to_wire.len();
        self.try_merge(slot, out);
        // Duplicate-ACK forwarding: a pure ACK that does not advance
        // min(ack_P, ack_S) is a replica *re-ACK* — the degenerate case
        // of §4's "recognises that k is a retransmission … sends k
        // immediately" with an empty k. Without this, a lost merged ACK
        // can never be repaired when the servers have no data to
        // retransmit, and the client retries forever. It also carries
        // window updates and feeds the client's fast retransmit.
        if pure_ack && out.to_wire.len() == emitted_before {
            if let PrimaryFlow::Live(conn) = self.flows.data_mut(slot) {
                if let Some(m) = conn.client_ack(self.unsafe_ack) {
                    // Only a *repeated* ack from one replica counts as
                    // a re-ACK; the other replica merely catching up to
                    // the minimum is normal duplex flow and forwarding
                    // it would double the merged ACK cadence.
                    if conn.last_ack_sent == Some(m) && re_ack {
                        self.emit.stats.empty_acks += 1;
                        let (seq, win) = (conn.send_next, conn.min_win());
                        self.emit
                            .empty(conn, seq, Some(m), TcpFlags::EMPTY, win, out);
                    }
                }
            }
        }
        self.maybe_teardown(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection is what the merge reads: no held segment outlives
    /// the handshake, and a queue's first chunk sits inline.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_connection_is_pinned_at_its_size() {
        assert_eq!(std::mem::size_of::<Conn>(), 264);
    }
}
