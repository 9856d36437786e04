//! The transmission control block (TCB) and per-connection state
//! machine: RFC 793 states, sliding-window send/receive, Reno
//! congestion control, retransmission with Karn/Jacobson RTO, delayed
//! ACKs, Nagle, zero-window probing.
//!
//! A [`Socket`] is pure protocol logic: segments go in through
//! [`Socket::on_segment`], time goes in through [`Socket::on_tick`],
//! and segments come out of [`Socket::output`]. All I/O, demultiplexing
//! and filtering live in [`crate::stack`] and [`crate::host`]. Keeping
//! the TCB side-effect-free is what lets the unit tests below drive two
//! sockets against each other without a network.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::config::{TcpConfig, TIME_WAIT};
use crate::rtt::RttEstimator;
use crate::seq::{seq_diff, seq_ge, seq_gt, seq_le, seq_lt};
use crate::types::FourTuple;
use bytes::Bytes;
use tcpfo_net::time::SimTime;
use tcpfo_wire::tcp::{TcpFlags, TcpSegment};

/// RFC 793 connection states (LISTEN lives in the stack's listener
/// table, CLOSED is represented by socket removal or [`Socket::error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// SYN sent, waiting for SYN+ACK.
    SynSent,
    /// SYN received, SYN+ACK sent, waiting for ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Both sides closed simultaneously; waiting for our FIN's ACK.
    Closing,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we closed; waiting for our FIN's ACK.
    LastAck,
    /// Fully closed (about to be reaped).
    Closed,
}

impl std::fmt::Display for TcpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TcpState::SynSent => "SYN-SENT",
            TcpState::SynRcvd => "SYN-RECEIVED",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait1 => "FIN-WAIT-1",
            TcpState::FinWait2 => "FIN-WAIT-2",
            TcpState::Closing => "CLOSING",
            TcpState::TimeWait => "TIME-WAIT",
            TcpState::CloseWait => "CLOSE-WAIT",
            TcpState::LastAck => "LAST-ACK",
            TcpState::Closed => "CLOSED",
        };
        f.write_str(s)
    }
}

/// Why a socket terminated abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// Peer sent RST.
    Reset,
    /// Retransmissions exhausted.
    TimedOut,
    /// Locally aborted.
    Aborted,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Reset => f.write_str("connection reset by peer"),
            SocketError::TimedOut => f.write_str("connection timed out"),
            SocketError::Aborted => f.write_str("connection aborted"),
        }
    }
}

impl std::error::Error for SocketError {}

/// Give up after this many consecutive retransmissions of one segment.
const MAX_RETRANSMITS: u32 = 12;
/// Default MSS when the peer advertised none (RFC 1122).
const DEFAULT_PEER_MSS: u16 = 536;

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct Socket {
    /// Connection identity.
    pub tuple: FourTuple,
    /// Current state.
    pub state: TcpState,
    /// Whether this is a failover connection (§7 designation), recorded
    /// so takeover can re-key exactly the failover TCBs.
    pub failover: bool,
    /// Abnormal-termination cause, if any.
    pub error: Option<SocketError>,

    // ---- send side ----
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Highest sequence number ever sent (SND.NXT may rewind below
    /// this after a retransmission timeout; ACK validation must not).
    snd_max: u32,
    snd_wnd: u32,
    /// Largest window the peer has ever offered (the BSD
    /// `max_sndwnd`), used by sender-side silly-window avoidance.
    snd_wnd_max: u32,
    snd_wl1: u32,
    snd_wl2: u32,
    send_buf: SendBuffer,
    fin_wanted: bool,
    fin_sent: bool,

    // ---- receive side ----
    irs: u32,
    rcv_buf: RecvBuffer,
    remote_fin: Option<u32>,

    // ---- MSS ----
    mss_local: u16,
    mss_peer: Option<u16>,

    // ---- congestion control (Reno) ----
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    in_fast_recovery: bool,
    recover: u32,

    // ---- timers ----
    rtt: RttEstimator,
    /// (sequence number whose ACK completes the sample, send time).
    rtt_sample: Option<(u32, SimTime)>,
    /// Pending retransmission deadline.
    pub(crate) rtx_deadline: Option<SimTime>,
    consecutive_rtx: u32,
    /// Pending zero-window-probe deadline.
    pub(crate) persist_deadline: Option<SimTime>,
    /// Pending delayed-ACK deadline.
    pub(crate) delack_deadline: Option<SimTime>,
    /// TIME-WAIT expiry.
    pub(crate) timewait_deadline: Option<SimTime>,

    // ---- ack scheduling ----
    ack_now: bool,
    segs_since_ack: u32,
    /// Window advertised on the last emitted segment (drives window
    /// updates when the application reads).
    last_wnd_advertised: u16,

    // ---- one-shot output requests ----
    /// Fast retransmit requested by triple duplicate ACKs.
    fast_retransmit_pending: bool,
    /// Zero-window probe requested by the persist timer.
    zero_window_probe_pending: bool,
    /// RST for an aborted connection already emitted.
    rst_sent: bool,

    // ---- counters (observability) ----
    /// Segments retransmitted (RTO + fast retransmit).
    pub retransmits: u64,
    /// Retransmission-timer expiries (a subset of `retransmits`:
    /// go-back-N rewinds only, not fast retransmits).
    pub rto_expiries: u64,
    /// Bytes the application wrote.
    pub bytes_sent: u64,
    /// Bytes delivered to the application.
    pub bytes_received: u64,
}

impl Socket {
    /// Creates an active-open (client) socket; the SYN is produced by
    /// the next [`Socket::output`] call.
    pub fn client(tuple: FourTuple, iss: u32, cfg: &TcpConfig) -> Self {
        Socket::new(tuple, iss, TcpState::SynSent, cfg)
    }

    /// Creates a passive-open socket from a received SYN; the SYN+ACK
    /// is produced by the next [`Socket::output`] call.
    pub fn server(tuple: FourTuple, iss: u32, syn: &TcpSegment, cfg: &TcpConfig) -> Self {
        debug_assert!(syn.flags.contains(TcpFlags::SYN));
        let mut s = Socket::new(tuple, iss, TcpState::SynRcvd, cfg);
        s.irs = syn.seq;
        s.rcv_buf = RecvBuffer::new(syn.seq.wrapping_add(1), cfg.recv_buffer);
        s.mss_peer = syn.mss();
        s.snd_wnd = u32::from(syn.window);
        s.snd_wnd_max = s.snd_wnd;
        s.snd_wl1 = syn.seq;
        s.snd_wl2 = 0;
        s
    }

    /// Rebuilds an `Established` socket from a mid-connection snapshot
    /// (PR9 chain reprovisioning): a freshly provisioned replica adopts
    /// a live flow in the *old* tail's sequence space, so the TCB is
    /// synthesised directly — `snd_nxt` at the handoff cursor, the
    /// receive side expecting the client's next byte — with no
    /// handshake. The socket is marked as a failover connection.
    pub fn adopted(
        tuple: FourTuple,
        snd_nxt: u32,
        rcv_nxt: u32,
        peer_mss: u16,
        peer_wnd: u16,
        cfg: &TcpConfig,
    ) -> Self {
        // The notional ISS sits one behind the cursor so the send
        // buffer's base (iss + 1) lands exactly on the cursor.
        let iss = snd_nxt.wrapping_sub(1);
        let mut s = Socket::new(tuple, iss, TcpState::Established, cfg);
        s.failover = true;
        // Post-handshake positions: the SYN is notionally consumed.
        s.snd_una = snd_nxt;
        s.snd_nxt = snd_nxt;
        s.snd_max = snd_nxt;
        s.recover = snd_nxt;
        s.irs = rcv_nxt.wrapping_sub(1);
        s.rcv_buf = RecvBuffer::new(rcv_nxt, cfg.recv_buffer);
        s.mss_peer = Some(peer_mss);
        s.snd_wnd = u32::from(peer_wnd);
        s.snd_wnd_max = s.snd_wnd;
        s.snd_wl1 = rcv_nxt;
        s.snd_wl2 = snd_nxt;
        s
    }

    fn new(tuple: FourTuple, iss: u32, state: TcpState, cfg: &TcpConfig) -> Self {
        Socket {
            tuple,
            state,
            failover: false,
            error: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_wnd_max: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            send_buf: SendBuffer::new(iss.wrapping_add(1), cfg.send_buffer),
            fin_wanted: false,
            fin_sent: false,
            irs: 0,
            rcv_buf: RecvBuffer::new(0, cfg.recv_buffer),
            remote_fin: None,
            mss_local: cfg.mss,
            mss_peer: None,
            cwnd: u32::from(cfg.mss) * 2,
            ssthresh: 64 * 1024,
            dup_acks: 0,
            in_fast_recovery: false,
            recover: iss,
            rtt: RttEstimator::default(),
            rtt_sample: None,
            rtx_deadline: None,
            consecutive_rtx: 0,
            persist_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            ack_now: false,
            segs_since_ack: 0,
            last_wnd_advertised: 0,
            fast_retransmit_pending: false,
            zero_window_probe_pending: false,
            rst_sent: false,
            retransmits: 0,
            rto_expiries: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Next sequence number we will ACK (covers data, SYN and FIN).
    pub fn rcv_nxt(&self) -> u32 {
        match self.remote_fin {
            Some(f) if self.rcv_buf.next_seq() == f => f.wrapping_add(1),
            _ => self.rcv_buf.next_seq(),
        }
    }

    /// The effective maximum segment size for data we send.
    pub fn effective_mss(&self) -> u16 {
        self.mss_local
            .min(self.mss_peer.unwrap_or(DEFAULT_PEER_MSS))
    }

    /// Whether the connection is fully set up.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::CloseWait
        )
    }

    /// Bytes waiting in the receive buffer.
    pub fn recv_available(&self) -> usize {
        self.rcv_buf.available()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.send_buf.free()
    }

    /// Bytes written but not yet acknowledged by the peer.
    pub fn unacked(&self) -> usize {
        self.send_buf.len()
    }

    /// `true` once the peer's FIN has been received *and* all data
    /// before it consumed by the application.
    pub fn peer_closed(&self) -> bool {
        match self.remote_fin {
            Some(f) => self.rcv_buf.next_seq() == f && self.rcv_buf.available() == 0,
            None => false,
        }
    }

    /// The advertised receive window right now.
    pub fn window(&self, cfg: &TcpConfig) -> u16 {
        cfg.clamp_window(self.rcv_buf.free())
    }

    /// The connection's 4-tuple.
    pub fn four_tuple(&self) -> FourTuple {
        self.tuple
    }

    /// Oldest unacknowledged sequence number (SND.UNA).
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// Next sequence number to send (SND.NXT).
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Bytes the application has written that TCP has not yet put on
    /// the wire (buffered beyond SND.NXT). A state-snapshot handoff
    /// must rewind the application's resume point by this much: the
    /// adopting stack starts at SND.NXT, so anything the old stack
    /// buffered but never sent has to be regenerated.
    pub fn unsent_bytes(&self) -> u32 {
        self.send_buf.end_seq().wrapping_sub(self.snd_nxt)
    }

    /// Peer's advertised window (SND.WND).
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    // ---------------------------------------------------------------
    // Application calls
    // ---------------------------------------------------------------

    /// Accepts bytes into the send buffer; returns how many fit.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if self.fin_wanted
            || !matches!(
                self.state,
                TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
            )
        {
            return 0;
        }
        let n = self.send_buf.write(data);
        self.bytes_sent += n as u64;
        n
    }

    /// Reads up to `max` in-order bytes. Opens the advertised window;
    /// the caller should invoke [`Socket::output`] afterwards so a
    /// window update can be emitted.
    pub fn recv(&mut self, max: usize, cfg: &TcpConfig) -> Vec<u8> {
        let data = self.rcv_buf.read(max);
        self.bytes_received += data.len() as u64;
        if !data.is_empty() {
            // Window update (BSD rule): announce only when the window
            // grew by at least two segments or half the buffer —
            // smaller growth rides on the regular ACK clock.
            let wnd = u32::from(self.window(cfg));
            let growth = wnd.saturating_sub(u32::from(self.last_wnd_advertised));
            if growth >= 2 * u32::from(self.effective_mss())
                || growth >= (cfg.recv_buffer as u32) / 2
            {
                self.ack_now = true;
            }
        }
        data
    }

    /// Initiates close of our direction (FIN after queued data).
    pub fn close(&mut self) {
        self.fin_wanted = true;
    }

    /// Aborts the connection; [`Socket::output`] will emit an RST.
    pub fn abort(&mut self) {
        self.enter_closed(SocketError::Aborted);
    }

    // ---------------------------------------------------------------
    // Segment arrival
    // ---------------------------------------------------------------

    /// Processes an incoming segment. Any response segments are
    /// produced by the next [`Socket::output`] call.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime, cfg: &TcpConfig) {
        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(seg, now, cfg),
            TcpState::TimeWait => {
                // Absorb retransmissions, re-ACK, restart 2MSL.
                if seg.flags.contains(TcpFlags::FIN) || seg.seq_len() > 0 {
                    self.ack_now = true;
                    self.timewait_deadline = Some(now + TIME_WAIT);
                }
            }
            TcpState::Closed => {}
            _ => self.on_segment_synchronized(seg, now, cfg),
        }
    }

    fn on_segment_syn_sent(&mut self, seg: &TcpSegment, now: SimTime, cfg: &TcpConfig) {
        if seg.flags.contains(TcpFlags::ACK)
            && (seq_le(seg.ack, self.iss) || seq_gt(seg.ack, self.snd_nxt))
        {
            return; // unacceptable ACK; a full stack would RST
        }
        if seg.flags.contains(TcpFlags::RST) {
            if seg.flags.contains(TcpFlags::ACK) {
                self.enter_closed(SocketError::Reset);
            }
            return;
        }
        if !seg.flags.contains(TcpFlags::SYN) {
            return;
        }
        self.irs = seg.seq;
        self.rcv_buf = RecvBuffer::new(seg.seq.wrapping_add(1), cfg.recv_buffer);
        self.mss_peer = seg.mss();
        if seg.flags.contains(TcpFlags::ACK) {
            self.accept_ack(seg, now);
            self.state = TcpState::Established;
            self.consecutive_rtx = 0;
            self.ack_now = true;
            self.snd_wnd = u32::from(seg.window);
            self.snd_wnd_max = self.snd_wnd_max.max(self.snd_wnd);
            self.snd_wl1 = seg.seq;
            self.snd_wl2 = seg.ack;
            // Data may ride on the SYN+ACK.
            self.process_payload_and_fin(seg, now, cfg);
        } else {
            // Simultaneous open: respond with SYN+ACK.
            self.state = TcpState::SynRcvd;
            self.snd_nxt = self.iss; // re-emit SYN, now with ACK
            self.ack_now = true;
        }
    }

    fn on_segment_synchronized(&mut self, seg: &TcpSegment, now: SimTime, cfg: &TcpConfig) {
        // --- RFC 793 acceptability test ---
        let wnd = u32::from(self.window(cfg));
        let seg_len = seg.seq_len();
        let rcv_nxt = self.rcv_nxt();
        let acceptable = if seg_len == 0 {
            if wnd == 0 {
                seg.seq == rcv_nxt
            } else {
                seq_le(rcv_nxt, seg.seq) && seq_lt(seg.seq, rcv_nxt.wrapping_add(wnd))
            }
        } else if wnd == 0 {
            false
        } else {
            seq_lt(seg.seq, rcv_nxt.wrapping_add(wnd))
                && seq_gt(seg.seq.wrapping_add(seg_len), rcv_nxt)
        };
        if !acceptable {
            if !seg.flags.contains(TcpFlags::RST) {
                self.ack_now = true; // duplicate ACK / re-ACK of old data
            }
            return;
        }
        if seg.flags.contains(TcpFlags::RST) {
            self.enter_closed(SocketError::Reset);
            return;
        }
        if seg.flags.contains(TcpFlags::SYN) {
            // SYN in window in a synchronized state: a SYN+ACK
            // retransmission (our ACK was lost). Re-ACK it.
            if seg.seq == self.irs {
                self.ack_now = true;
                if !seg.flags.contains(TcpFlags::ACK) {
                    return;
                }
            } else {
                self.enter_closed(SocketError::Reset);
                return;
            }
        }
        if !seg.flags.contains(TcpFlags::ACK) {
            return;
        }
        // --- ACK processing ---
        if self.state == TcpState::SynRcvd {
            if seq_le(seg.ack, self.iss) || seq_gt(seg.ack, self.snd_nxt) {
                return;
            }
            self.state = TcpState::Established;
            self.consecutive_rtx = 0;
            self.snd_wnd = u32::from(seg.window);
            self.snd_wnd_max = self.snd_wnd_max.max(self.snd_wnd);
            self.snd_wl1 = seg.seq;
            self.snd_wl2 = seg.ack;
        }
        self.accept_ack(seg, now);
        self.process_payload_and_fin(seg, now, cfg);
    }

    /// Handles the acknowledgment and window fields of `seg`.
    fn accept_ack(&mut self, seg: &TcpSegment, now: SimTime) {
        let ack = seg.ack;
        if seq_gt(ack, self.snd_max) {
            // Ack of data never sent: re-ACK and ignore.
            self.ack_now = true;
            return;
        }
        if seq_gt(ack, self.snd_una) {
            let acked = seq_diff(ack, self.snd_una) as u32;
            self.snd_una = ack;
            // After a go-back-N rewind, an ACK for data sent before the
            // rewind must also pull SND.NXT forward so we do not resend
            // bytes the peer already has.
            if seq_gt(ack, self.snd_nxt) {
                self.snd_nxt = ack;
            }
            self.send_buf.ack_to(ack);
            self.consecutive_rtx = 0;
            // RTT sample (Karn: sample cleared on retransmission).
            if let Some((sample_seq, sent_at)) = self.rtt_sample {
                if seq_ge(ack, sample_seq) {
                    self.rtt.sample(now.duration_since(sent_at));
                    self.rtt_sample = None;
                }
            }
            // Congestion window growth.
            if self.in_fast_recovery {
                if seq_ge(ack, self.recover) {
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dup_acks = 0;
                } else {
                    // Reno: leave recovery on any new ack as well.
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dup_acks = 0;
                }
            } else {
                let mss = u32::from(self.effective_mss());
                if self.cwnd < self.ssthresh {
                    self.cwnd = self.cwnd.saturating_add(acked.min(mss));
                } else {
                    self.cwnd = self.cwnd.saturating_add((mss * mss / self.cwnd).max(1));
                }
                self.dup_acks = 0;
            }
            // Retransmission timer: restart while data outstanding.
            if seq_lt(self.snd_una, self.snd_nxt) {
                self.rtx_deadline = Some(now + self.rtt.rto());
            } else {
                self.rtx_deadline = None;
            }
            // FIN acknowledged?
            if self.fin_sent && seq_ge(self.snd_una, self.snd_nxt) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + TIME_WAIT);
                    }
                    TcpState::LastAck => self.enter_closed_clean(),
                    _ => {}
                }
            }
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.intersects(TcpFlags::SYN | TcpFlags::FIN)
            && seq_lt(self.snd_una, self.snd_nxt)
            && u32::from(seg.window) == self.snd_wnd
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            let mss = u32::from(self.effective_mss());
            if self.dup_acks == 3 && !self.in_fast_recovery {
                // Fast retransmit + fast recovery entry.
                let flight = seq_diff(self.snd_nxt, self.snd_una) as u32;
                self.ssthresh = (flight / 2).max(2 * mss);
                self.cwnd = self.ssthresh + 3 * mss;
                self.in_fast_recovery = true;
                self.recover = self.snd_nxt;
                self.fast_retransmit_pending = true;
            } else if self.in_fast_recovery {
                self.cwnd = self.cwnd.saturating_add(mss);
            }
        }
        // Window update (RFC 793 p.72).
        if seq_lt(self.snd_wl1, seg.seq) || (self.snd_wl1 == seg.seq && seq_le(self.snd_wl2, ack)) {
            let was_zero = self.snd_wnd == 0;
            self.snd_wnd = u32::from(seg.window);
            self.snd_wnd_max = self.snd_wnd_max.max(self.snd_wnd);
            self.snd_wl1 = seg.seq;
            self.snd_wl2 = ack;
            if was_zero && self.snd_wnd > 0 {
                self.persist_deadline = None;
            }
        }
    }

    /// Handles payload and FIN of an acceptable segment.
    fn process_payload_and_fin(&mut self, seg: &TcpSegment, now: SimTime, cfg: &TcpConfig) {
        if !seg.payload.is_empty()
            && matches!(
                self.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            )
        {
            let advanced = self.rcv_buf.insert(seg.seq, &seg.payload);
            self.segs_since_ack += 1;
            if !advanced || self.rcv_buf.has_holes() {
                // Out-of-order or duplicate: immediate (duplicate) ACK
                // feeds the sender's fast retransmit.
                self.ack_now = true;
            } else if self.segs_since_ack >= 2 {
                self.ack_now = true;
            } else if let Some(delay) = cfg.delayed_ack {
                if self.delack_deadline.is_none() {
                    self.delack_deadline = Some(now + delay);
                }
            } else {
                self.ack_now = true;
            }
        }
        if seg.flags.contains(TcpFlags::FIN) {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if self.remote_fin.is_none() {
                self.remote_fin = Some(fin_seq);
            }
            // The FIN is consumed only when all preceding data arrived.
            if self.rcv_buf.next_seq() == fin_seq {
                self.ack_now = true;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked (else we'd be FinWait2).
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + TIME_WAIT);
                    }
                    _ => {}
                }
            }
        } else if let Some(fin_seq) = self.remote_fin {
            // A hole was just filled; maybe the FIN is now consumable.
            if self.rcv_buf.next_seq() == fin_seq {
                self.ack_now = true;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => self.state = TcpState::Closing,
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + TIME_WAIT);
                    }
                    _ => {}
                }
            }
        }
    }

    fn enter_closed(&mut self, err: SocketError) {
        self.error = Some(err);
        self.enter_closed_clean();
    }

    /// A closed socket holds no timers: `next_deadline()` is `None`, so
    /// the stack's deadline index never visits it again.
    fn enter_closed_clean(&mut self) {
        self.state = TcpState::Closed;
        self.rtx_deadline = None;
        self.persist_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
    }

    // ---------------------------------------------------------------
    // Timers
    // ---------------------------------------------------------------

    /// Advances time: fires retransmission, persist, delayed-ACK and
    /// TIME-WAIT timers that are due.
    pub fn on_tick(&mut self, now: SimTime) {
        if let Some(deadline) = self.timewait_deadline {
            if now >= deadline && self.state == TcpState::TimeWait {
                self.enter_closed_clean();
                return;
            }
        }
        if let Some(deadline) = self.rtx_deadline {
            if now >= deadline {
                self.on_retransmission_timeout(now);
            }
        }
        if let Some(deadline) = self.persist_deadline {
            if now >= deadline {
                self.persist_deadline = None;
                self.zero_window_probe_pending = true;
            }
        }
        if let Some(deadline) = self.delack_deadline {
            if now >= deadline {
                self.delack_deadline = None;
                self.ack_now = true;
            }
        }
    }

    /// Makes an armed retransmission timer due at `now`; returns whether
    /// one was armed. The next [`Socket::on_tick`] then takes the
    /// ordinary expiry path. For a caller that knows what the timer is
    /// waiting to find out: that whatever is in flight went to a peer
    /// that no longer exists (§5 takeover).
    pub(crate) fn expire_retransmission_timer(&mut self, now: SimTime) -> bool {
        let armed = self.rtx_deadline.is_some();
        if armed {
            self.rtx_deadline = Some(now);
        }
        armed
    }

    fn on_retransmission_timeout(&mut self, now: SimTime) {
        // A peer that *closed* its window is alive (it keeps ACKing
        // our probes); persist-style retries never give up (RFC 1122).
        // A peer that never offered one (handshake) still times out.
        let persist_case = self.snd_wnd == 0 && self.snd_wnd_max > 0;
        if !persist_case {
            self.consecutive_rtx += 1;
        }
        if self.consecutive_rtx > MAX_RETRANSMITS {
            self.enter_closed(SocketError::TimedOut);
            return;
        }
        self.rtt.back_off();
        self.rtt_sample = None; // Karn's rule
        let mss = u32::from(self.effective_mss());
        let flight = seq_diff(self.snd_nxt, self.snd_una).max(0) as u32;
        self.ssthresh = (flight / 2).max(2 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        // Go-back-N: rewind and let output() resend.
        self.snd_nxt = self.snd_una;
        self.retransmits += 1;
        self.rto_expiries += 1;
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    // ---------------------------------------------------------------
    // Output
    // ---------------------------------------------------------------

    /// [`Socket::output_encoded`], each segment decoded again: the
    /// structured view tests and tools read.
    pub fn output(&mut self, now: SimTime, cfg: &TcpConfig, out: &mut Vec<TcpSegment>) {
        let mut encoded = Vec::new();
        self.output_encoded(now, cfg, &mut encoded);
        out.extend(
            encoded
                .iter()
                .map(|b| TcpSegment::decode_shared(b).expect("own segment")),
        );
    }

    /// Encodes every segment the connection currently owes the network:
    /// SYN / SYN+ACK, in-window data, FIN, zero-window probes, pure
    /// ACKs and window updates. Each is checksummed for the socket's
    /// own addresses and written once, payload straight from the send
    /// ring.
    pub fn output_encoded(&mut self, now: SimTime, cfg: &TcpConfig, out: &mut Vec<Bytes>) {
        if self.state == TcpState::Closed {
            if self.error == Some(SocketError::Aborted) && !self.rst_sent {
                self.rst_sent = true;
                let rst = TcpSegment::builder(self.tuple.local.port, self.tuple.remote.port)
                    .seq(self.snd_nxt)
                    .ack(self.rcv_nxt())
                    .flags(TcpFlags::RST)
                    .build();
                out.push(rst.encode(self.tuple.local.ip, self.tuple.remote.ip));
            }
            return;
        }
        let before = out.len();
        self.output_handshake(now, cfg, out);
        self.output_data(now, cfg, out);
        self.output_fin(now, cfg, out);
        self.output_probe(now, cfg, out);
        // Pure ACK if nothing else carried it.
        if out.len() == before && self.ack_now && self.state != TcpState::SynSent {
            self.push_segment(TcpFlags::ACK, self.snd_nxt, 0, cfg, out);
        }
        if out.len() > before {
            self.ack_now = false;
            self.segs_since_ack = 0;
            self.delack_deadline = None;
        }
        // Arm the retransmission timer when data/SYN/FIN is in flight.
        if seq_lt(self.snd_una, self.snd_nxt) && self.rtx_deadline.is_none() {
            self.rtx_deadline = Some(now + self.rtt.rto());
        }
    }

    /// Encodes one segment at `seq` whose payload is the `len` bytes of
    /// the send ring from `seq` on, advertising the current window.
    fn push_segment(
        &mut self,
        flags: TcpFlags,
        seq: u32,
        len: usize,
        cfg: &TcpConfig,
        out: &mut Vec<Bytes>,
    ) {
        let wnd = self.window(cfg);
        self.last_wnd_advertised = wnd;
        let mut b = TcpSegment::builder(self.tuple.local.port, self.tuple.remote.port)
            .seq(seq)
            .flags(flags)
            .window(wnd);
        if flags.contains(TcpFlags::ACK) {
            b = b.ack(self.rcv_nxt());
        }
        let (head, tail) = if len == 0 {
            (&[][..], &[][..])
        } else {
            self.send_buf.slices(seq, len)
        };
        let (src, dst) = (self.tuple.local.ip, self.tuple.remote.ip);
        out.push(b.build().encode_with_payload(src, dst, &[head, tail]));
    }

    fn output_handshake(&mut self, now: SimTime, cfg: &TcpConfig, out: &mut Vec<Bytes>) {
        let needs_syn =
            self.snd_nxt == self.iss && matches!(self.state, TcpState::SynSent | TcpState::SynRcvd);
        if !needs_syn {
            return;
        }
        let flags = if self.state == TcpState::SynSent {
            TcpFlags::SYN
        } else {
            TcpFlags::SYN | TcpFlags::ACK
        };
        let wnd = self.window(cfg);
        self.last_wnd_advertised = wnd;
        let mut b = TcpSegment::builder(self.tuple.local.port, self.tuple.remote.port)
            .seq(self.iss)
            .flags(flags)
            .window(wnd)
            .mss(self.mss_local);
        if flags.contains(TcpFlags::ACK) {
            b = b.ack(self.rcv_nxt());
        }
        out.push(b.build().encode(self.tuple.local.ip, self.tuple.remote.ip));
        self.snd_nxt = self.iss.wrapping_add(1);
        self.snd_max = crate::seq::seq_max(self.snd_max, self.snd_nxt);
        if self.rtt_sample.is_none() {
            self.rtt_sample = Some((self.snd_nxt, now));
        }
    }

    fn output_data(&mut self, now: SimTime, cfg: &TcpConfig, out: &mut Vec<Bytes>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        let mss = u32::from(self.effective_mss());
        let data_end = self.send_buf.end_seq();
        loop {
            // Stop at the FIN boundary: data beyond data_end is the FIN.
            if !seq_lt(self.snd_nxt, data_end) {
                break;
            }
            let in_flight = seq_diff(self.snd_nxt, self.snd_una).max(0) as u32;
            let wnd = self.snd_wnd.min(self.cwnd);
            if wnd <= in_flight {
                self.arm_persist_if_stuck(now, in_flight);
                break;
            }
            let usable = wnd - in_flight;
            let avail = seq_diff(data_end, self.snd_nxt) as u32;
            let len = usable.min(avail).min(mss);
            if len == 0 {
                self.arm_persist_if_stuck(now, in_flight);
                break;
            }
            let is_tail = len == avail;
            // Sender-side silly-window avoidance (RFC 1122 / BSD):
            // send a sub-MSS segment only when it is the tail of the
            // buffered data or it fills half the largest window the
            // peer ever offered. Window-limited fragments wait for
            // acknowledgments (or the persist timer).
            if len < mss && !is_tail && usable < (self.snd_wnd_max / 2).max(1) {
                self.arm_persist_if_stuck(now, in_flight);
                break;
            }
            // Nagle: hold a sub-MSS tail while data is in flight.
            if cfg.nagle && len < mss && is_tail && in_flight > 0 && !self.fin_wanted {
                break;
            }
            let is_tail = self.snd_nxt.wrapping_add(len) == data_end;
            let mut flags = TcpFlags::ACK;
            if is_tail {
                flags |= TcpFlags::PSH;
            }
            let seq = self.snd_nxt;
            self.push_segment(flags, seq, len as usize, cfg, out);
            self.snd_nxt = self.snd_nxt.wrapping_add(len);
            self.snd_max = crate::seq::seq_max(self.snd_max, self.snd_nxt);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
        }
        // Fast retransmit: resend the first unacknowledged segment once.
        if self.fast_retransmit_pending {
            self.fast_retransmit_pending = false;
            self.retransmits += 1;
            let avail = seq_diff(data_end, self.snd_una).max(0) as u32;
            let len = avail.min(mss);
            if len > 0 {
                self.push_segment(TcpFlags::ACK, self.snd_una, len as usize, cfg, out);
            } else if self.fin_sent {
                self.push_segment(TcpFlags::FIN | TcpFlags::ACK, self.snd_una, 0, cfg, out);
            }
        }
    }

    fn output_fin(&mut self, _now: SimTime, cfg: &TcpConfig, out: &mut Vec<Bytes>) {
        if !self.fin_wanted {
            return;
        }
        let data_end = self.send_buf.end_seq();
        // FIN goes out only after all data is transmitted, and only when
        // snd_nxt sits exactly at the FIN's sequence (first send or
        // post-rewind retransmission).
        let fin_unacked = !self.fin_sent || seq_le(self.snd_una, data_end);
        if self.snd_nxt != data_end || !fin_unacked {
            return;
        }
        let sendable_state = matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        );
        if !sendable_state {
            return;
        }
        self.push_segment(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, 0, cfg, out);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.snd_max = crate::seq::seq_max(self.snd_max, self.snd_nxt);
        if !self.fin_sent {
            self.fin_sent = true;
            match self.state {
                TcpState::Established => self.state = TcpState::FinWait1,
                TcpState::CloseWait => self.state = TcpState::LastAck,
                _ => {}
            }
        }
    }

    /// Arms the persist timer when output is blocked with nothing in
    /// flight (zero or silly window): only a probe can restart the
    /// conversation.
    fn arm_persist_if_stuck(&mut self, now: SimTime, in_flight: u32) {
        if in_flight == 0 && self.persist_deadline.is_none() && self.rtx_deadline.is_none() {
            self.persist_deadline = Some(now + self.rtt.rto());
        }
    }

    fn output_probe(&mut self, _now: SimTime, cfg: &TcpConfig, out: &mut Vec<Bytes>) {
        if !self.zero_window_probe_pending {
            return;
        }
        self.zero_window_probe_pending = false;
        let data_end = self.send_buf.end_seq();
        if !seq_lt(self.snd_nxt, data_end) {
            return;
        }
        let in_flight = seq_diff(self.snd_nxt, self.snd_una).max(0) as u32;
        if in_flight > 0 {
            return; // acknowledgments are flowing again
        }
        // Force out whatever the window allows; at least one byte even
        // into a zero window (the receiver re-ACKs with its state).
        let avail = seq_diff(data_end, self.snd_nxt) as u32;
        let usable = self.snd_wnd.min(self.cwnd);
        let len = avail
            .min(usable.max(1))
            .min(u32::from(self.effective_mss()));
        self.push_segment(TcpFlags::ACK, self.snd_nxt, len as usize, cfg, out);
        self.snd_nxt = self.snd_nxt.wrapping_add(len);
        self.snd_max = crate::seq::seq_max(self.snd_max, self.snd_nxt);
    }

    /// Earliest pending timer deadline (lets the stack sleep precisely).
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rtx_deadline,
            self.persist_deadline,
            self.delack_deadline,
            self.timewait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SocketAddr;
    use tcpfo_net::time::SimDuration;
    use tcpfo_wire::ipv4::Ipv4Addr;

    fn cfg() -> TcpConfig {
        TcpConfig {
            delayed_ack: None, // deterministic immediate ACKs for tests
            nagle: false,
            ..TcpConfig::default()
        }
    }

    fn tuples() -> (FourTuple, FourTuple) {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
        let b = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 2000);
        (FourTuple::new(a, b), FourTuple::new(b, a))
    }

    /// Drives two sockets against each other until quiescent.
    fn pump(a: &mut Socket, b: &mut Socket, now: SimTime, cfg: &TcpConfig) {
        for _ in 0..200 {
            let mut out_a = Vec::new();
            a.output(now, cfg, &mut out_a);
            let mut out_b = Vec::new();
            b.output(now, cfg, &mut out_b);
            if out_a.is_empty() && out_b.is_empty() {
                return;
            }
            for seg in out_a {
                b.on_segment(&seg, now, cfg);
            }
            for seg in out_b {
                a.on_segment(&seg, now, cfg);
            }
        }
        panic!("pump did not quiesce");
    }

    /// Builds an established pair via a real three-way handshake.
    fn established() -> (Socket, Socket, TcpConfig) {
        let cfg = cfg();
        let (ta, tb) = tuples();
        let now = SimTime::ZERO;
        let mut client = Socket::client(ta, 1_000_000, &cfg);
        let mut syn_out = Vec::new();
        client.output(now, &cfg, &mut syn_out);
        assert_eq!(syn_out.len(), 1);
        assert!(syn_out[0].flags.contains(TcpFlags::SYN));
        assert_eq!(syn_out[0].mss(), Some(1460));
        // The server constructor consumes the SYN; drive the rest.
        let mut server = Socket::server(tb, 5_000_000, &syn_out[0], &cfg);
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
        (client, server, cfg)
    }

    #[test]
    fn three_way_handshake() {
        let (client, server, _) = established();
        assert_eq!(client.effective_mss(), 1460);
        assert_eq!(server.effective_mss(), 1460);
        assert_eq!(client.rcv_nxt(), 5_000_001);
        assert_eq!(server.rcv_nxt(), 1_000_001);
    }

    #[test]
    fn data_transfer_both_directions() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        assert_eq!(client.send(b"hello server"), 12);
        assert_eq!(server.send(b"hello client"), 12);
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.recv(100, &cfg), b"hello server");
        assert_eq!(client.recv(100, &cfg), b"hello client");
        assert_eq!(client.unacked(), 0);
        assert_eq!(server.unacked(), 0);
    }

    #[test]
    fn large_transfer_stream_integrity() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        let msg: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut received = Vec::new();
        let mut rounds = 0;
        while received.len() < msg.len() {
            written += client.send(&msg[written..]);
            pump(&mut client, &mut server, now, &cfg);
            received.extend(server.recv(usize::MAX, &cfg));
            rounds += 1;
            assert!(rounds < 10_000, "transfer stalled at {}", received.len());
        }
        assert_eq!(received, msg);
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(client.unacked(), 0);
        assert_eq!(client.retransmits, 0, "lossless path retransmitted");
    }

    /// Grows the congestion window by transferring warm-up data.
    fn warm_up(client: &mut Socket, server: &mut Socket, cfg: &TcpConfig) {
        let now = SimTime::ZERO;
        for _ in 0..4 {
            client.send(&vec![0u8; 8192]);
            pump(client, server, now, cfg);
            server.recv(usize::MAX, cfg);
        }
    }

    #[test]
    fn orderly_close_four_way() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        client.close();
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.state, TcpState::CloseWait);
        assert_eq!(client.state, TcpState::FinWait2);
        assert!(server.peer_closed());
        server.close();
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.state, TcpState::Closed);
        assert_eq!(client.state, TcpState::TimeWait);
        // TIME-WAIT expires.
        let later = now + TIME_WAIT + SimDuration::from_millis(1);
        client.on_tick(later);
        assert_eq!(client.state, TcpState::Closed);
        assert!(client.error.is_none());
    }

    #[test]
    fn half_close_allows_peer_to_keep_sending() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        client.close();
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.state, TcpState::CloseWait);
        // Server continues sending in the half-closed state (§8).
        server.send(b"late data");
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(client.recv(100, &cfg), b"late data");
        server.close();
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.state, TcpState::Closed);
    }

    #[test]
    fn simultaneous_close_reaches_closing() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        client.close();
        server.close();
        // Exchange FINs "simultaneously": collect both before delivery.
        let mut out_c = Vec::new();
        client.output(now, &cfg, &mut out_c);
        let mut out_s = Vec::new();
        server.output(now, &cfg, &mut out_s);
        assert!(out_c[0].flags.contains(TcpFlags::FIN));
        assert!(out_s[0].flags.contains(TcpFlags::FIN));
        for seg in out_s {
            client.on_segment(&seg, now, &cfg);
        }
        for seg in out_c {
            server.on_segment(&seg, now, &cfg);
        }
        assert_eq!(client.state, TcpState::Closing);
        assert_eq!(server.state, TcpState::Closing);
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(client.state, TcpState::TimeWait);
        assert_eq!(server.state, TcpState::TimeWait);
    }

    #[test]
    fn lost_data_segment_retransmits_on_timeout() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        client.send(b"important");
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        // Segment lost. Fire the retransmission timer.
        let deadline = client.rtx_deadline.expect("rtx armed");
        client.on_tick(deadline);
        let mut out2 = Vec::new();
        client.output(deadline, &cfg, &mut out2);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].payload, out[0].payload);
        assert_eq!(out2[0].seq, out[0].seq);
        assert_eq!(client.retransmits, 1);
        // Deliver and confirm recovery.
        server.on_segment(&out2[0], deadline, &cfg);
        pump(&mut client, &mut server, deadline, &cfg);
        assert_eq!(server.recv(100, &cfg), b"important");
        assert_eq!(client.unacked(), 0);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        warm_up(&mut client, &mut server, &cfg);
        // Send 5 MSS of data as 5 segments.
        let data = vec![7u8; 1460 * 5];
        client.send(&data);
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert!(out.len() >= 4, "got {} segments", out.len());
        // Drop the first segment; deliver the rest one at a time so the
        // receiver emits one duplicate ACK per out-of-order arrival.
        let mut acks = Vec::new();
        for seg in &out[1..] {
            server.on_segment(seg, now, &cfg);
            server.output(now, &cfg, &mut acks);
        }
        assert!(acks.len() >= 3, "server produced {} dup acks", acks.len());
        for ack in &acks {
            assert_eq!(ack.ack, out[0].seq, "dup acks point at the hole");
            client.on_segment(ack, now, &cfg);
        }
        let mut rtx = Vec::new();
        client.output(now, &cfg, &mut rtx);
        assert!(
            rtx.iter().any(|s| s.seq == out[0].seq),
            "fast retransmit resends the missing segment"
        );
        assert!(client.retransmits >= 1);
        // Deliver the retransmission; everything reassembles.
        for seg in &rtx {
            server.on_segment(seg, now, &cfg);
        }
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.recv(usize::MAX, &cfg), data);
    }

    #[test]
    fn zero_window_blocks_then_probe_recovers() {
        let cfg = TcpConfig {
            recv_buffer: 2000,
            delayed_ack: None,
            nagle: false,
            ..TcpConfig::default()
        };
        let (ta, tb) = tuples();
        let mut now = SimTime::ZERO;
        let mut client = Socket::client(ta, 100, &cfg);
        let mut syn = Vec::new();
        client.output(now, &cfg, &mut syn);
        let mut server = Socket::server(tb, 200, &syn[0], &cfg);
        pump(&mut client, &mut server, now, &cfg);
        // Fill the server's tiny receive buffer without reading. The
        // sub-MSS remainder is silly-window-suppressed until the
        // persist timer forces it out, so advance time between pumps.
        client.send(&vec![1u8; 4000]);
        for _ in 0..16 {
            pump(&mut client, &mut server, now, &cfg);
            now += SimDuration::from_millis(1500);
            client.on_tick(now);
            server.on_tick(now);
        }
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.recv_available(), 2000, "window filled");
        assert_eq!(server.window(&cfg), 0);
        assert!(client.unacked() > 0, "sender blocked on zero window");
        // Application reads; window opens; probing resumes transfer.
        let got = server.recv(2000, &cfg);
        assert_eq!(got.len(), 2000);
        for _ in 0..16 {
            pump(&mut client, &mut server, now, &cfg);
            now += SimDuration::from_millis(1500);
            client.on_tick(now);
            server.on_tick(now);
        }
        assert_eq!(server.recv_available(), 2000, "transfer resumed");
        assert_eq!(client.unacked(), 0);
    }

    #[test]
    fn rst_tears_down() {
        let (mut client, mut server, cfg) = established();
        let now = SimTime::ZERO;
        client.abort();
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.contains(TcpFlags::RST));
        server.on_segment(&out[0], now, &cfg);
        assert_eq!(server.state, TcpState::Closed);
        assert_eq!(server.error, Some(SocketError::Reset));
    }

    #[test]
    fn syn_retransmission_after_timeout() {
        let cfg = cfg();
        let (ta, _) = tuples();
        let now = SimTime::ZERO;
        let mut client = Socket::client(ta, 42, &cfg);
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert!(out[0].flags.contains(TcpFlags::SYN));
        let deadline = client.rtx_deadline.unwrap();
        client.on_tick(deadline);
        let mut out2 = Vec::new();
        client.output(deadline, &cfg, &mut out2);
        assert_eq!(out2.len(), 1);
        assert!(out2[0].flags.contains(TcpFlags::SYN));
        assert_eq!(out2[0].seq, 42);
    }

    #[test]
    fn connection_times_out_after_max_retransmits() {
        let cfg = cfg();
        let (ta, _) = tuples();
        let mut client = Socket::client(ta, 42, &cfg);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        for _ in 0..=MAX_RETRANSMITS {
            let deadline = match client.rtx_deadline {
                Some(d) => d,
                None => break,
            };
            now = deadline;
            client.on_tick(now);
            let mut o = Vec::new();
            client.output(now, &cfg, &mut o);
        }
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.error, Some(SocketError::TimedOut));
    }

    #[test]
    fn nagle_holds_small_tail_until_ack() {
        let cfg = TcpConfig {
            delayed_ack: None,
            nagle: true,
            ..TcpConfig::default()
        };
        let (ta, tb) = tuples();
        let now = SimTime::ZERO;
        let mut client = Socket::client(ta, 1, &cfg);
        let mut syn = Vec::new();
        client.output(now, &cfg, &mut syn);
        let mut server = Socket::server(tb, 2, &syn[0], &cfg);
        pump(&mut client, &mut server, now, &cfg);
        // First small write goes out immediately (nothing in flight)…
        client.send(b"tiny");
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        // …second small write is held while the first is unacked.
        client.send(b"more");
        let mut out2 = Vec::new();
        client.output(now, &cfg, &mut out2);
        assert!(out2.is_empty(), "nagle must hold the tail");
        // The ACK releases it.
        server.on_segment(&out[0], now, &cfg);
        let mut acks = Vec::new();
        server.output(now, &cfg, &mut acks);
        for a in &acks {
            client.on_segment(a, now, &cfg);
        }
        let mut out3 = Vec::new();
        client.output(now, &cfg, &mut out3);
        assert_eq!(out3.len(), 1);
        assert_eq!(&out3[0].payload[..], b"more");
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let cfg = TcpConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            nagle: false,
            ..TcpConfig::default()
        };
        let (ta, tb) = tuples();
        let now = SimTime::ZERO;
        let mut client = Socket::client(ta, 1, &cfg);
        let mut syn = Vec::new();
        client.output(now, &cfg, &mut syn);
        let mut server = Socket::server(tb, 2, &syn[0], &cfg);
        pump(&mut client, &mut server, now, &cfg);
        client.send(b"one segment");
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        server.on_segment(&out[0], now, &cfg);
        // No immediate ACK for a single in-order segment…
        let mut acks = Vec::new();
        server.output(now, &cfg, &mut acks);
        assert!(acks.is_empty(), "ack should be delayed");
        // …but the delayed-ack timer produces one.
        let fire = now + SimDuration::from_millis(40);
        server.on_tick(fire);
        server.output(fire, &cfg, &mut acks);
        assert_eq!(acks.len(), 1);
        assert!(acks[0].payload.is_empty());
        assert_eq!(
            acks[0].ack,
            out[0].seq.wrapping_add(out[0].payload.len() as u32)
        );
    }

    #[test]
    fn every_other_segment_acks_immediately() {
        let cfg = TcpConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            nagle: false,
            ..TcpConfig::default()
        };
        let (ta, tb) = tuples();
        let now = SimTime::ZERO;
        let mut client = Socket::client(ta, 1, &cfg);
        let mut syn = Vec::new();
        client.output(now, &cfg, &mut syn);
        let mut server = Socket::server(tb, 2, &syn[0], &cfg);
        pump(&mut client, &mut server, now, &cfg);
        client.send(&vec![9u8; 1460 * 2]);
        let mut out = Vec::new();
        client.output(now, &cfg, &mut out);
        assert_eq!(out.len(), 2);
        server.on_segment(&out[0], now, &cfg);
        server.on_segment(&out[1], now, &cfg);
        let mut acks = Vec::new();
        server.output(now, &cfg, &mut acks);
        assert_eq!(acks.len(), 1, "second full segment forces an ack");
    }

    #[test]
    fn closed_sockets_hold_no_timers() {
        let now = SimTime::ZERO;
        // Clean close through TIME-WAIT expiry.
        let (mut client, mut server, cfg) = established();
        client.close();
        pump(&mut client, &mut server, now, &cfg);
        server.close();
        pump(&mut client, &mut server, now, &cfg);
        assert_eq!(server.state, TcpState::Closed, "LAST-ACK acknowledged");
        assert_eq!(server.next_deadline(), None);
        assert_eq!(client.state, TcpState::TimeWait);
        let expiry = client.next_deadline().expect("2MSL armed");
        client.on_tick(expiry);
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.next_deadline(), None);
        // Reset by the peer with data (and so the rtx timer) in flight.
        let (mut client, mut server, cfg) = established();
        server.send(b"unacknowledged");
        server.output(now, &cfg, &mut Vec::new());
        assert!(server.next_deadline().is_some());
        client.abort();
        let mut rst = Vec::new();
        client.output(now, &cfg, &mut rst);
        server.on_segment(&rst[0], now, &cfg);
        assert_eq!(server.error, Some(SocketError::Reset));
        assert_eq!(server.next_deadline(), None);
        // Retransmissions exhausted.
        let (ta, _) = tuples();
        let mut lonely = Socket::client(ta, 42, &cfg);
        lonely.output(now, &cfg, &mut Vec::new());
        while let Some(deadline) = lonely.next_deadline() {
            lonely.on_tick(deadline);
            lonely.output(deadline, &cfg, &mut Vec::new());
        }
        assert_eq!(lonely.error, Some(SocketError::TimedOut));
    }

    #[test]
    fn tick_after_abort_changes_no_counter() {
        let (mut client, _server, cfg) = established();
        let now = SimTime::ZERO;
        client.send(b"never acknowledged");
        client.output(now, &cfg, &mut Vec::new());
        let rtx = client.next_deadline().expect("rtx armed");
        client.abort();
        assert_eq!(client.next_deadline(), None);
        client.on_tick(rtx + SimDuration::from_secs(60));
        assert_eq!((client.retransmits, client.rto_expiries), (0, 0));
        assert_eq!(client.error, Some(SocketError::Aborted));
    }
}
