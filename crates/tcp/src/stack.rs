//! The per-host TCP stack: demultiplexing, listeners, port and ISN
//! allocation, and the outbox feeding the TCP/IP-boundary filter.
//!
//! The stack is deliberately I/O-free: segments arrive through
//! [`TcpStack::on_segment`] and leave through [`TcpStack::swap_outbox`];
//! the [`crate::host::Host`] device moves them through the
//! [`crate::filter::SegmentFilter`] and the IP layer.
//!
//! An idle connection costs nothing per event: [`TcpStack::on_tick`]
//! visits only sockets that are due, and [`TcpStack::take_ready`] hands
//! an application only the accepted sockets that had an event.

use crate::config::TcpConfig;
use crate::filter::{AddressedSegment, FailoverRule};
use crate::socket::{Socket, TcpState};
use crate::types::{FourTuple, ListenerId, SocketAddr, SocketId};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use tcpfo_net::time::SimTime;
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{verify_segment_checksum, TcpFlags, TcpSegment};

/// Errors returned by stack API calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The port is already bound by a listener.
    AddrInUse,
    /// No ephemeral ports are available.
    PortsExhausted,
    /// The socket handle does not refer to a live socket.
    BadSocket,
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::AddrInUse => f.write_str("address already in use"),
            StackError::PortsExhausted => f.write_str("ephemeral ports exhausted"),
            StackError::BadSocket => f.write_str("invalid socket handle"),
        }
    }
}

impl std::error::Error for StackError {}

/// Initial capacity of the stack's small long-lived lists. Allocated
/// with the stack, not at first use: a tiny allocation that lives as
/// long as the host, made between the large transient buffers of a
/// transfer, fragments the heap (DESIGN §18).
const SCRATCH_CAPACITY: usize = 64;

/// A passive-open endpoint with its accept backlog.
#[derive(Debug)]
struct Listener {
    backlog: VecDeque<SocketId>,
    /// Backlog entries by where they stand ([`Queued`] as index):
    /// `accept` scans only for an entry there is one of.
    queued: [usize; 3],
    failover: bool,
    /// Accepted sockets with an event their owner has not taken yet.
    ready: Vec<SocketId>,
}

/// Where a socket in its listener's backlog stands, as the listener's
/// counts have it. One that closed there is reaped by the next `accept`:
/// nothing else would release it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queued {
    Handshake,
    Established,
    Closed,
}

/// A live socket and what the stack tracks about it between events.
struct Slot {
    sock: Socket,
    /// The listener this connection arrived on; `None` for
    /// `connect()`-side sockets, which applications poll themselves.
    owner: Option<ListenerId>,
    /// Already on the owner's ready list.
    ready: bool,
    /// Where it stands in its listener's backlog; `None` once accepted
    /// (or if it never was in one).
    queued: Option<Queued>,
    /// Earliest deadline this socket has a live entry for in
    /// [`TcpStack::timers`]; never later than its `next_deadline()`.
    armed: Option<SimTime>,
    /// `(snd_wnd, cwnd)` as counted in [`Windows`]; `Some` while
    /// established.
    window: Option<(u32, u32)>,
}

/// What one tick's window telemetry samples, kept current as sockets
/// change so that reading it never walks the socket table.
#[derive(Default)]
struct Windows {
    /// Sum of the peer-advertised windows of established sockets.
    snd_wnd_sum: u64,
    /// Their congestion windows: value → how many sockets hold it.
    cwnd: BTreeMap<u32, u32>,
}

impl Windows {
    /// What `sock` contributes: `(snd_wnd, cwnd)` while established.
    fn sample(sock: &Socket) -> Option<(u32, u32)> {
        sock.is_established().then(|| (sock.snd_wnd(), sock.cwnd()))
    }

    fn replace(&mut self, old: Option<(u32, u32)>, new: Option<(u32, u32)>) {
        if let Some((wnd, cwnd)) = old {
            self.snd_wnd_sum -= u64::from(wnd);
            let n = self.cwnd.get_mut(&cwnd).expect("counted when added");
            *n -= 1;
            if *n == 0 {
                self.cwnd.remove(&cwnd);
            }
        }
        if let Some((wnd, cwnd)) = new {
            self.snd_wnd_sum += u64::from(wnd);
            *self.cwnd.entry(cwnd).or_insert(0) += 1;
        }
    }
}

/// Deterministic ISN: a hash of the stack seed and the 4-tuple, so a
/// replica deterministically re-derives the same ISN for the same
/// connection regardless of arrival interleaving — while replicas with
/// *different* seeds produce different ISNs (giving a non-trivial
/// `Δseq` for the bridge to compensate, §3.3).
fn initial_sequence(seed: u64, tuple: &FourTuple) -> u32 {
    let mut x = seed
        ^ (u64::from(u32::from(tuple.local.ip)) << 32)
        ^ (u64::from(u32::from(tuple.remote.ip)))
        ^ (u64::from(tuple.local.port) << 48)
        ^ (u64::from(tuple.remote.port) << 16);
    // splitmix64 finaliser.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x as u32
}

/// The TCP stack of one host.
///
/// # Example
///
/// ```
/// use tcpfo_net::time::SimTime;
/// use tcpfo_tcp::config::TcpConfig;
/// use tcpfo_tcp::stack::TcpStack;
/// use tcpfo_tcp::types::SocketAddr;
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// // Two stacks wired back to back (no simulator needed for a demo).
/// let now = SimTime::ZERO;
/// let (a_ip, b_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
/// let mut server = TcpStack::new(TcpConfig::default().with_isn_seed(1));
/// let listener = server.listen(80, false)?;
/// let mut client = TcpStack::new(TcpConfig::default().with_isn_seed(2));
/// let conn = client.connect(a_ip, SocketAddr::new(b_ip, 80), false, now)?;
/// // Shuttle segments until the handshake settles.
/// for _ in 0..8 {
///     for seg in client.take_outbox() { server.on_segment(&seg, now); }
///     for seg in server.take_outbox() { client.on_segment(&seg, now); }
/// }
/// assert!(client.socket(conn).unwrap().is_established());
/// assert!(server.accept(listener).is_some());
/// # Ok::<(), tcpfo_tcp::stack::StackError>(())
/// ```
pub struct TcpStack {
    cfg: TcpConfig,
    sockets: Vec<Option<Slot>>,
    /// Vacated slots; a new socket takes the lowest, because `SocketId`
    /// order decides which of two replies reaches the wire first.
    free: BinaryHeap<Reverse<usize>>,
    demux: HashMap<FourTuple, usize>,
    listeners: Vec<Listener>,
    listener_by_port: HashMap<u16, ListenerId>,
    /// The deadline index: `(deadline, slot)`, earliest first. Lazy: an
    /// entry is added only when a socket's deadline moves *earlier*
    /// than its [`Slot::armed`] one and re-validated when it comes due,
    /// so the per-ACK restart of the retransmission timer never touches
    /// the heap.
    timers: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Scratch: the slots due in the current tick.
    due: Vec<usize>,
    /// Scratch: the segments of one `Socket::output` call.
    segs: Vec<Bytes>,
    windows: Windows,
    next_ephemeral: u16,
    outbox: Vec<AddressedSegment>,
    /// Ports designated for failover by configuration (§7 method 2).
    failover_ports: HashSet<u16>,
    /// Designations newly made via the socket option (§7 method 1),
    /// drained by the host into the filter. A failover *listener*
    /// designates its port (the bridges must recognise SYNs before any
    /// socket exists); a failover *connect* designates its 4-tuple.
    pub(crate) pending_designations: Vec<FailoverRule>,
    /// Segments dropped due to bad checksums (observability — a bridge
    /// bug would show up here first).
    pub checksum_drops: u64,
    /// Segments that matched no socket and were answered with RST.
    pub rst_sent: u64,
    /// Sockets [`TcpStack::on_tick`] has visited because a timer was due.
    pub timer_visits: u64,
    /// [`TcpStack::send`] calls: each runs the output routine, so how an
    /// application splits its writes shows on the wire.
    pub send_calls: u64,
    /// Segments retransmitted by every socket this stack ever held.
    retransmits: u64,
    /// Retransmission-timer expiries, likewise.
    rto_expiries: u64,
}

impl TcpStack {
    /// Creates a stack.
    pub fn new(cfg: TcpConfig) -> Self {
        let next_ephemeral = cfg.ephemeral_start;
        TcpStack {
            cfg,
            sockets: Vec::new(),
            free: BinaryHeap::with_capacity(SCRATCH_CAPACITY),
            demux: HashMap::new(),
            listeners: Vec::new(),
            listener_by_port: HashMap::new(),
            timers: BinaryHeap::with_capacity(SCRATCH_CAPACITY),
            due: Vec::with_capacity(SCRATCH_CAPACITY),
            segs: Vec::with_capacity(SCRATCH_CAPACITY),
            windows: Windows::default(),
            next_ephemeral,
            outbox: Vec::new(),
            failover_ports: HashSet::new(),
            pending_designations: Vec::new(),
            checksum_drops: 0,
            rst_sent: 0,
            timer_visits: 0,
            send_calls: 0,
            retransmits: 0,
            rto_expiries: 0,
        }
    }

    /// The stack's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Adds `port` to the failover port set (§7 method 2). The same
    /// set must be configured on the primary and the secondary.
    pub fn add_failover_port(&mut self, port: u16) {
        self.failover_ports.insert(port);
    }

    // ---------------------------------------------------------------
    // Socket API
    // ---------------------------------------------------------------

    /// Opens a listener on `port`. With `failover`, every accepted
    /// connection is designated a failover connection (§7 method 1).
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the port is already listening.
    pub fn listen(&mut self, port: u16, failover: bool) -> Result<ListenerId, StackError> {
        if self.listener_by_port.contains_key(&port) {
            return Err(StackError::AddrInUse);
        }
        if failover {
            // The socket option on a listening socket designates every
            // connection it will accept — the bridges must treat the
            // port as a failover port from this moment (the secondary
            // has to claim the very first client SYN).
            self.pending_designations.push(FailoverRule::Port(port));
            self.failover_ports.insert(port);
        }
        let id = ListenerId(self.listeners.len());
        self.listeners.push(Listener {
            backlog: VecDeque::new(),
            queued: [0; 3],
            failover,
            ready: Vec::with_capacity(SCRATCH_CAPACITY),
        });
        self.listener_by_port.insert(port, id);
        Ok(id)
    }

    /// Dequeues the oldest established connection from a listener's
    /// backlog, after reaping the entries that closed unaccepted.
    pub fn accept(&mut self, listener: ListenerId) -> Option<SocketId> {
        let first = |stack: &Self, q| {
            let mut backlog = stack.listeners[listener.0].backlog.iter().copied();
            backlog.find(|id| {
                stack.sockets[id.0]
                    .as_ref()
                    .is_some_and(|s| s.queued == Some(q))
            })
        };
        while self.listeners.get(listener.0)?.queued[Queued::Closed as usize] > 0 {
            self.reap(first(self, Queued::Closed)?);
        }
        if self.listeners[listener.0].queued[Queued::Established as usize] == 0 {
            return None;
        }
        let id = first(self, Queued::Established)?;
        let l = &mut self.listeners[listener.0];
        l.backlog.retain(|&q| q != id);
        l.queued[Queued::Established as usize] -= 1;
        self.sockets[id.0].as_mut()?.queued = None;
        Some(id)
    }

    /// Appends to `out` every connection of `listener` that had a stack
    /// event (a segment demultiplexed to it, a timer that fired) since
    /// the last call, in no particular order. [`crate::app`] has the
    /// contract.
    pub fn take_ready(&mut self, listener: ListenerId, out: &mut Vec<SocketId>) {
        let Some(l) = self.listeners.get_mut(listener.0) else {
            return;
        };
        for id in l.ready.drain(..) {
            // The slot may have been released, and reused, since.
            if let Some(slot) = self.sockets[id.0].as_mut() {
                if slot.owner == Some(listener) {
                    slot.ready = false;
                    out.push(id);
                }
            }
        }
    }

    /// Initiates an active open from `local_ip` to `remote`.
    ///
    /// # Errors
    ///
    /// [`StackError::PortsExhausted`] when no ephemeral port is free.
    pub fn connect(
        &mut self,
        local_ip: Ipv4Addr,
        remote: SocketAddr,
        failover: bool,
        now: SimTime,
    ) -> Result<SocketId, StackError> {
        self.connect_from(local_ip, None, remote, failover, now)
    }

    /// Initiates an active open binding a specific local port (e.g.
    /// FTP's active-mode data connections originate from port 20).
    /// `None` allocates a deterministic ephemeral port.
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the explicit 4-tuple is taken;
    /// [`StackError::PortsExhausted`] when no ephemeral port is free.
    pub fn connect_from(
        &mut self,
        local_ip: Ipv4Addr,
        local_port: Option<u16>,
        remote: SocketAddr,
        failover: bool,
        now: SimTime,
    ) -> Result<SocketId, StackError> {
        let port = match local_port {
            Some(p) => {
                let tuple = FourTuple::new(SocketAddr::new(local_ip, p), remote);
                if self.demux.contains_key(&tuple) {
                    return Err(StackError::AddrInUse);
                }
                p
            }
            None => self.alloc_ephemeral(local_ip, remote)?,
        };
        let tuple = FourTuple::new(SocketAddr::new(local_ip, port), remote);
        let iss = initial_sequence(self.cfg.isn_seed, &tuple);
        let mut sock = Socket::client(tuple, iss, &self.cfg);
        // Server-initiated failover connections (§7.2) are designated
        // by *our* port (e.g. FTP data port 20); outbound connections
        // to a replicated service by the remote port.
        let designated = failover
            || self.failover_ports.contains(&remote.port)
            || self.failover_ports.contains(&port);
        sock.failover = designated;
        if designated {
            self.pending_designations.push(FailoverRule::Tuple(tuple));
        }
        let id = self.insert_socket(sock, None);
        self.run_output(id, now);
        Ok(id)
    }

    /// Adopts a mid-connection flow from a reprovisioning handoff (PR9
    /// chain catch-up): the socket is synthesised `Established` at the
    /// snapshot's sequence positions — no handshake, no SYN on the
    /// wire — and designated for failover so the local bridge diverts
    /// everything it produces. It belongs to the listener on its local
    /// port, as if accepted there.
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the 4-tuple is already tracked.
    pub fn adopt(
        &mut self,
        local: SocketAddr,
        remote: SocketAddr,
        snd_nxt: u32,
        rcv_nxt: u32,
        peer_mss: u16,
        peer_wnd: u16,
    ) -> Result<SocketId, StackError> {
        let tuple = FourTuple::new(local, remote);
        if self.demux.contains_key(&tuple) {
            return Err(StackError::AddrInUse);
        }
        let sock = Socket::adopted(tuple, snd_nxt, rcv_nxt, peer_mss, peer_wnd, &self.cfg);
        self.pending_designations.push(FailoverRule::Tuple(tuple));
        let owner = self.listener_by_port.get(&local.port).copied();
        Ok(self.insert_socket(sock, owner))
    }

    /// Writes bytes; returns how many were accepted into the send
    /// buffer (the paper's §9 send-call semantics).
    pub fn send(&mut self, id: SocketId, data: &[u8], now: SimTime) -> Result<usize, StackError> {
        self.send_calls += 1;
        let n = self.socket_mut(id)?.send(data);
        self.run_output(id, now);
        Ok(n)
    }

    /// Reads up to `max` bytes of in-order data. A read that finds
    /// nothing changes nothing, so it runs no output pass (every socket
    /// mutation already ended in one).
    pub fn recv(&mut self, id: SocketId, max: usize, now: SimTime) -> Result<Vec<u8>, StackError> {
        let slot = self.sockets.get_mut(id.0).and_then(|s| s.as_mut());
        let sock = &mut slot.ok_or(StackError::BadSocket)?.sock;
        if max == 0 || sock.recv_available() == 0 {
            return Ok(Vec::new());
        }
        let data = sock.recv(max, &self.cfg);
        self.run_output(id, now); // may emit a window update
        Ok(data)
    }

    /// Half-closes the send direction (FIN after queued data).
    pub fn close(&mut self, id: SocketId, now: SimTime) -> Result<(), StackError> {
        self.socket_mut(id)?.close();
        self.run_output(id, now);
        Ok(())
    }

    /// Aborts with RST.
    pub fn abort(&mut self, id: SocketId, now: SimTime) -> Result<(), StackError> {
        self.socket_mut(id)?.abort();
        self.run_output(id, now);
        self.reap(id);
        Ok(())
    }

    /// Releases a socket handle the application is done with. Closed
    /// and TIME-WAIT sockets are reaped silently; live ones are
    /// aborted (RST) first.
    pub fn release(&mut self, id: SocketId, now: SimTime) {
        if let Ok(sock) = self.socket_mut(id) {
            if !matches!(sock.state, TcpState::Closed | TcpState::TimeWait) {
                sock.abort();
                self.run_output(id, now);
            }
        }
        self.reap(id);
    }

    /// Immutable access to a socket (state queries).
    pub fn socket(&self, id: SocketId) -> Option<&Socket> {
        self.sockets.get(id.0)?.as_ref().map(|s| &s.sock)
    }

    fn socket_mut(&mut self, id: SocketId) -> Result<&mut Socket, StackError> {
        self.sockets
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .map(|s| &mut s.sock)
            .ok_or(StackError::BadSocket)
    }

    /// Iterates over the ids of all live sockets.
    pub fn socket_ids(&self) -> Vec<SocketId> {
        self.sockets
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| SocketId(i)))
            .collect()
    }

    // ---------------------------------------------------------------
    // Segment input / timers / outbox
    // ---------------------------------------------------------------

    /// Processes a TCP segment addressed to this stack. The checksum is
    /// verified against the addressed pair (bridge-patched segments must
    /// still verify — this catches incremental-checksum bugs).
    pub fn on_segment(&mut self, seg: &AddressedSegment, now: SimTime) {
        if !verify_segment_checksum(seg.src, seg.dst, &seg.bytes) {
            self.checksum_drops += 1;
            return;
        }
        let Ok(parsed) = TcpSegment::decode_shared(&seg.bytes) else {
            self.checksum_drops += 1;
            return;
        };
        let tuple = FourTuple::new(
            SocketAddr::new(seg.dst, parsed.dst_port),
            SocketAddr::new(seg.src, parsed.src_port),
        );
        if let Some(&idx) = self.demux.get(&tuple) {
            let id = SocketId(idx);
            if let Some(slot) = self.sockets[idx].as_mut() {
                slot.sock.on_segment(&parsed, now, &self.cfg);
                self.run_output(id, now);
                self.maybe_undemux(id);
                self.mark_ready(id);
            }
            return;
        }
        // New connection?
        if parsed.flags.contains(TcpFlags::SYN) && !parsed.flags.contains(TcpFlags::ACK) {
            if let Some(&listener) = self.listener_by_port.get(&parsed.dst_port) {
                let iss = initial_sequence(self.cfg.isn_seed, &tuple);
                let mut sock = Socket::server(tuple, iss, &parsed, &self.cfg);
                let designated = self.listeners[listener.0].failover
                    || self.failover_ports.contains(&parsed.dst_port);
                sock.failover = designated;
                if designated {
                    self.pending_designations.push(FailoverRule::Tuple(tuple));
                }
                let id = self.insert_socket(sock, Some(listener));
                if let Some(slot) = self.sockets[id.0].as_mut() {
                    slot.queued = Some(Queued::Handshake);
                }
                let l = &mut self.listeners[listener.0];
                l.backlog.push_back(id);
                l.queued[Queued::Handshake as usize] += 1;
                self.run_output(id, now);
                return;
            }
        }
        // No socket, no listener: RST (RFC 793), unless it is an RST.
        if !parsed.flags.contains(TcpFlags::RST) {
            self.rst_sent += 1;
            let mut b = TcpSegment::builder(parsed.dst_port, parsed.src_port).flags(TcpFlags::RST);
            if parsed.flags.contains(TcpFlags::ACK) {
                b = b.seq(parsed.ack);
            } else {
                b = b.ack(parsed.seq.wrapping_add(parsed.seq_len()));
            }
            let rst = b.build();
            let bytes = rst.encode(seg.dst, seg.src);
            self.outbox
                .push(AddressedSegment::new(seg.dst, seg.src, bytes));
        }
    }

    /// Fires the timers that are due at `now`, visiting only the sockets
    /// that own one, in ascending `SocketId` order.
    ///
    /// Deadlines are not rounded: a timer fires in the first tick whose
    /// `now` has reached it, exactly as when every socket was asked on
    /// every tick. A socket that is not due owes the network nothing —
    /// `Socket::output` is a fixed point after every mutation — which is
    /// why it can be skipped.
    pub fn on_tick(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((deadline, idx))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            let Some(slot) = self.sockets[idx].as_mut() else {
                continue; // released since
            };
            if slot.armed != Some(deadline) {
                continue; // superseded by an earlier entry, or the slot was reused
            }
            slot.armed = None;
            match slot.sock.next_deadline() {
                Some(d) if d <= now => due.push(idx),
                // The deadline moved later after this entry was made.
                Some(d) => {
                    slot.armed = Some(d);
                    self.timers.push(Reverse((d, idx)));
                }
                None => {}
            }
        }
        due.sort_unstable();
        if cfg!(debug_assertions) {
            for (idx, slot) in self.sockets.iter().enumerate() {
                let deadline = slot.as_ref().and_then(|s| s.sock.next_deadline());
                debug_assert!(
                    deadline.is_none_or(|d| d > now) || due.binary_search(&idx).is_ok(),
                    "socket {idx} is due at {deadline:?} but the timer index missed it at {now:?}"
                );
            }
        }
        for &idx in &due {
            let Some(slot) = self.sockets[idx].as_mut() else {
                continue;
            };
            self.timer_visits += 1;
            let sock = &mut slot.sock;
            let before = (sock.retransmits, sock.rto_expiries);
            sock.on_tick(now);
            self.retransmits += sock.retransmits - before.0;
            self.rto_expiries += sock.rto_expiries - before.1;
            let id = SocketId(idx);
            self.run_output(id, now);
            self.maybe_undemux(id);
            // TIME-WAIT expiry and RTO give-up end in `Closed`: the
            // owner must hear of it to release the handle.
            self.mark_ready(id);
        }
        due.clear();
        self.due = due;
    }

    /// Takes every segment the stack wants transmitted.
    pub fn take_outbox(&mut self) -> Vec<AddressedSegment> {
        std::mem::take(&mut self.outbox)
    }

    /// Moves every segment the stack wants transmitted into `into`,
    /// which must be empty: the two vectors trade storage, so a caller
    /// that keeps `into` between calls keeps both allocations warm.
    pub fn swap_outbox(&mut self, into: &mut Vec<AddressedSegment>) {
        debug_assert!(into.is_empty(), "swap_outbox into a non-empty vector");
        std::mem::swap(&mut self.outbox, into);
    }

    /// Drains newly made designations (socket-option method), keeping
    /// the list's allocation.
    pub fn drain_designations(&mut self) -> std::vec::Drain<'_, FailoverRule> {
        self.pending_designations.drain(..)
    }

    /// Re-keys every *failover* socket bound to `old` onto `new`.
    ///
    /// This is the clarified final step of IP takeover (§5): after the
    /// secondary takes over `a_p`, its TCBs — keyed by `a_s` while the
    /// bridge translated addresses — must answer to `a_p`. On the wire
    /// nothing changes: sequence numbers, ACKs and windows are already
    /// the ones the client has seen all along.
    pub fn rebind_local_ip(&mut self, old: Ipv4Addr, new: Ipv4Addr) -> usize {
        let mut rebound = 0;
        let mut updates = Vec::new();
        for (tuple, &idx) in &self.demux {
            if tuple.local.ip == old {
                if let Some(slot) = self.sockets[idx].as_ref() {
                    if slot.sock.failover {
                        updates.push((*tuple, idx));
                    }
                }
            }
        }
        for (old_tuple, idx) in updates {
            self.demux.remove(&old_tuple);
            let mut new_tuple = old_tuple;
            new_tuple.local.ip = new;
            if let Some(slot) = self.sockets[idx].as_mut() {
                slot.sock.tuple = new_tuple;
            }
            self.demux.insert(new_tuple, idx);
            rebound += 1;
        }
        rebound
    }

    /// Makes the retransmission timer due at `now` on every *failover*
    /// socket that has one armed, and returns how many that was.
    ///
    /// The other thing only the control plane knows at an IP takeover
    /// (§5): everything these sockets have in flight was diverted to a
    /// replica that is dead, so the acknowledgment the timer waits for
    /// cannot come. [`TcpStack::on_tick`] runs the ordinary expiry —
    /// go-back-N from `snd_una`, back-off, window collapse — here and
    /// now, not one backed-off RTO later and not at the next tick: an ACK
    /// of older data landing before it restarts the timer and undoes the
    /// kick. A socket with nothing in flight has no timer armed and is
    /// left alone.
    pub fn expire_failover_retransmission_timers(&mut self, now: SimTime) -> usize {
        let mut expired = 0;
        for (idx, slot) in self.sockets.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            if !slot.sock.failover || !slot.sock.expire_retransmission_timer(now) {
                continue;
            }
            if slot.armed.is_none_or(|armed| now < armed) {
                slot.armed = Some(now);
                self.timers.push(Reverse((now, idx)));
            }
            expired += 1;
        }
        self.on_tick(now);
        expired
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    fn insert_socket(&mut self, sock: Socket, owner: Option<ListenerId>) -> SocketId {
        let idx = self.free.pop().map_or(self.sockets.len(), |Reverse(i)| i);
        if idx == self.sockets.len() {
            self.sockets.push(None);
        }
        self.demux.insert(sock.tuple, idx);
        // An adopted socket is born established.
        let window = Windows::sample(&sock);
        self.windows.replace(None, window);
        self.sockets[idx] = Some(Slot {
            sock,
            owner,
            ready: false,
            queued: None,
            armed: None,
            window,
        });
        SocketId(idx)
    }

    /// Runs the socket's output routine and encodes results into the
    /// outbox. Every mutation of a socket ends here, so this is also
    /// where the stack's views of it are brought up to date: the
    /// retransmit total, the deadline index and the window telemetry.
    fn run_output(&mut self, id: SocketId, now: SimTime) {
        let Some(slot) = self.sockets.get_mut(id.0).and_then(|s| s.as_mut()) else {
            return;
        };
        let sock = &mut slot.sock;
        let before = sock.retransmits;
        sock.output_encoded(now, &self.cfg, &mut self.segs);
        self.retransmits += sock.retransmits - before;
        let (src, dst) = (sock.tuple.local.ip, sock.tuple.remote.ip);
        for bytes in self.segs.drain(..) {
            self.outbox.push(AddressedSegment::new(src, dst, bytes));
        }
        if let Some(deadline) = sock.next_deadline() {
            if slot.armed.is_none_or(|armed| deadline < armed) {
                slot.armed = Some(deadline);
                self.timers.push(Reverse((deadline, id.0)));
            }
        }
        let window = Windows::sample(sock);
        if window != slot.window {
            self.windows.replace(slot.window, window);
            slot.window = window;
        }
        if let (Some(was), Some(owner)) = (slot.queued, slot.owner) {
            let now = match sock.state {
                _ if sock.is_established() => Queued::Established,
                TcpState::Closed => Queued::Closed,
                _ => Queued::Handshake,
            };
            let counts = &mut self.listeners[owner.0].queued;
            counts[was as usize] -= 1;
            counts[now as usize] += 1;
            slot.queued = Some(now);
        }
    }

    /// Queues an accepted socket for its listener's owner.
    fn mark_ready(&mut self, id: SocketId) {
        let Some(slot) = self.sockets[id.0].as_mut() else {
            return;
        };
        let Some(owner) = slot.owner else {
            return;
        };
        if !slot.ready {
            slot.ready = true;
            self.listeners[owner.0].ready.push(id);
        }
    }

    /// Removes the demux entry once a socket is fully closed so the
    /// tuple can be reused; the socket object stays until released.
    fn maybe_undemux(&mut self, id: SocketId) {
        if let Some(sock) = self.socket(id) {
            if sock.state == TcpState::Closed {
                let tuple = sock.tuple;
                self.demux.remove(&tuple);
            }
        }
    }

    fn reap(&mut self, id: SocketId) {
        if let Some(slot) = self.sockets.get_mut(id.0).and_then(|s| s.take()) {
            if let (Some(was), Some(owner)) = (slot.queued, slot.owner) {
                let l = &mut self.listeners[owner.0];
                l.queued[was as usize] -= 1;
                l.backlog.retain(|&q| q != id);
            }
            self.demux.remove(&slot.sock.tuple);
            self.windows.replace(slot.window, None);
            self.free.push(Reverse(id.0));
        }
    }

    /// Segments retransmitted across all sockets, including ones that
    /// have since been released (monotone over the stack's lifetime).
    pub fn total_retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Retransmission-timer expiries across all sockets, including
    /// released ones (monotone over the stack's lifetime).
    pub fn total_rto_expiries(&self) -> u64 {
        self.rto_expiries
    }

    /// What one tick of window telemetry samples: the sum of the
    /// peer-advertised windows of all established sockets, and their
    /// congestion windows as ascending `(cwnd, sockets)` pairs.
    pub fn established_windows(&self) -> (u64, impl Iterator<Item = (u32, u32)> + '_) {
        let w = &self.windows;
        (w.snd_wnd_sum, w.cwnd.iter().map(|(&v, &n)| (v, n)))
    }

    fn alloc_ephemeral(
        &mut self,
        local_ip: Ipv4Addr,
        remote: SocketAddr,
    ) -> Result<u16, StackError> {
        let start = self.next_ephemeral;
        loop {
            let port = self.next_ephemeral;
            self.next_ephemeral = if port == u16::MAX {
                self.cfg.ephemeral_start
            } else {
                port + 1
            };
            let tuple = FourTuple::new(SocketAddr::new(local_ip, port), remote);
            if !self.demux.contains_key(&tuple) {
                return Ok(port);
            }
            if self.next_ephemeral == start {
                return Err(StackError::PortsExhausted);
            }
        }
    }

    /// Test/bench helper: delivers a raw already-encoded segment.
    pub fn inject(&mut self, src: Ipv4Addr, dst: Ipv4Addr, seg: &TcpSegment, now: SimTime) {
        let bytes = seg.encode(src, dst);
        self.on_segment(&AddressedSegment::new(src, dst, bytes), now);
    }

    /// Test helper: the parsed segments currently in the outbox,
    /// without draining it.
    pub fn peek_outbox(&self) -> Vec<(Ipv4Addr, Ipv4Addr, TcpSegment)> {
        self.outbox
            .iter()
            .map(|s| {
                (
                    s.src,
                    s.dst,
                    TcpSegment::decode(&s.bytes).expect("own segment"),
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack")
            .field("sockets", &self.sockets.iter().flatten().count())
            .field("listeners", &self.listeners.len())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketError;
    use bytes::Bytes as B;
    use tcpfo_net::time::SimDuration;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn cfg(seed: u64) -> TcpConfig {
        TcpConfig {
            delayed_ack: None,
            nagle: false,
            ..TcpConfig::default().with_isn_seed(seed)
        }
    }

    /// Moves outbox segments from one stack into the other.
    fn exchange(a: &mut TcpStack, b: &mut TcpStack, now: SimTime) {
        for _ in 0..400 {
            let from_a = a.take_outbox();
            let from_b = b.take_outbox();
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for seg in from_a {
                b.on_segment(&seg, now);
            }
            for seg in from_b {
                a.on_segment(&seg, now);
            }
        }
        panic!("exchange did not quiesce");
    }

    fn connected_pair() -> (TcpStack, SocketId, TcpStack, SocketId) {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let ss = server.accept(listener).expect("accepted");
        assert!(client.socket(cs).unwrap().is_established());
        assert!(server.socket(ss).unwrap().is_established());
        (client, cs, server, ss)
    }

    #[test]
    fn listen_connect_accept_transfer() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.send(cs, b"ping", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.recv(ss, 100, now).unwrap(), b"ping");
        server.send(ss, b"pong", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(client.recv(cs, 100, now).unwrap(), b"pong");
    }

    #[test]
    fn duplicate_listen_rejected() {
        let mut s = TcpStack::new(cfg(1));
        s.listen(80, false).unwrap();
        assert_eq!(s.listen(80, false).unwrap_err(), StackError::AddrInUse);
        s.listen(81, false).unwrap();
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 9999), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.rst_sent, 1);
        let sock = client.socket(cs).unwrap();
        assert_eq!(sock.state, TcpState::Closed);
        assert_eq!(sock.error, Some(SocketError::Reset));
    }

    #[test]
    fn checksum_corruption_dropped() {
        let now = SimTime::ZERO;
        let (mut client, _cs, mut server, _ss) = connected_pair();
        client.send(SocketId(0), b"data", now).unwrap();
        let mut segs = client.take_outbox();
        assert_eq!(segs.len(), 1);
        let mut corrupted = segs[0].bytes.to_vec();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        segs[0].bytes = corrupted.into();
        server.on_segment(&segs[0], now);
        assert_eq!(server.checksum_drops, 1);
    }

    #[test]
    fn deterministic_isns_differ_across_seeds() {
        let t = FourTuple::new(SocketAddr::new(A, 1000), SocketAddr::new(B_IP, 80));
        assert_eq!(initial_sequence(1, &t), initial_sequence(1, &t));
        assert_ne!(initial_sequence(1, &t), initial_sequence(2, &t));
        let t2 = FourTuple::new(SocketAddr::new(A, 1001), SocketAddr::new(B_IP, 80));
        assert_ne!(initial_sequence(1, &t), initial_sequence(1, &t2));
    }

    #[test]
    fn ephemeral_ports_deterministic_across_replicas() {
        // Two stacks with the same ephemeral_start allocate the same
        // ports for the same sequence of connects — required for
        // server-initiated failover connections (§7.2).
        let now = SimTime::ZERO;
        let mut p = TcpStack::new(cfg(1));
        let mut s = TcpStack::new(cfg(2));
        for _ in 0..5 {
            let a = p
                .connect(A, SocketAddr::new(B_IP, 5432), false, now)
                .unwrap();
            let b = s
                .connect(B_IP, SocketAddr::new(A, 5432), false, now)
                .unwrap();
            assert_eq!(
                p.socket(a).unwrap().tuple.local.port,
                s.socket(b).unwrap().tuple.local.port
            );
        }
    }

    #[test]
    fn failover_designation_via_port_set() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.add_failover_port(80);
        server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let des: Vec<_> = server.drain_designations().collect();
        assert_eq!(des.len(), 1);
        assert!(matches!(des[0], FailoverRule::Tuple(t) if t.local.port == 80));
    }

    #[test]
    fn failover_designation_via_socket_option() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(443, true).unwrap(); // listener opts in
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 443), true, now) // client opts in
            .unwrap();
        assert_eq!(client.drain_designations().count(), 1);
        exchange(&mut client, &mut server, now);
        // The listener designated its port at listen() time, and the
        // accepted connection adds its tuple.
        let des: Vec<_> = server.drain_designations().collect();
        assert_eq!(des.len(), 2, "{des:?}");
        assert!(matches!(des[0], FailoverRule::Port(443)));
        assert!(matches!(des[1], FailoverRule::Tuple(_)));
        assert!(client.socket(cs).unwrap().failover);
    }

    #[test]
    fn orderly_close_and_tuple_reuse() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.close(cs, now).unwrap();
        exchange(&mut client, &mut server, now);
        server.close(ss, now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.socket(ss).unwrap().state, TcpState::Closed);
        assert_eq!(client.socket(cs).unwrap().state, TcpState::TimeWait);
        // TIME-WAIT expiry frees the tuple.
        let later = now + crate::config::TIME_WAIT + tcpfo_net::time::SimDuration::from_millis(2);
        client.on_tick(later);
        assert_eq!(client.socket(cs).unwrap().state, TcpState::Closed);
        assert!(client.demux.is_empty());
    }

    #[test]
    fn rebind_local_ip_moves_only_failover_sockets() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(80, true).unwrap(); // failover
        server.listen(81, false).unwrap(); // plain
        let mut client = TcpStack::new(cfg(3));
        let c1 = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        let c2 = client
            .connect(A, SocketAddr::new(B_IP, 81), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let new_ip = Ipv4Addr::new(10, 0, 0, 99);
        let moved = server.rebind_local_ip(B_IP, new_ip);
        assert_eq!(moved, 1, "only the failover socket is re-keyed");
        let _ = (c1, c2);
        let moved_tuples: Vec<_> = server
            .demux
            .keys()
            .filter(|t| t.local.ip == new_ip)
            .collect();
        assert_eq!(moved_tuples.len(), 1);
        assert_eq!(moved_tuples[0].local.port, 80);
    }

    #[test]
    fn expiring_failover_timers_fires_only_armed_failover_sockets() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let l80 = server.listen(80, true).unwrap(); // failover
        let l81 = server.listen(81, false).unwrap(); // plain
        let mut client = TcpStack::new(cfg(3));
        for port in [80, 80, 81] {
            let to = SocketAddr::new(B_IP, port);
            client.connect(A, to, false, now).unwrap();
        }
        exchange(&mut client, &mut server, now);
        let busy = server.accept(l80).unwrap();
        let idle = server.accept(l80).unwrap();
        let plain = server.accept(l81).unwrap();
        // Data in flight on one failover socket and on the plain one;
        // the other failover socket has nothing outstanding.
        server.send(busy, b"replicated", now).unwrap();
        server.send(plain, b"not replicated", now).unwrap();
        server.take_outbox(); // lost: diverted to a peer that is gone
        let deadline = |s: &TcpStack, id| s.socket(id).unwrap().next_deadline();
        let rtx_at = deadline(&server, busy).expect("data in flight arms the timer");
        let rto = rtx_at.duration_since(now);
        assert_eq!(deadline(&server, plain), Some(rtx_at));
        assert_eq!(deadline(&server, idle), None);

        let later = now + SimDuration::from_millis(30);
        assert!(later < rtx_at);
        assert_eq!(server.expire_failover_retransmission_timers(later), 1);
        assert_eq!(deadline(&server, idle), None, "nothing in flight, no timer");
        assert_eq!(
            deadline(&server, plain),
            Some(rtx_at),
            "not a failover socket"
        );

        // The kick itself took the ordinary expiry path for that one
        // socket (and the debug assertion on the timer index held).
        assert_eq!(server.timer_visits, 1);
        assert_eq!(server.total_rto_expiries(), 1);
        let out = server.peek_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].2.payload[..], b"replicated");
        assert_eq!(deadline(&server, busy), Some(later + rto), "re-armed");
        let tick = later + SimDuration::from_millis(1);
        server.on_tick(tick);
        assert_eq!(server.timer_visits, 1, "nothing left for the next tick");
        // The plain socket's timer runs its course.
        server.take_outbox();
        server.on_tick(rtx_at);
        assert_eq!(server.total_rto_expiries(), 2);
        assert_eq!(&server.peek_outbox()[0].2.payload[..], b"not replicated");
        // With nothing armed there is nothing to expire.
        let mut quiet = TcpStack::new(cfg(9));
        assert_eq!(quiet.expire_failover_retransmission_timers(tick), 0);
        quiet.on_tick(tick);
    }

    /// The client's delayed ACK for the last segment it got before the
    /// kill lands some 40 ms after it — on the commit. An ACK that
    /// advances `snd_una` restarts the retransmission timer, so a kick
    /// that only marked the timer due and waited for the next tick was
    /// undone by it: a full backed-off RTO before the lost segment went
    /// out again.
    #[test]
    fn kick_retransmits_before_a_late_ack_can_restart_the_timer() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, true).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let to = SocketAddr::new(B_IP, 80);
        client.connect(A, to, false, now).unwrap();
        exchange(&mut client, &mut server, now);
        let ss = server.accept(listener).unwrap();
        // "heard" reaches the client, whose ACK is still on its way;
        // "diverted" went to the peer that is gone.
        server.send(ss, b"heard", now).unwrap();
        for seg in server.take_outbox() {
            client.on_segment(&seg, now);
        }
        let late_ack = client.take_outbox();
        assert_eq!(late_ack.len(), 1);
        server.send(ss, b"diverted", now).unwrap();
        server.take_outbox();

        let kick = now + SimDuration::from_millis(45);
        assert_eq!(server.expire_failover_retransmission_timers(kick), 1);
        server.on_segment(&late_ack[0], kick + SimDuration::from_micros(64));
        server.on_tick(kick + SimDuration::from_millis(1));
        let resent: Vec<u8> = (server.peek_outbox().iter())
            .flat_map(|(_, _, seg)| seg.payload.to_vec())
            .collect();
        assert!(
            resent.ends_with(b"diverted"),
            "the lost segment waits for a whole RTO: resent {resent:?}"
        );
    }

    #[test]
    fn release_aborts_live_socket() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.release(cs, now);
        exchange(&mut client, &mut server, now);
        assert!(client.socket(cs).is_none());
        let sock = server.socket(ss).unwrap();
        assert_eq!(sock.state, TcpState::Closed);
        assert_eq!(sock.error, Some(SocketError::Reset));
    }

    #[test]
    fn new_sockets_take_the_lowest_free_slot() {
        let now = SimTime::ZERO;
        let mut s = TcpStack::new(cfg(1));
        let to = |port| SocketAddr::new(B_IP, port);
        let ids: Vec<_> = (0..5)
            .map(|p| s.connect(A, to(80 + p), false, now).unwrap())
            .collect();
        // Freed high slot first: the next socket still goes lowest.
        s.release(ids[3], now);
        s.release(ids[1], now);
        assert_eq!(s.connect(A, to(90), false, now), Ok(SocketId(1)));
        assert_eq!(s.connect(A, to(91), false, now), Ok(SocketId(3)));
        assert_eq!(s.connect(A, to(92), false, now), Ok(SocketId(5)));
    }

    #[test]
    fn tick_visits_only_due_sockets_in_id_order() {
        let mut now = SimTime::ZERO;
        let mut s = TcpStack::new(cfg(1));
        let step = tcpfo_net::time::SimDuration::from_millis(100);
        // Three SYNs sent 100 ms apart: three retransmission deadlines.
        let ids: Vec<_> = (0..3)
            .map(|p| {
                let id = s.connect(A, SocketAddr::new(B_IP, 80 + p), false, now);
                now += step;
                id.unwrap()
            })
            .collect();
        s.take_outbox();
        let rto = crate::config::RTO_INITIAL;
        s.on_tick(SimTime::ZERO + (rto - step));
        assert_eq!(s.timer_visits, 0, "nothing is due yet");
        s.on_tick(SimTime::ZERO + rto + step);
        assert_eq!(s.timer_visits, 2, "the third SYN is younger");
        let ports: Vec<_> = s.peek_outbox().iter().map(|o| o.2.dst_port).collect();
        assert_eq!(ports, [80, 81], "retransmitted in SocketId order");
        assert_eq!(s.total_retransmits(), 2);
        assert_eq!(s.total_rto_expiries(), 2);
        // A released socket takes its timers with it.
        s.release(ids[2], now);
        s.on_tick(SimTime::ZERO + rto + step + step);
        assert_eq!(s.timer_visits, 2);
    }

    #[test]
    fn ready_lists_are_per_listener() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let l80 = server.listen(80, false).unwrap();
        let l81 = server.listen(81, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let c80 = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        let c81 = client
            .connect(A, SocketAddr::new(B_IP, 81), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let s80 = server.accept(l80).unwrap();
        let s81 = server.accept(l81).unwrap();
        let ready = |server: &mut TcpStack, l| {
            let mut out = Vec::new();
            server.take_ready(l, &mut out);
            out
        };
        // The handshake's last ACK woke each; taking one listener's
        // wake-ups leaves the other's alone.
        assert_eq!(ready(&mut server, l80), [s80]);
        assert_eq!(ready(&mut server, l80), []);
        client.send(c81, b"x", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(ready(&mut server, l80), []);
        assert_eq!(ready(&mut server, l81), [s81], "queued once, not twice");
        // connect()-side sockets have no owner and wake nobody.
        server.send(s80, b"y", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(client.recv(c80, 10, now).unwrap(), b"y");
        assert_eq!(ready(&mut server, l80), [s80], "the client's ACK");
    }

    #[test]
    fn inject_and_peek_helpers() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(80, false).unwrap();
        let syn = TcpSegment::builder(5555, 80)
            .seq(9)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(1000)
            .payload(B::new())
            .build();
        server.inject(A, B_IP, &syn, now);
        let out = server.peek_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].2.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(out[0].2.ack, 10);
    }

    /// A SYN whose client never answers the SYN+ACK: the server's
    /// socket gives up after its retransmissions and must not outlive
    /// them in the backlog.
    #[test]
    fn a_handshake_that_dies_in_the_backlog_is_reaped() {
        let mut now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        for seg in client.take_outbox() {
            server.on_segment(&seg, now);
        }
        assert_eq!(server.socket_ids(), vec![SocketId(0)]);
        // The client vanished: everything the server sends is lost.
        for _ in 0..5_000 {
            now += SimDuration::from_millis(1_000);
            server.on_tick(now);
            server.take_outbox();
        }
        assert_eq!(server.listeners[listener.0].queued, [0, 0, 1]);
        // The listener's owner polls: its accept reaps the entry.
        assert_eq!(server.accept(listener), None);
        assert!(
            server.socket_ids().is_empty(),
            "the dead handshake is reaped"
        );
        assert!(server.listeners[listener.0].backlog.is_empty());
        // Its slot is free again.
        client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        for seg in client.take_outbox() {
            server.on_segment(&seg, now);
        }
        assert_eq!(server.socket_ids(), vec![SocketId(0)]);
    }

    #[test]
    fn a_connection_reset_before_accept_is_reaped() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let first = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        let second = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        // The first connection is reset while still in the backlog.
        client.abort(first, now).unwrap();
        exchange(&mut client, &mut server, now);
        let accepted = server.accept(listener).expect("the live one");
        assert_eq!(accepted, SocketId(1));
        assert_eq!(server.socket_ids(), vec![SocketId(1)]);
        assert!(client.socket(second).unwrap().is_established());
        assert_eq!(server.accept(listener), None);
        assert!(server.listeners[listener.0].backlog.is_empty());
    }

    #[test]
    fn accept_hands_out_the_oldest_established_entry() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let to = SocketAddr::new(B_IP, 80);
        // The first handshake stalls: its final ACK is lost.
        client.connect(A, to, false, now).unwrap();
        for seg in client.take_outbox() {
            server.on_segment(&seg, now);
        }
        server.take_outbox();
        assert_eq!(server.accept(listener), None, "nothing established yet");
        // Two more complete.
        client.connect(A, to, false, now).unwrap();
        client.connect(A, to, false, now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.accept(listener), Some(SocketId(1)));
        assert_eq!(server.accept(listener), Some(SocketId(2)));
        assert_eq!(server.accept(listener), None);
        assert_eq!(server.listeners[listener.0].backlog.len(), 1);
    }
}
