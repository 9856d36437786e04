//! Per-connection plumbing shared by the server applications.
//!
//! Server applications must be **deterministic on the byte stream**
//! (§1 of the paper): the same sequence of request bytes must produce
//! the same sequence of reply bytes on the primary and the secondary,
//! regardless of how TCP happened to chunk them into segments. The
//! helpers here make that property easy to uphold: [`LineBuf`]
//! reassembles requests independent of segment boundaries, and
//! [`OutBuf`] guarantees no reply byte is dropped on a partial send.
//! [`PatternSender`] drip-feeds a generated body the same way, with
//! nothing staged but a count.
//! [`Conns`] is the one accept → serve → release loop every server
//! runs, serving only the connections that have something to do.

use std::borrow::Cow;
use std::collections::BTreeMap;
use tcpfo_tcp::app::SocketApi;
use tcpfo_tcp::socket::TcpState;
use tcpfo_tcp::types::{ListenerId, SocketId};

/// A server's listener and its accepted connections, each with the
/// server's per-connection state `S`.
///
/// [`Conns::poll`] costs O(connections with work), not O(open): it
/// serves the connections the stack reports an event for (the readiness
/// contract of [`tcpfo_tcp::app`]), those accepted in this poll, and
/// those whose last service said it left work a new segment is not
/// needed for — in ascending [`SocketId`] order, because `send` emits
/// at once and the order of service is the order on the wire.
pub struct Conns<S> {
    port: u16,
    failover: bool,
    listener: Option<ListenerId>,
    conns: BTreeMap<SocketId, S>,
    /// Connections to serve in the next poll whatever the stack reports.
    carry: Vec<SocketId>,
    /// Scratch: the connections served in the current poll.
    ready: Vec<SocketId>,
}

impl<S> Conns<S> {
    /// A server on `port`.
    pub fn new(port: u16) -> Self {
        Conns {
            port,
            failover: false,
            listener: None,
            conns: BTreeMap::new(),
            // Allocated with the server, not mid-transfer (as the
            // stack's own lists are, and for the same reason).
            carry: Vec::with_capacity(64),
            ready: Vec::with_capacity(64),
        }
    }

    /// Designates accepted connections as failover connections via the
    /// socket option (§7 method 1).
    pub fn with_failover_option(mut self) -> Self {
        self.failover = true;
        self
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Every open connection with its state, in `SocketId` order.
    pub fn iter(&self) -> impl Iterator<Item = (SocketId, &S)> {
        self.conns.iter().map(|(&c, st)| (c, st))
    }

    /// Takes over a connection that was not accepted here (a socket
    /// rebuilt by `TcpStack::adopt`); it is served in the next poll.
    pub fn adopt(&mut self, c: SocketId, state: S) {
        self.conns.insert(c, state);
        self.carry.push(c);
    }

    /// One poll: listens (first call), accepts, and calls `serve` on
    /// every connection with work. `serve` returns whether it left work
    /// it could continue without a new segment (unread bytes after a
    /// bounded read, staged output the send buffer would still take);
    /// such a connection is served again in the next poll. Connections
    /// found `Closed` afterwards are released; returns how many.
    pub fn poll(
        &mut self,
        api: &mut SocketApi<'_>,
        mut accept: impl FnMut(&mut SocketApi<'_>, SocketId) -> S,
        mut serve: impl FnMut(&mut SocketApi<'_>, SocketId, &mut S) -> bool,
    ) -> u64 {
        if self.listener.is_none() {
            self.listener = api.listen(self.port, self.failover).ok();
        }
        let mut ready = std::mem::take(&mut self.ready);
        ready.append(&mut self.carry);
        if let Some(l) = self.listener {
            api.take_ready(l, &mut ready);
            while let Some(c) = api.accept(l) {
                self.conns.insert(c, accept(api, c));
                ready.push(c);
            }
        }
        ready.sort_unstable();
        ready.dedup();
        let mut finished = Vec::new();
        for &c in &ready {
            // Not ours: still in the backlog, or released earlier.
            let Some(state) = self.conns.get_mut(&c) else {
                continue;
            };
            let again = serve(api, c, state);
            if api.state(c).is_none_or(|s| s == TcpState::Closed) {
                self.conns.remove(&c);
                finished.push(c);
            } else if again {
                self.carry.push(c);
            }
        }
        // Released only now, so that a slot freed here is not reused by
        // a socket another connection's service opened in this poll.
        for &c in &finished {
            api.release(c);
        }
        ready.clear();
        self.ready = ready;
        finished.len() as u64
    }
}

/// Buffers outbound bytes across partial sends.
#[derive(Debug, Default, Clone)]
pub struct OutBuf {
    pending: Vec<u8>,
    /// Read cursor: `pending[..head]` is already TCP's. A flush moves
    /// the cursor, not the backlog behind it.
    head: usize,
}

impl OutBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        OutBuf::default()
    }

    /// Queues reply bytes.
    pub fn push(&mut self, data: &[u8]) {
        // The consumed front is reclaimed when the alternative is a
        // larger allocation: the buffer stays as small as if every flush
        // had compacted, and moves its backlog once per fill, not once
        // per flush.
        if self.head > 0 && self.pending.len() + data.len() > self.pending.capacity() {
            self.pending.drain(..self.head);
            self.head = 0;
        }
        self.pending.extend_from_slice(data);
    }

    /// Pushes as much pending data as the socket accepts, in one `send`
    /// (each `send` runs TCP's output routine, so how a flush is split
    /// into calls shows on the wire).
    pub fn flush(&mut self, api: &mut SocketApi<'_>, conn: SocketId) {
        if self.is_empty() {
            return;
        }
        self.head += api.send(conn, &self.pending[self.head..]).unwrap_or(0);
        if self.is_empty() {
            self.pending.clear();
            self.head = 0;
        }
    }

    /// Whether everything queued has been handed to TCP.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a flush now would move bytes: something is staged and
    /// the send buffer has room (so no ACK is needed to continue).
    pub fn can_flush(&self, api: &SocketApi<'_>, conn: SocketId) -> bool {
        !self.is_empty() && api.send_space(conn) > 0
    }

    /// Bytes still waiting for send-buffer space.
    pub fn len(&self) -> usize {
        self.pending.len() - self.head
    }
}

/// Reassembles `\n`-terminated lines from arbitrarily chunked input.
#[derive(Debug, Default, Clone)]
pub struct LineBuf {
    buf: Vec<u8>,
}

impl LineBuf {
    /// Creates an empty line buffer.
    pub fn new() -> Self {
        LineBuf::default()
    }

    /// Appends raw bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete line (without the terminator; a trailing
    /// `\r` is stripped too, for FTP-style `\r\n`).
    pub fn pop_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
        line.pop(); // '\n'
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Whether a complete line is waiting.
    pub fn has_line(&self) -> bool {
        self.buf.contains(&b'\n')
    }

    /// Bytes buffered but not yet forming a line.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deterministic filler byte for position `i` of a generated payload
/// (used by the stream source, FTP file bodies, and verified by the
/// receiving drivers).
pub const fn pattern_byte(i: u64) -> u8 {
    ((i.wrapping_mul(31)).wrapping_add(7) % 251) as u8
}

/// While `31·i + 7` fits a `u64` the byte at `i` depends on `i mod 251`
/// only.
const PATTERN_PERIOD: usize = 251;

/// First position whose `31·i + 7` wraps; from there on the sequence is
/// no longer periodic.
const PATTERN_WRAPS_AT: u64 = (u64::MAX - 7) / 31 + 1;

/// Longest run [`pattern_run`] lends out of [`PATTERN_SPAN`].
const PATTERN_RUN_MAX: usize = 64 * 1024;

/// One periodic run of the pattern, a period longer than the longest
/// run lent from it, so that such a run from any phase is one slice.
static PATTERN_SPAN: [u8; PATTERN_RUN_MAX + PATTERN_PERIOD] = {
    let mut span = [0u8; PATTERN_RUN_MAX + PATTERN_PERIOD];
    let mut i = 0;
    while i < span.len() {
        span[i] = pattern_byte(i as u64);
        i += 1;
    }
    span
};

/// Whether `[start, start + len)` lies below [`PATTERN_WRAPS_AT`].
fn is_periodic(start: u64, len: usize) -> bool {
    start
        .checked_add(len as u64)
        .is_some_and(|end| end <= PATTERN_WRAPS_AT)
}

/// Generates `len` pattern bytes starting at stream offset `start`:
/// `pattern_byte(start)`, `pattern_byte(start + 1)`, … copied a run at a
/// time out of the static span.
pub fn pattern(start: u64, len: usize) -> Vec<u8> {
    if !is_periodic(start, len) {
        return (0..len as u64)
            .map(|i| pattern_byte(start.wrapping_add(i)))
            .collect();
    }
    let mut out = Vec::with_capacity(len);
    let mut phase = (start % PATTERN_PERIOD as u64) as usize;
    while out.len() < len {
        let run = (len - out.len()).min(PATTERN_SPAN.len() - phase);
        out.extend_from_slice(&PATTERN_SPAN[phase..phase + run]);
        phase = (phase + run) % PATTERN_PERIOD;
    }
    out
}

/// The same bytes as [`pattern`], lent from the static span when the
/// run is periodic and at most 64 KiB, and generated only otherwise.
pub fn pattern_run(start: u64, len: usize) -> Cow<'static, [u8]> {
    if len > PATTERN_RUN_MAX || !is_periodic(start, len) {
        return Cow::Owned(pattern(start, len));
    }
    let phase = (start % PATTERN_PERIOD as u64) as usize;
    Cow::Borrowed(&PATTERN_SPAN[phase..phase + len])
}

/// Number of positions at which `data`, received at stream offset
/// `start`, differs from the pattern.
pub fn pattern_mismatches(start: u64, data: &[u8]) -> u64 {
    let mut at = start;
    let mut n = 0;
    for got in data.chunks(PATTERN_RUN_MAX) {
        let want = pattern_run(at, got.len());
        n += got.iter().zip(want.iter()).filter(|(g, w)| g != w).count() as u64;
        at = at.wrapping_add(got.len() as u64);
    }
    n
}

/// One pattern transfer in flight, drip-fed to TCP: the bytes
/// `[offset - staged, offset)` are staged and `remaining` more are owed
/// after them. Staging is a count, not a buffer: a flush lends TCP a
/// slice of the static span.
#[derive(Debug, Default, Clone, Copy)]
pub struct PatternSender {
    offset: u64,
    remaining: u64,
    staged: usize,
}

impl PatternSender {
    /// Owes `remaining` pattern bytes from stream offset `offset`.
    pub fn new(offset: u64, remaining: u64) -> Self {
        PatternSender {
            offset,
            remaining,
            staged: 0,
        }
    }

    /// Hands TCP as much of the staged run as it accepts, in one `send`
    /// (as [`OutBuf::flush`]).
    pub fn flush(&mut self, api: &mut SocketApi<'_>, conn: SocketId) {
        if self.staged == 0 {
            return;
        }
        let run = pattern_run(self.offset - self.staged as u64, self.staged);
        self.staged -= api.send(conn, &run).unwrap_or(0);
    }

    /// Flushes, then stages 16 KiB at a time while less than 32 KiB is
    /// staged, flushing after each, until the send buffer is full or
    /// nothing more is owed. Returns the bytes newly staged.
    pub fn drip(&mut self, api: &mut SocketApi<'_>, conn: SocketId) -> u64 {
        self.flush(api, conn);
        let start = self.offset;
        while self.remaining > 0 && self.staged < 32 * 1024 {
            let chunk = self.remaining.min(16 * 1024);
            self.offset += chunk;
            self.remaining -= chunk;
            self.staged += chunk as usize;
            self.flush(api, conn);
            if api.send_space(conn) == 0 {
                break;
            }
        }
        self.offset - start
    }

    /// Whether every byte has been handed to TCP.
    pub fn is_done(&self) -> bool {
        self.remaining == 0 && self.staged == 0
    }

    /// `(offset, remaining)` as TCP has it: staged bytes have not
    /// reached the socket, so they count as remaining, not progress.
    pub fn progress(&self) -> (u64, u64) {
        let staged = self.staged as u64;
        (self.offset - staged, self.remaining + staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::EchoServer;
    use crate::stream::SinkServer;
    use crate::testutil::{Duplex, CLIENT_IP, SERVER_IP};
    use tcpfo_tcp::app::SocketApp;
    use tcpfo_tcp::config::TcpConfig;
    use tcpfo_tcp::stack::TcpStack;
    use tcpfo_tcp::types::SocketAddr;

    #[test]
    fn linebuf_reassembles_across_chunks() {
        let mut lb = LineBuf::new();
        lb.push(b"USER al");
        assert_eq!(lb.pop_line(), None);
        lb.push(b"ice\r\nPASS x\n tail");
        assert_eq!(lb.pop_line(), Some("USER alice".to_string()));
        assert_eq!(lb.pop_line(), Some("PASS x".to_string()));
        assert_eq!(lb.pop_line(), None);
        assert_eq!(lb.len(), 5);
    }

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern(0, 16), pattern(0, 16));
        assert_eq!(pattern(5, 11), pattern(0, 16)[5..]);
        assert!(pattern(0, 300).iter().all(|&b| b < 251));
    }

    fn by_definition(start: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| pattern_byte(start.wrapping_add(i)))
            .collect()
    }

    #[test]
    fn pattern_equals_its_per_byte_definition_at_the_edges() {
        assert_eq!(pattern(0, 0), b"");
        assert_eq!(pattern(u64::MAX, 0), b"");
        // Every phase, runs shorter and longer than the two-period table.
        for start in 0..2 * PATTERN_PERIOD as u64 {
            for len in [1, 250, 251, 252, 502, 503, 1460] {
                assert_eq!(
                    pattern(start, len),
                    by_definition(start, len),
                    "{start}+{len}"
                );
            }
        }
        // Around the position where 31·i + 7 first wraps a u64, and at
        // the end of the offset space.
        for back in 0..600u64 {
            let start = PATTERN_WRAPS_AT - 300 + back;
            assert_eq!(pattern(start, 300), by_definition(start, 300), "{start}");
        }
        for start in [
            u64::MAX / 31 - 1,
            u64::MAX / 31,
            u64::MAX / 31 + 1,
            u64::MAX - 5,
        ] {
            assert_eq!(pattern(start, 64), by_definition(start, 64), "{start}");
        }
        assert_ne!(
            pattern_byte(PATTERN_WRAPS_AT),
            PATTERN_SPAN[(PATTERN_WRAPS_AT % 251) as usize],
            "the fallback is needed: the wrapped sequence leaves the period"
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_pattern_equals_its_per_byte_definition(
            start in proptest::prelude::any::<u64>(),
            len in 0usize..2000,
        ) {
            proptest::prop_assert_eq!(pattern(start, len), by_definition(start, len));
            // Small offsets are the ones every run uses.
            let near = start % 1_000_000;
            proptest::prop_assert_eq!(pattern(near, len), by_definition(near, len));
        }
    }

    #[test]
    fn pattern_run_lends_what_pattern_generates() {
        // Every phase, with lengths up to, at and past the longest loan.
        let max = PATTERN_RUN_MAX;
        for start in 0..PATTERN_PERIOD as u64 {
            for len in [0, 1, 250, max - 1, max, max + 1, max + PATTERN_PERIOD + 1] {
                let run = pattern_run(start, len);
                assert_eq!(*run, pattern(start, len)[..], "{start}+{len}");
                assert_eq!(matches!(run, Cow::Borrowed(_)), len <= max, "{start}+{len}");
            }
        }
        // A run that reaches or crosses the wrap is generated, not lent.
        for back in 0..600u64 {
            let start = PATTERN_WRAPS_AT - 300 + back;
            let run = pattern_run(start, 300);
            assert_eq!(*run, by_definition(start, 300), "{start}");
            assert_eq!(matches!(run, Cow::Borrowed(_)), back == 0, "{start}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_pattern_run_equals_pattern(
            start in proptest::prelude::any::<u64>(),
            len in 0usize..PATTERN_RUN_MAX + 2 * PATTERN_PERIOD,
        ) {
            proptest::prop_assert_eq!(&*pattern_run(start, len), &pattern(start, len)[..]);
            let near = start % 1_000_000;
            proptest::prop_assert_eq!(&*pattern_run(near, len), &pattern(near, len)[..]);
            let wrap = PATTERN_WRAPS_AT - (start % 4096);
            proptest::prop_assert_eq!(&*pattern_run(wrap, len), &by_definition(wrap, len)[..]);
        }
    }

    #[test]
    fn pattern_mismatches_counts_differing_positions() {
        let mut data = pattern(1000, 600);
        assert_eq!(pattern_mismatches(1000, &data), 0);
        assert_eq!(pattern_mismatches(1001, &data), 600, "31 is a unit mod 251");
        data[0] ^= 1;
        data[599] ^= 0x80;
        assert_eq!(pattern_mismatches(1000, &data), 2);
        assert_eq!(pattern_mismatches(7, b""), 0);
    }

    /// Moves segments between the two stacks until both fall silent.
    fn shuttle(net: &mut Duplex) {
        loop {
            let (from_a, from_b) = (net.a.take_outbox(), net.b.take_outbox());
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            from_a.iter().for_each(|s| net.b.on_segment(s, net.now));
            from_b.iter().for_each(|s| net.a.on_segment(s, net.now));
        }
    }

    #[test]
    fn outbuf_tracks_pending() {
        let mut ob = OutBuf::new();
        assert!(ob.is_empty());
        ob.push(b"abc");
        assert_eq!(ob.len(), 3);
    }

    #[test]
    fn outbuf_hands_over_every_byte_once_across_partial_sends() {
        const TOTAL: usize = 300_000;
        const SLAB: usize = 16 * 1024;
        // A send buffer smaller than a slab: every flush is partial.
        let cfg = TcpConfig {
            delayed_ack: None,
            nagle: false,
            send_buffer: 10_000,
            ..TcpConfig::default()
        };
        let mut net = Duplex {
            a: TcpStack::new(cfg.clone().with_isn_seed(11)),
            b: TcpStack::new(cfg.with_isn_seed(22)),
            ..Duplex::new()
        };
        let l = net.b.listen(7, false).unwrap();
        let to = SocketAddr::new(SERVER_IP, 7);
        let c = net.a.connect(CLIENT_IP, to, false, net.now).unwrap();
        shuttle(&mut net);
        let s = net.b.accept(l).unwrap();

        let mut ob = OutBuf::new();
        assert!(ob.is_empty());
        ob.push(b"");
        ob.flush(&mut SocketApi::new(&mut net.a, net.now, CLIENT_IP), c);
        let (mut staged, mut got) = (0, Vec::new());
        while got.len() < TOTAL {
            // Staged in 16 KiB slabs, up to two ahead.
            while staged < TOTAL && ob.len() < 2 * SLAB {
                let n = SLAB.min(TOTAL - staged);
                ob.push(&pattern(staged as u64, n));
                staged += n;
            }
            let before = ob.len();
            ob.flush(&mut SocketApi::new(&mut net.a, net.now, CLIENT_IP), c);
            assert!(ob.len() < before && before - ob.len() <= 10_000);
            // No larger than if every flush had compacted: what is
            // staged, rounded up by `Vec`'s doubling.
            assert!(
                ob.pending.capacity() <= 4 * SLAB,
                "consumed bytes are reclaimed"
            );
            shuttle(&mut net);
            got.extend(net.b.recv(s, usize::MAX, net.now).unwrap());
            shuttle(&mut net);
        }
        assert!(ob.is_empty());
        assert_eq!(got.len(), TOTAL);
        assert_eq!(pattern_mismatches(0, &got), 0);
    }

    /// A server stack roomy enough to hold a whole burst unread (and a
    /// whole echo unsent), with `total` bytes delivered to `server`'s
    /// one connection while the application is not looking. From here
    /// on the peer is silent: the caller delivers nothing more.
    fn burst_then_silence(server: &mut dyn SocketApp, port: u16, total: usize) -> Duplex {
        let cfg = TcpConfig {
            delayed_ack: None,
            nagle: false,
            ..TcpConfig::default()
        };
        let roomy = TcpConfig {
            send_buffer: 256 * 1024,
            recv_buffer: 256 * 1024,
            ..cfg.clone()
        };
        let mut net = Duplex {
            a: TcpStack::new(cfg.with_isn_seed(11)),
            b: TcpStack::new(roomy.with_isn_seed(22)),
            ..Duplex::new()
        };
        let poll = |net: &mut Duplex, server: &mut dyn SocketApp| {
            server.poll(&mut SocketApi::new(&mut net.b, net.now, SERVER_IP));
        };
        poll(&mut net, server); // listens
        let to = SocketAddr::new(SERVER_IP, port);
        let c = net.a.connect(CLIENT_IP, to, false, net.now).unwrap();
        shuttle(&mut net);
        poll(&mut net, server); // accepts, finds nothing to read
        let data = pattern(0, total);
        let mut sent = 0;
        while sent < total || net.a.socket(c).unwrap().unacked() > 0 {
            sent += net.a.send(c, &data[sent..], net.now).unwrap();
            shuttle(&mut net);
        }
        net
    }

    #[test]
    fn echo_drains_a_burst_beyond_its_bounded_read_unprompted() {
        const TOTAL: usize = 150_000;
        let mut server = EchoServer::new(7);
        let mut net = burst_then_silence(&mut server, 7, TOTAL);
        assert_eq!(server.echoed, 0);
        // One 64 KB read per poll, so three polls — with no segment
        // arriving in between to wake the connection.
        for _ in 0..3 {
            server.poll(&mut SocketApi::new(&mut net.b, net.now, SERVER_IP));
        }
        assert_eq!(server.echoed, TOTAL as u64);
    }

    #[test]
    fn budgeted_sink_drains_what_it_left_unread_unprompted() {
        const TOTAL: usize = 50_000;
        let mut server = SinkServer::new(9).with_read_budget(1_000);
        let mut net = burst_then_silence(&mut server, 9, TOTAL);
        assert_eq!(server.received, 0);
        for polls in 1..=TOTAL / 1_000 {
            server.poll(&mut SocketApi::new(&mut net.b, net.now, SERVER_IP));
            assert_eq!(server.received, 1_000 * polls as u64);
        }
    }
}
