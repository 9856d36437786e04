//! The benchmark's own client application: one `SocketApp` on the
//! client host that keeps idle resident connections open, issues
//! request/reply connections on an open-loop schedule, runs bulk
//! uploads, verifies every reply byte against `conn::pattern`, and
//! measures what the modelled client sees in simulated time.
//!
//! Latency is counted from each connection's *intended* start, so a
//! stalled server (or a failover) charges the wait to every request that
//! was due meanwhile instead of quietly thinning the load.

use crate::adapter::{pattern, SocketAddr, SocketApi, SocketApp, SocketId, TcpState};
use crate::stats::Samples;
use std::any::Any;

/// `conn::pattern` has period 251; one period plus the largest chunk we
/// ever compare or send lets every chunk be a plain slice of the table.
const PATTERN_PERIOD: usize = 251;
const MAX_CHUNK: usize = 64 * 1024;

/// Residents opened per poll while the resident set is being built.
const RESIDENT_OPENS_PER_POLL: usize = 4;

/// One scheduled request/reply connection.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Intended connect instant, absolute simulated ns.
    pub at_ns: u64,
    /// `SEND <reply_bytes>` is requested and read back.
    pub reply_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Reading,
    Closing,
}

#[derive(Debug)]
struct Conn {
    id: SocketId,
    intended_ns: u64,
    want: u64,
    got: u64,
    /// Last payload arrival, or the request's send instant before any.
    last_arrival_ns: u64,
    requested_ns: u64,
    phase: Phase,
}

/// A client→server bulk transfer.
#[derive(Debug)]
struct Upload {
    server: SocketAddr,
    total: u64,
    start_at_ns: u64,
    id: Option<SocketId>,
    sent: u64,
    first_sent_ns: Option<u64>,
    acked_ns: Option<u64>,
    closed: bool,
}

pub struct LoadClient {
    server: SocketAddr,
    table: Vec<u8>,
    residents_target: usize,
    residents_pending: Vec<SocketId>,
    residents_open: usize,
    plan: Vec<Planned>,
    next: usize,
    active: Vec<Conn>,
    upload: Option<Upload>,
    /// Kill instant for stall accounting (set by the failover scenes).
    pub kill_at_ns: Option<u64>,
    /// Longest gap between consecutive payload arrivals (or between the
    /// request and the first arrival) on any one connection that spans
    /// `kill_at_ns`. Connections still in their handshake at the kill
    /// are not counted here; their wait shows in `latencies`.
    pub stall_max_ns: u64,
    /// Intended start → last reply byte, one sample per connection.
    pub latencies: Samples,
    /// Request sent → last reply byte, one sample per connection.
    pub reply_times: Samples,
    pub completed: usize,
    pub failed: usize,
    pub mismatched_bytes: u64,
}

impl LoadClient {
    pub fn new(server: SocketAddr) -> Self {
        LoadClient {
            server,
            table: pattern(0, PATTERN_PERIOD + MAX_CHUNK),
            residents_target: 0,
            residents_pending: Vec::new(),
            residents_open: 0,
            plan: Vec::new(),
            next: 0,
            active: Vec::new(),
            upload: None,
            kill_at_ns: None,
            stall_max_ns: 0,
            latencies: Samples::default(),
            reply_times: Samples::default(),
            completed: 0,
            failed: 0,
            mismatched_bytes: 0,
        }
    }

    /// Opens `n` connections and leaves them established and idle.
    pub fn with_residents(mut self, n: usize) -> Self {
        self.residents_target = n;
        self
    }

    /// Appends to the request schedule; instants must not decrease.
    pub fn schedule(&mut self, plan: impl IntoIterator<Item = Planned>) {
        self.plan.extend(plan);
        debug_assert!(self.plan.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    /// Starts an upload of `total` pattern bytes to `server` at `at_ns`.
    pub fn upload(&mut self, server: SocketAddr, total: u64, at_ns: u64) {
        self.upload = Some(Upload {
            server,
            total,
            start_at_ns: at_ns,
            id: None,
            sent: 0,
            first_sent_ns: None,
            acked_ns: None,
            closed: false,
        });
    }

    pub fn residents_ready(&self) -> bool {
        self.residents_open == self.residents_target
    }

    /// Every scheduled connection has completed or failed.
    pub fn plan_done(&self) -> bool {
        self.next == self.plan.len() && self.active.iter().all(|c| c.phase == Phase::Closing)
    }

    pub fn planned(&self) -> usize {
        self.plan.len()
    }

    /// First byte sent → last byte acknowledged, once the upload is done.
    pub fn upload_time_ns(&self) -> Option<u64> {
        let u = self.upload.as_ref()?;
        Some(u.acked_ns?.saturating_sub(u.first_sent_ns?))
    }

    fn poll_residents(&mut self, api: &mut SocketApi<'_>) {
        self.residents_pending.retain(|&id| {
            if api.is_established(id) {
                self.residents_open += 1;
                false
            } else {
                true
            }
        });
        let mut opened = 0;
        while self.residents_open + self.residents_pending.len() < self.residents_target
            && opened < RESIDENT_OPENS_PER_POLL
        {
            match api.connect(self.server, false) {
                Ok(id) => self.residents_pending.push(id),
                Err(_) => break,
            }
            opened += 1;
        }
    }

    fn poll_upload(&mut self, api: &mut SocketApi<'_>, now: u64) {
        let Some(u) = self.upload.as_mut() else {
            return;
        };
        if u.closed || now < u.start_at_ns {
            return;
        }
        let Some(id) = u.id else {
            u.id = api.connect(u.server, false).ok();
            return;
        };
        if !api.is_established(id) {
            return;
        }
        while u.sent < u.total {
            let off = (u.sent % PATTERN_PERIOD as u64) as usize;
            let chunk = (u.total - u.sent).min(MAX_CHUNK as u64) as usize;
            let n = api.send(id, &self.table[off..off + chunk]).unwrap_or(0);
            if n > 0 && u.first_sent_ns.is_none() {
                u.first_sent_ns = Some(now);
            }
            u.sent += n as u64;
            if n < chunk {
                break;
            }
        }
        if u.sent == u.total && api.unacked(id) == 0 {
            u.acked_ns = Some(now);
            u.closed = true;
            let _ = api.close(id);
        }
    }

    /// Advances one request/reply connection; `true` when it is finished
    /// with and can be dropped from the active list.
    fn poll_conn(&mut self, i: usize, api: &mut SocketApi<'_>, now: u64) -> bool {
        let c = &mut self.active[i];
        match c.phase {
            Phase::Connecting => {
                if api.is_established(c.id) {
                    let req = format!("SEND {}\n", c.want);
                    let _ = api.send(c.id, req.as_bytes());
                    c.requested_ns = now;
                    c.last_arrival_ns = now;
                    c.phase = Phase::Reading;
                } else if api.state(c.id).is_none_or(|s| s == TcpState::Closed) {
                    api.release(c.id);
                    self.failed += 1;
                    return true;
                }
                false
            }
            Phase::Reading => {
                let data = api.recv(c.id, usize::MAX).unwrap_or_default();
                if !data.is_empty() {
                    if let Some(kill) = self.kill_at_ns {
                        if c.last_arrival_ns <= kill && kill < now {
                            self.stall_max_ns = self.stall_max_ns.max(now - c.last_arrival_ns);
                        }
                    }
                    c.last_arrival_ns = now;
                    let mut pos = c.got;
                    for chunk in data.chunks(MAX_CHUNK) {
                        let off = (pos % PATTERN_PERIOD as u64) as usize;
                        if chunk != &self.table[off..off + chunk.len()] {
                            self.mismatched_bytes += chunk
                                .iter()
                                .zip(&self.table[off..])
                                .filter(|(a, b)| a != b)
                                .count()
                                as u64;
                        }
                        pos += chunk.len() as u64;
                    }
                    c.got = pos;
                    if c.got >= c.want {
                        if c.got > c.want {
                            self.mismatched_bytes += c.got - c.want;
                        }
                        self.latencies.push(now - c.intended_ns);
                        self.reply_times.push(now - c.requested_ns);
                        self.completed += 1;
                        let _ = api.close(c.id);
                        c.phase = Phase::Closing;
                    }
                } else if api.state(c.id).is_none_or(|s| s == TcpState::Closed) {
                    // Reset or timed out mid-reply.
                    api.release(c.id);
                    self.failed += 1;
                    return true;
                }
                false
            }
            Phase::Closing => {
                let gone = api
                    .state(c.id)
                    .is_none_or(|s| matches!(s, TcpState::Closed | TcpState::TimeWait));
                if gone {
                    api.release(c.id);
                }
                gone
            }
        }
    }
}

impl SocketApp for LoadClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        let now = api.now().as_nanos();
        if !self.residents_ready() {
            self.poll_residents(api);
        }
        self.poll_upload(api, now);
        while self.next < self.plan.len() && self.plan[self.next].at_ns <= now {
            let p = self.plan[self.next];
            self.next += 1;
            match api.connect(self.server, false) {
                Ok(id) => self.active.push(Conn {
                    id,
                    intended_ns: p.at_ns,
                    want: p.reply_bytes,
                    got: 0,
                    last_arrival_ns: p.at_ns,
                    requested_ns: p.at_ns,
                    phase: Phase::Connecting,
                }),
                Err(_) => self.failed += 1,
            }
        }
        let mut i = 0;
        while i < self.active.len() {
            if self.poll_conn(i, api, now) {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
