//! Measuring client drivers for the §9 experiments.
//!
//! Each driver is a [`SocketApp`] that runs one workload and records
//! the timestamps the paper's figures are computed from. All times are
//! simulated time taken from [`SocketApi::now`].

use crate::conn::{pattern_mismatches, pattern_run};
use std::any::Any;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::app::{SocketApi, SocketApp};
use tcpfo_tcp::types::{SocketAddr, SocketId};

/// Sends `total` pattern bytes to a sink, recording the paper's
/// send-call semantics: "the send call returns when the application
/// has passed the last byte to the stack" (§9).
pub struct BulkSendClient {
    server: SocketAddr,
    total: u64,
    conn: Option<SocketId>,
    sent: u64,
    closed: bool,
    /// When `connect` was issued.
    pub t_connect: Option<SimTime>,
    /// When the connection became established.
    pub t_established: Option<SimTime>,
    /// When the last byte was accepted by the send buffer (Fig. 3's
    /// "send time" endpoint).
    pub t_buffered: Option<SimTime>,
    /// When the last byte was acknowledged end-to-end.
    pub t_acked: Option<SimTime>,
}

impl BulkSendClient {
    /// Creates a sender of `total` bytes.
    pub fn new(server: SocketAddr, total: u64) -> Self {
        BulkSendClient {
            server,
            total,
            conn: None,
            sent: 0,
            closed: false,
            t_connect: None,
            t_established: None,
            t_buffered: None,
            t_acked: None,
        }
    }

    /// Whether the transfer is fully acknowledged.
    pub fn is_done(&self) -> bool {
        self.t_acked.is_some()
    }

    /// Fig. 3 metric: time from the start of sending to the last byte
    /// entering the stack.
    pub fn send_time(&self) -> Option<SimDuration> {
        Some(self.t_buffered?.duration_since(self.t_established?))
    }

    /// Time until everything was acknowledged (used for rates).
    pub fn acked_time(&self) -> Option<SimDuration> {
        Some(self.t_acked?.duration_since(self.t_established?))
    }
}

impl SocketApp for BulkSendClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        if self.conn.is_none() {
            self.t_connect = Some(api.now());
            self.conn = api.connect(self.server, false).ok();
            return;
        }
        let c = self.conn.unwrap();
        if !api.is_established(c) {
            return;
        }
        if self.t_established.is_none() {
            self.t_established = Some(api.now());
        }
        while self.sent < self.total {
            let chunk = (self.total - self.sent).min(32 * 1024) as usize;
            let data = pattern_run(self.sent, chunk);
            let n = api.send(c, &data).unwrap_or(0) as u64;
            self.sent += n;
            if self.sent == self.total {
                self.t_buffered = Some(api.now());
            }
            if n < chunk as u64 {
                break;
            }
        }
        if self.sent == self.total && api.unacked(c) == 0 && self.t_acked.is_none() {
            self.t_acked = Some(api.now());
        }
        if self.t_acked.is_some() && !self.closed {
            self.closed = true;
            let _ = api.close(c);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Connects, sends a fixed request, and reads an expected number of
/// reply bytes, verifying them against the deterministic pattern.
pub struct RequestReplyClient {
    server: SocketAddr,
    request: Vec<u8>,
    expect: u64,
    conn: Option<SocketId>,
    sent: usize,
    received: u64,
    stored: Vec<u8>,
    store_limit: usize,
    /// Reply bytes that differed from the expected pattern.
    pub mismatches: u64,
    /// Set to skip pattern verification (e.g. FTP banners).
    pub verify: bool,
    closed_after: bool,
    /// When `connect` was issued.
    pub t_connect: Option<SimTime>,
    /// When the connection became established.
    pub t_established: Option<SimTime>,
    /// When the request's first byte was handed to TCP (Fig. 4's
    /// starting point).
    pub t_request: Option<SimTime>,
    /// When the last expected reply byte arrived (Fig. 4's endpoint).
    pub t_done: Option<SimTime>,
}

impl RequestReplyClient {
    /// Creates a request/reply client.
    pub fn new(server: SocketAddr, request: Vec<u8>, expect: u64) -> Self {
        RequestReplyClient {
            server,
            request,
            expect,
            conn: None,
            sent: 0,
            received: 0,
            stored: Vec::new(),
            store_limit: 2 * 1024 * 1024,
            mismatches: 0,
            verify: true,
            closed_after: false,
            t_connect: None,
            t_established: None,
            t_request: None,
            t_done: None,
        }
    }

    /// Whether the full reply arrived.
    pub fn is_done(&self) -> bool {
        self.t_done.is_some()
    }

    /// Reply bytes received so far.
    pub fn received_len(&self) -> u64 {
        self.received
    }

    /// A stored reply byte (only the first 2 MiB are retained).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is beyond the stored prefix.
    pub fn received_byte(&self, offset: usize) -> u8 {
        self.stored[offset]
    }

    /// Fig. 4 metric: request start to last reply byte.
    pub fn transfer_time(&self) -> Option<SimDuration> {
        Some(self.t_done?.duration_since(self.t_request?))
    }
}

impl SocketApp for RequestReplyClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        if self.conn.is_none() {
            self.t_connect = Some(api.now());
            self.conn = api.connect(self.server, false).ok();
            return;
        }
        let c = self.conn.unwrap();
        if !api.is_established(c) {
            return;
        }
        if self.t_established.is_none() {
            self.t_established = Some(api.now());
        }
        if self.sent < self.request.len() {
            if self.t_request.is_none() {
                self.t_request = Some(api.now());
            }
            self.sent += api.send(c, &self.request[self.sent..]).unwrap_or(0);
        }
        let data = api.recv(c, usize::MAX).unwrap_or_default();
        if !data.is_empty() {
            if self.verify {
                self.mismatches += pattern_mismatches(self.received, &data);
            }
            if self.stored.len() < self.store_limit {
                let room = self.store_limit - self.stored.len();
                self.stored.extend_from_slice(&data[..data.len().min(room)]);
            }
            self.received += data.len() as u64;
            if self.received >= self.expect && self.t_done.is_none() {
                self.t_done = Some(api.now());
            }
        }
        if self.t_done.is_some() && !self.closed_after {
            self.closed_after = true;
            let _ = api.close(c);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Measures connection-setup time: issues sequential connects spaced by
/// `gap`, recording the time from `connect()` to ESTABLISHED (§9's
/// first experiment).
pub struct ConnectProbeClient {
    server: SocketAddr,
    remaining: u32,
    gap: SimDuration,
    conn: Option<SocketId>,
    t_connect: Option<SimTime>,
    next_at: SimTime,
    /// Collected setup times.
    pub samples: Vec<SimDuration>,
}

impl ConnectProbeClient {
    /// Creates a prober that takes `count` samples spaced by `gap`.
    pub fn new(server: SocketAddr, count: u32, gap: SimDuration) -> Self {
        ConnectProbeClient {
            server,
            remaining: count,
            gap,
            conn: None,
            t_connect: None,
            next_at: SimTime::ZERO,
            samples: Vec::new(),
        }
    }

    /// Whether all samples were collected.
    pub fn is_done(&self) -> bool {
        self.remaining == 0 && self.conn.is_none()
    }
}

impl SocketApp for ConnectProbeClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        match self.conn {
            None => {
                if self.remaining == 0 || api.now() < self.next_at {
                    return;
                }
                self.t_connect = Some(api.now());
                self.conn = api.connect(self.server, false).ok();
            }
            Some(c) => {
                if api.is_established(c) {
                    self.samples
                        .push(api.now().duration_since(self.t_connect.expect("set")));
                    self.remaining -= 1;
                    // Tear down abruptly so the tuple is free quickly.
                    let _ = api.abort(c);
                    api.release(c);
                    self.conn = None;
                    self.next_at = api.now() + self.gap;
                } else if api.state(c).is_none()
                    || api.state(c) == Some(tcpfo_tcp::socket::TcpState::Closed)
                {
                    // Connection failed; drop the sample.
                    api.release(c);
                    self.conn = None;
                    self.remaining = self.remaining.saturating_sub(1);
                    self.next_at = api.now() + self.gap;
                }
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Summary statistics over duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationStats {
    /// Median sample.
    pub median: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
    /// Smallest sample.
    pub min: SimDuration,
}

/// Computes median/max/min of a sample set.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn duration_stats(samples: &[SimDuration]) -> DurationStats {
    assert!(!samples.is_empty(), "no samples collected");
    let mut sorted = samples.to_vec();
    sorted.sort();
    DurationStats {
        median: sorted[sorted.len() / 2],
        max: *sorted.last().expect("non-empty"),
        min: sorted[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{SinkServer, SourceServer};
    use crate::testutil::{Duplex, SERVER_IP};

    #[test]
    fn bulk_send_records_timestamps_in_order() {
        let mut net = Duplex::new();
        let mut server = SinkServer::new(5);
        let mut client = BulkSendClient::new(SocketAddr::new(SERVER_IP, 5), 300_000);
        for _ in 0..3_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        let tc = client.t_connect.unwrap();
        let te = client.t_established.unwrap();
        let tb = client.t_buffered.unwrap();
        let ta = client.t_acked.unwrap();
        assert!(tc <= te && te <= tb && tb <= ta);
        assert!(client.send_time().unwrap() <= client.acked_time().unwrap());
    }

    #[test]
    fn request_reply_verifies_pattern() {
        let mut net = Duplex::new();
        let mut server = SourceServer::new(5);
        let mut client = RequestReplyClient::new(
            SocketAddr::new(SERVER_IP, 5),
            b"SEND 50000\n".to_vec(),
            50_000,
        );
        for _ in 0..2_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        assert_eq!(client.mismatches, 0);
        // The lossless zero-latency harness can finish within one
        // virtual instant; the simulator benches measure real spans.
        assert!(client.transfer_time().is_some());
    }

    #[test]
    fn connect_probe_collects_samples() {
        let mut net = Duplex::new();
        let mut server = SinkServer::new(5);
        let mut client = ConnectProbeClient::new(
            SocketAddr::new(SERVER_IP, 5),
            5,
            SimDuration::from_millis(2),
        );
        for _ in 0..200 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        assert_eq!(client.samples.len(), 5);
        let stats = duration_stats(&client.samples);
        assert!(stats.min <= stats.median && stats.median <= stats.max);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn duration_stats_rejects_empty() {
        let _ = duration_stats(&[]);
    }
}
