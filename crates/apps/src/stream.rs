//! Stream workload servers for the §9 measurements.
//!
//! * [`SinkServer`] — discards and counts whatever clients send
//!   (client→server transfers, Fig. 3 and the Fig. 5 send rate).
//! * [`SourceServer`] — replies to `SEND <n>\n` requests with `n`
//!   deterministic pattern bytes (server→client transfers, Fig. 4 and
//!   the Fig. 5 receive rate). Deterministic on the byte stream, so it
//!   replicates actively.

use crate::conn::{Conns, LineBuf, PatternSender};
use std::any::Any;
use tcpfo_tcp::app::{SocketApi, SocketApp};
use tcpfo_tcp::types::SocketId;

/// Counts and discards incoming bytes.
pub struct SinkServer {
    conns: Conns<()>,
    /// Per-poll read budget; `usize::MAX` = drain eagerly. A small
    /// budget makes this replica a *slow consumer*, shrinking its
    /// advertised window — §3.2's min-window rule then throttles the
    /// client to this replica's pace.
    pub read_budget: usize,
    /// Total bytes swallowed across all connections.
    pub received: u64,
}

impl SinkServer {
    /// Creates a sink on `port`.
    pub fn new(port: u16) -> Self {
        SinkServer {
            conns: Conns::new(port),
            read_budget: usize::MAX,
            received: 0,
        }
    }

    /// Turns this sink into a slow consumer reading at most `budget`
    /// bytes per poll.
    pub fn with_read_budget(mut self, budget: usize) -> Self {
        self.read_budget = budget;
        self
    }

    /// Use the §7 socket-option designation for accepted connections.
    pub fn with_failover_option(mut self) -> Self {
        self.conns = self.conns.with_failover_option();
        self
    }
}

impl SocketApp for SinkServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.conns.poll(
            api,
            |_, _| (),
            |api, c, ()| {
                let data = api.recv(c, self.read_budget).unwrap_or_default();
                self.received += data.len() as u64;
                if api.peer_closed(c) {
                    let _ = api.close(c);
                }
                // A budgeted read leaves the rest for the next poll.
                api.recv_available(c) > 0
            },
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-connection source state.
#[derive(Default)]
struct SourceConn {
    lines: LineBuf,
    /// The current response, drip-fed to bound memory.
    reply: PatternSender,
}

/// Replies to `SEND <n>` requests with `n` pattern bytes.
pub struct SourceServer {
    conns: Conns<SourceConn>,
    /// Total bytes served.
    pub served: u64,
    /// Requests handled.
    pub requests: u64,
    /// Times a connection was looked at: proportional to the
    /// connections with traffic, not to the connections open.
    pub services: u64,
}

impl SourceServer {
    /// Creates a source on `port`.
    pub fn new(port: u16) -> Self {
        SourceServer {
            conns: Conns::new(port),
            served: 0,
            requests: 0,
            services: 0,
        }
    }

    /// Use the §7 socket-option designation for accepted connections.
    pub fn with_failover_option(mut self) -> Self {
        self.conns = self.conns.with_failover_option();
        self
    }

    /// The port this source listens on.
    pub fn port(&self) -> u16 {
        self.conns.port()
    }

    /// Snapshot of every live connection's response progress:
    /// `(socket, offset, remaining)` — the handoff inputs for PR9
    /// reprovisioning. Bytes still staged app-side have not reached the
    /// socket, so they count as *remaining*, not progress: the adopting
    /// replica regenerates them.
    pub fn conn_progress(&self) -> Vec<(SocketId, u64, u64)> {
        self.conns
            .iter()
            .map(|(c, st)| {
                let (offset, remaining) = st.reply.progress();
                (c, offset, remaining)
            })
            .collect()
    }

    /// Adopts a connection mid-response (PR9 reprovisioning handoff):
    /// the socket was rebuilt by `Stack::adopt`, and the deterministic
    /// pattern stream resumes at `offset` with `remaining` bytes still
    /// owed. Served bytes below the offset were counted by the replica
    /// this flow was handed off from.
    pub fn adopt_conn(&mut self, c: SocketId, offset: u64, remaining: u64) {
        self.conns.adopt(
            c,
            SourceConn {
                reply: PatternSender::new(offset, remaining),
                ..SourceConn::default()
            },
        );
    }
}

impl SocketApp for SourceServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.conns.poll(
            api,
            |_, _| SourceConn::default(),
            |api, c, st| {
                self.services += 1;
                let data = api.recv(c, usize::MAX).unwrap_or_default();
                st.lines.push(&data);
                // One request at a time: the next is parsed once the
                // reply before it is all TCP's.
                while st.reply.is_done() {
                    let Some(line) = st.lines.pop_line() else {
                        break;
                    };
                    if let Some(n) = line
                        .strip_prefix("SEND ")
                        .and_then(|v| v.parse::<u64>().ok())
                    {
                        st.reply = PatternSender::new(0, n);
                        self.requests += 1;
                    }
                }
                self.served += st.reply.drip(api, c);
                st.reply.flush(api, c);
                if api.peer_closed(c) && st.reply.is_done() {
                    let _ = api.close(c);
                }
                // The next request is parsed a poll after the previous
                // reply was handed over; everything else waits for an ACK.
                if st.reply.is_done() {
                    st.lines.has_line()
                } else {
                    api.send_space(c) > 0
                }
            },
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pattern_byte;
    use crate::driver::{BulkSendClient, RequestReplyClient};
    use crate::testutil::{Duplex, SERVER_IP};
    use tcpfo_tcp::types::SocketAddr;

    #[test]
    fn sink_counts_bulk_send() {
        let mut net = Duplex::new();
        let mut server = SinkServer::new(9);
        let mut client = BulkSendClient::new(SocketAddr::new(SERVER_IP, 9), 200_000);
        for _ in 0..2_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done(), "bulk send did not finish");
        assert_eq!(server.received, 200_000);
    }

    #[test]
    fn source_serves_requested_bytes() {
        let mut net = Duplex::new();
        let mut server = SourceServer::new(9);
        let mut client = RequestReplyClient::new(
            SocketAddr::new(SERVER_IP, 9),
            b"SEND 100000\n".to_vec(),
            100_000,
        );
        for _ in 0..2_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(
            client.is_done(),
            "reply incomplete: {}",
            client.received_len()
        );
        assert_eq!(server.requests, 1);
        // Spot-check the pattern at a few offsets.
        for off in [0usize, 1, 77_777, 99_999] {
            assert_eq!(client.received_byte(off), pattern_byte(off as u64));
        }
    }

    #[test]
    fn source_handles_sequential_requests_on_one_connection() {
        let mut net = Duplex::new();
        let mut server = SourceServer::new(9);
        let mut client = RequestReplyClient::new(
            SocketAddr::new(SERVER_IP, 9),
            b"SEND 500\nSEND 500\n".to_vec(),
            1_000,
        );
        for _ in 0..200 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        assert_eq!(server.requests, 2);
    }

    /// A multi-megabyte reply, drip-fed from the pattern: the digest of
    /// every step's `send` call counts and every segment was recorded
    /// when each 16 KiB slab was staged in a heap buffer, and must not
    /// move.
    #[test]
    fn a_long_reply_puts_the_recorded_calls_and_bytes_on_the_wire() {
        const TOTAL: u64 = 5_000_003;
        let mut net = Duplex::new();
        let mut server = SourceServer::new(9);
        let mut client = RequestReplyClient::new(
            SocketAddr::new(SERVER_IP, 9),
            format!("SEND {TOTAL}\n").into_bytes(),
            TOTAL,
        );
        for _ in 0..20_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        assert_eq!(client.mismatches, 0);
        assert_eq!(server.served, TOTAL);
        assert_eq!((net.b.send_calls, net.wire), (458, 0x95e4_d2d1_8f2d_6465));
    }
}
