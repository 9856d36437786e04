//! A multi-connection echo server — the simplest deterministic
//! replicated service: output stream ≡ input stream.

use crate::conn::{Conns, OutBuf};
use std::any::Any;
use tcpfo_tcp::app::{SocketApi, SocketApp};

/// Echo server accepting any number of connections on one port.
pub struct EchoServer {
    conns: Conns<OutBuf>,
    /// Total bytes echoed (observability).
    pub echoed: u64,
    /// Connections served to completion.
    pub completed: u64,
}

impl EchoServer {
    /// Creates an echo server on `port`.
    pub fn new(port: u16) -> Self {
        EchoServer {
            conns: Conns::new(port),
            echoed: 0,
            completed: 0,
        }
    }

    /// Designates accepted connections as failover connections via the
    /// socket option (§7 method 1).
    pub fn with_failover_option(mut self) -> Self {
        self.conns = self.conns.with_failover_option();
        self
    }
}

impl SocketApp for EchoServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.completed += self.conns.poll(
            api,
            |_, _| OutBuf::new(),
            |api, c, out| {
                out.flush(api, c);
                if out.is_empty() {
                    let data = api.recv(c, 64 * 1024).unwrap_or_default();
                    if !data.is_empty() {
                        self.echoed += data.len() as u64;
                        out.push(&data);
                        out.flush(api, c);
                    }
                }
                if api.peer_closed(c) && out.is_empty() {
                    let _ = api.close(c);
                }
                // Bytes beyond the bounded read wait for the next poll.
                if out.is_empty() {
                    api.recv_available(c) > 0
                } else {
                    out.can_flush(api, c)
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
    use crate::testutil::Duplex;
    use tcpfo_tcp::types::{SocketAddr, SocketId};
    use tcpfo_wire::ipv4::Ipv4Addr;

    /// Minimal scripted echo client used only for this module's tests.
    struct Client {
        server: SocketAddr,
        message: Vec<u8>,
        conn: Option<SocketId>,
        sent: usize,
        pub received: Vec<u8>,
    }

    impl SocketApp for Client {
        fn poll(&mut self, api: &mut SocketApi<'_>) {
            if self.conn.is_none() {
                self.conn = api.connect(self.server, false).ok();
            }
            let Some(c) = self.conn else { return };
            if !api.is_established(c) {
                return;
            }
            if self.sent < self.message.len() {
                self.sent += api.send(c, &self.message[self.sent..]).unwrap_or(0);
            }
            self.received
                .extend(api.recv(c, 64 * 1024).unwrap_or_default());
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn echoes_multiple_connections() {
        let mut net = Duplex::new();
        let mut server = EchoServer::new(7);
        let mut c1 = Client {
            server: SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 7),
            message: b"first".to_vec(),
            conn: None,
            sent: 0,
            received: Vec::new(),
        };
        let mut c2 = Client {
            server: SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 7),
            message: b"second connection".to_vec(),
            conn: None,
            sent: 0,
            received: Vec::new(),
        };
        for _ in 0..200 {
            net.step_multi(&mut [&mut c1, &mut c2], &mut server);
        }
        assert_eq!(c1.received, b"first");
        assert_eq!(c2.received, b"second connection");
        assert_eq!(server.echoed, 22);
    }
}
