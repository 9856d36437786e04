//! The on-line store — the paper's own example of a deterministic
//! service (§1): "Unless two customers compete for the last remaining
//! item, each client will get a well-defined response to a browse or
//! purchase request — independent of the fact that the server
//! implementation uses an independent thread per client."
//!
//! Protocol (line-based, one command per line):
//!
//! * `BROWSE <item>` → `ITEM <item> PRICE <p> STOCK <s>`
//! * `BUY <item> <qty>` → `ORDER <id> <item> <qty> TOTAL <t>` or
//!   `SOLDOUT <item>`
//! * `QUIT` → `BYE` and close
//!
//! Prices and initial stock derive deterministically from the item
//! name; order ids and stock are tracked **per connection** so the
//! reply stream is a pure function of the request stream (the exact
//! property active replication needs).

use crate::conn::{Conns, LineBuf, OutBuf};
use std::any::Any;
use std::collections::HashMap;
use tcpfo_tcp::app::{SocketApi, SocketApp};
use tcpfo_tcp::types::{SocketAddr, SocketId};

/// Deterministic price for an item name.
pub fn price_of(item: &str) -> u64 {
    item.bytes()
        .fold(7u64, |a, b| (a.wrapping_mul(31) + u64::from(b)) % 9973)
        + 1
}

/// Deterministic initial stock for an item name.
pub fn stock_of(item: &str) -> u64 {
    item.bytes()
        .fold(3u64, |a, b| (a.wrapping_mul(17) + u64::from(b)) % 97)
        + 1
}

/// Computes the store's reply to one command — shared by the server
/// and by the verifying client.
pub fn respond(state: &mut StoreConnState, line: &str) -> String {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("BROWSE") => {
            let item = parts.next().unwrap_or("?");
            let stock = *state
                .stock
                .entry(item.to_string())
                .or_insert_with(|| stock_of(item));
            format!("ITEM {item} PRICE {} STOCK {stock}\n", price_of(item))
        }
        Some("BUY") => {
            let item = parts.next().unwrap_or("?").to_string();
            let qty: u64 = parts.next().and_then(|q| q.parse().ok()).unwrap_or(1);
            let stock = state
                .stock
                .entry(item.clone())
                .or_insert_with(|| stock_of(&item));
            if *stock < qty {
                format!("SOLDOUT {item}\n")
            } else {
                *stock -= qty;
                state.next_order += 1;
                format!(
                    "ORDER {} {item} {qty} TOTAL {}\n",
                    state.next_order,
                    qty * price_of(&item)
                )
            }
        }
        Some("QUIT") => "BYE\n".to_string(),
        _ => "ERR unknown command\n".to_string(),
    }
}

/// Per-connection store state (stock view and order counter).
#[derive(Debug, Default, Clone)]
pub struct StoreConnState {
    /// Remaining stock as seen by this connection.
    pub stock: HashMap<String, u64>,
    /// Last order id issued on this connection.
    pub next_order: u64,
}

#[derive(Default)]
struct StoreConn {
    lines: LineBuf,
    out: OutBuf,
    state: StoreConnState,
    quitting: bool,
}

/// The store server.
pub struct StoreServer {
    conns: Conns<StoreConn>,
    /// Commands processed.
    pub commands: u64,
}

impl StoreServer {
    /// Creates a store on `port`.
    pub fn new(port: u16) -> Self {
        StoreServer {
            conns: Conns::new(port),
            commands: 0,
        }
    }

    /// Use the §7 socket-option designation for accepted connections.
    pub fn with_failover_option(mut self) -> Self {
        self.conns = self.conns.with_failover_option();
        self
    }
}

impl SocketApp for StoreServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.conns.poll(
            api,
            |_, _| StoreConn::default(),
            |api, c, conn| {
                let data = api.recv(c, usize::MAX).unwrap_or_default();
                conn.lines.push(&data);
                while let Some(line) = conn.lines.pop_line() {
                    self.commands += 1;
                    let reply = respond(&mut conn.state, &line);
                    conn.out.push(reply.as_bytes());
                    if line.trim() == "QUIT" {
                        conn.quitting = true;
                    }
                }
                conn.out.flush(api, c);
                if (conn.quitting || api.peer_closed(c)) && conn.out.is_empty() {
                    let _ = api.close(c);
                }
                conn.out.can_flush(api, c)
            },
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A scripted store client that issues commands and verifies every
/// reply against the same deterministic logic the server runs.
pub struct StoreClient {
    server: SocketAddr,
    script: Vec<String>,
    conn: Option<SocketId>,
    sent_upto: usize,
    lines: LineBuf,
    shadow: StoreConnState,
    expected: Vec<String>,
    /// Replies received so far.
    pub replies: Vec<String>,
    /// Replies that did not match the expected deterministic output.
    pub mismatches: u64,
    done: bool,
}

impl StoreClient {
    /// Creates a client that will run `script` (commands without
    /// newlines) and verify the replies.
    pub fn new(server: SocketAddr, script: Vec<String>) -> Self {
        StoreClient {
            server,
            script,
            conn: None,
            sent_upto: 0,
            lines: LineBuf::new(),
            shadow: StoreConnState::default(),
            expected: Vec::new(),
            replies: Vec::new(),
            mismatches: 0,
            done: false,
        }
    }

    /// Whether every scripted command was answered.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl SocketApp for StoreClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        if self.conn.is_none() {
            self.conn = api.connect(self.server, false).ok();
            return;
        }
        let c = self.conn.unwrap();
        if !api.is_established(c) {
            return;
        }
        // One command at a time: send the next command once the reply
        // count caught up.
        if self.sent_upto < self.script.len() && self.replies.len() == self.sent_upto {
            let cmd = self.script[self.sent_upto].clone();
            let wire = format!("{cmd}\n");
            if api.send(c, wire.as_bytes()).unwrap_or(0) == wire.len() {
                self.expected
                    .push(respond(&mut self.shadow, &cmd).trim_end().to_string());
                self.sent_upto += 1;
            }
        }
        let data = api.recv(c, usize::MAX).unwrap_or_default();
        self.lines.push(&data);
        while let Some(line) = self.lines.pop_line() {
            if self.expected.get(self.replies.len()) != Some(&line) {
                self.mismatches += 1;
            }
            self.replies.push(line);
        }
        if self.replies.len() == self.script.len() && !self.done {
            self.done = true;
            let _ = api.close(c);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{Duplex, SERVER_IP};

    fn script() -> Vec<String> {
        vec![
            "BROWSE widget".into(),
            "BUY widget 2".into(),
            "BROWSE widget".into(),
            "BUY widget 1000".into(),
            "BROWSE gadget".into(),
            "BUY gadget 1".into(),
            "QUIT".into(),
        ]
    }

    #[test]
    fn deterministic_catalog() {
        assert_eq!(price_of("widget"), price_of("widget"));
        assert_ne!(price_of("widget"), price_of("gadget"));
        assert!(stock_of("widget") >= 1);
    }

    #[test]
    fn respond_tracks_stock_and_orders() {
        let mut st = StoreConnState::default();
        let browse1 = respond(&mut st, "BROWSE thing");
        let stock = stock_of("thing");
        assert!(browse1.contains(&format!("STOCK {stock}")));
        let buy = respond(&mut st, "BUY thing 1");
        assert!(buy.starts_with("ORDER 1 thing 1 TOTAL"));
        let browse2 = respond(&mut st, "BROWSE thing");
        assert!(browse2.contains(&format!("STOCK {}", stock - 1)));
        let sold = respond(&mut st, "BUY thing 10000");
        assert_eq!(sold, "SOLDOUT thing\n");
        assert_eq!(respond(&mut st, "QUIT"), "BYE\n");
        assert!(respond(&mut st, "FROBNICATE").starts_with("ERR"));
    }

    #[test]
    fn client_verifies_full_session() {
        let mut net = Duplex::new();
        let mut server = StoreServer::new(80);
        let mut client = StoreClient::new(SocketAddr::new(SERVER_IP, 80), script());
        for _ in 0..500 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done(), "got {} replies", client.replies.len());
        assert_eq!(client.mismatches, 0, "replies: {:?}", client.replies);
        assert_eq!(server.commands, 7);
    }

    #[test]
    fn two_clients_have_independent_stock() {
        let mut net = Duplex::new();
        let mut server = StoreServer::new(80);
        let s: Vec<String> = vec!["BUY thing 1".into(), "BROWSE thing".into()];
        let mut c1 = StoreClient::new(SocketAddr::new(SERVER_IP, 80), s.clone());
        let mut c2 = StoreClient::new(SocketAddr::new(SERVER_IP, 80), s);
        for _ in 0..500 {
            net.step_multi(&mut [&mut c1, &mut c2], &mut server);
            if c1.is_done() && c2.is_done() {
                break;
            }
        }
        assert!(c1.is_done() && c2.is_done());
        assert_eq!(c1.mismatches + c2.mismatches, 0);
        assert_eq!(c1.replies, c2.replies, "per-connection determinism");
    }
}
