//! A minimal FTP (active mode) — the paper's real-world application
//! (§9, Fig. 6).
//!
//! The client connects to the server's control port 21. For each
//! transfer it opens a listening data socket on an ephemeral port,
//! announces it with `PORT`, and issues `RETR` (get) or `STOR` (put).
//! The server then **initiates** the data connection from port 20 —
//! which, on the replicated server, exercises the paper's
//! server-initiated connection establishment (§7.2): both replicas
//! issue the SYN, the primary bridge merges them.
//!
//! Files are synthetic: named by their size in bytes, with the shared
//! deterministic pattern as content.
//!
//! Command subset: `USER`, `PASS`, `PORT <port>`, `RETR <bytes>`,
//! `STOR <bytes>`, `QUIT`.

use crate::conn::{pattern_mismatches, Conns, LineBuf, OutBuf, PatternSender};
use std::any::Any;
use tcpfo_net::time::SimTime;
use tcpfo_tcp::app::{SocketApi, SocketApp};
use tcpfo_tcp::socket::TcpState;
use tcpfo_tcp::types::{ListenerId, SocketAddr, SocketId};
use tcpfo_wire::ipv4::Ipv4Addr;

/// FTP control port.
pub const FTP_CTRL_PORT: u16 = 21;
/// FTP data port (server side, active mode).
pub const FTP_DATA_PORT: u16 = 20;

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Transfer {
    Idle,
    RetrConnecting { size: u64, data: SocketId },
    RetrSending { data: SocketId, file: PatternSender },
    RetrClosing { data: SocketId },
    StorConnecting { data: SocketId },
    StorReceiving { data: SocketId, received: u64 },
    StorClosing { data: SocketId },
}

struct CtrlConn {
    lines: LineBuf,
    out: OutBuf,
    peer_ip: Ipv4Addr,
    data_port: Option<u16>,
    transfer: Transfer,
    quitting: bool,
}

/// The FTP server application (replicate it on P and S).
pub struct FtpServer {
    conns: Conns<CtrlConn>,
    /// Completed transfers.
    pub transfers: u64,
    /// Bytes moved in either direction.
    pub bytes_moved: u64,
}

impl FtpServer {
    /// Creates the server (listens on port 21 once polled).
    pub fn new() -> Self {
        FtpServer {
            conns: Conns::new(FTP_CTRL_PORT),
            transfers: 0,
            bytes_moved: 0,
        }
    }

    fn handle_command(conn: &mut CtrlConn, line: &str, api: &mut SocketApi<'_>) {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("USER") => conn.out.push(b"331 password required\r\n"),
            Some("PASS") => conn.out.push(b"230 logged in\r\n"),
            Some("PORT") => {
                conn.data_port = parts.next().and_then(|p| p.parse().ok());
                if conn.data_port.is_some() {
                    conn.out.push(b"200 port accepted\r\n");
                } else {
                    conn.out.push(b"501 bad port\r\n");
                }
            }
            Some("RETR") => {
                let size: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                match conn.data_port {
                    Some(port) if matches!(conn.transfer, Transfer::Idle) => {
                        match api.connect_from(
                            FTP_DATA_PORT,
                            SocketAddr::new(conn.peer_ip, port),
                            false,
                        ) {
                            Ok(data) => {
                                conn.out.push(b"150 opening data connection\r\n");
                                conn.transfer = Transfer::RetrConnecting { size, data };
                            }
                            Err(_) => conn.out.push(b"425 cannot open data connection\r\n"),
                        }
                    }
                    _ => conn.out.push(b"503 bad sequence\r\n"),
                }
            }
            Some("STOR") => match conn.data_port {
                Some(port) if matches!(conn.transfer, Transfer::Idle) => {
                    match api.connect_from(
                        FTP_DATA_PORT,
                        SocketAddr::new(conn.peer_ip, port),
                        false,
                    ) {
                        Ok(data) => {
                            conn.out.push(b"150 opening data connection\r\n");
                            conn.transfer = Transfer::StorConnecting { data };
                        }
                        Err(_) => conn.out.push(b"425 cannot open data connection\r\n"),
                    }
                }
                _ => conn.out.push(b"503 bad sequence\r\n"),
            },
            Some("QUIT") => {
                conn.out.push(b"221 goodbye\r\n");
                conn.quitting = true;
            }
            _ => conn.out.push(b"500 unknown command\r\n"),
        }
    }

    /// Advances a data transfer; returns completion bytes if finished.
    fn drive_transfer(conn: &mut CtrlConn, api: &mut SocketApi<'_>) -> Option<u64> {
        match &mut conn.transfer {
            Transfer::Idle => None,
            Transfer::RetrConnecting { size, data } => {
                let (size, data) = (*size, *data);
                if api.is_established(data) {
                    conn.transfer = Transfer::RetrSending {
                        data,
                        file: PatternSender::new(0, size),
                    };
                } else if api.state(data).is_none_or(|s| s == TcpState::Closed) {
                    api.release(data);
                    conn.out.push(b"425 data connection failed\r\n");
                    conn.transfer = Transfer::Idle;
                }
                None
            }
            Transfer::RetrSending { data, file } => {
                let data = *data;
                file.drip(api, data);
                if file.is_done() && api.unacked(data) == 0 {
                    let _ = api.close(data);
                    conn.transfer = Transfer::RetrClosing { data };
                }
                None
            }
            Transfer::RetrClosing { data } => {
                let data = *data;
                // Drain until the client's FIN is consumed; TIME-WAIT
                // is handled by release (no need to linger before the
                // 226 reply).
                let _ = api.recv(data, usize::MAX);
                let done = api.peer_closed(data)
                    || api
                        .state(data)
                        .is_none_or(|s| matches!(s, TcpState::Closed | TcpState::TimeWait));
                if done {
                    api.release(data);
                    conn.out.push(b"226 transfer complete\r\n");
                    conn.transfer = Transfer::Idle;
                    return Some(0);
                }
                None
            }
            Transfer::StorConnecting { data } => {
                let data = *data;
                if api.is_established(data) {
                    conn.transfer = Transfer::StorReceiving { data, received: 0 };
                } else if api.state(data).is_none_or(|s| s == TcpState::Closed) {
                    api.release(data);
                    conn.out.push(b"425 data connection failed\r\n");
                    conn.transfer = Transfer::Idle;
                }
                None
            }
            Transfer::StorReceiving { data, received } => {
                let data = *data;
                let got = api.recv(data, usize::MAX).unwrap_or_default();
                *received += got.len() as u64;
                if api.peer_closed(data) {
                    let total = *received;
                    let _ = api.close(data);
                    conn.transfer = Transfer::StorClosing { data };
                    return Some(total);
                }
                None
            }
            Transfer::StorClosing { data } => {
                let data = *data;
                if api
                    .state(data)
                    .is_none_or(|s| matches!(s, TcpState::Closed | TcpState::TimeWait))
                {
                    api.release(data);
                    conn.out.push(b"226 transfer complete\r\n");
                    conn.transfer = Transfer::Idle;
                }
                None
            }
        }
    }
}

impl Default for FtpServer {
    fn default() -> Self {
        FtpServer::new()
    }
}

impl SocketApp for FtpServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        self.conns.poll(
            api,
            |api, c| {
                let peer_ip = api
                    .socket(c)
                    .map(|s| s.tuple.remote.ip)
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                let mut conn = CtrlConn {
                    lines: LineBuf::new(),
                    out: OutBuf::new(),
                    peer_ip,
                    data_port: None,
                    transfer: Transfer::Idle,
                    quitting: false,
                };
                conn.out.push(b"220 tcpfo ftp ready\r\n");
                conn
            },
            |api, c, conn| {
                let data = api.recv(c, usize::MAX).unwrap_or_default();
                conn.lines.push(&data);
                while let Some(line) = conn.lines.pop_line() {
                    Self::handle_command(conn, &line, api);
                }
                if let Some(bytes) = Self::drive_transfer(conn, api) {
                    self.transfers += 1;
                    self.bytes_moved += bytes;
                }
                conn.out.flush(api, c);
                let idle = matches!(conn.transfer, Transfer::Idle);
                if (conn.quitting || api.peer_closed(c)) && conn.out.is_empty() && idle {
                    let _ = api.close(c);
                }
                // The data connection is one we opened: nothing reports
                // its events, so a transfer is driven on every poll.
                !idle || conn.out.can_flush(api, c)
            },
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// One scripted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtpOp {
    /// Download `bytes` (RETR).
    Get(u64),
    /// Upload `bytes` (STOR).
    Put(u64),
}

/// Outcome of one completed transfer.
#[derive(Debug, Clone, Copy)]
pub struct FtpRecord {
    /// The operation.
    pub op: FtpOp,
    /// Bytes actually moved.
    pub bytes: u64,
    /// When the client's data stopwatch started (data connection
    /// accepted — what a real FTP client times).
    pub start: SimTime,
    /// When the client's data activity finished (all bytes received,
    /// or all bytes handed to TCP and the socket closed) — the instant
    /// a real FTP client stops its transfer stopwatch. For uploads
    /// this is why the paper's put rates for tiny files look enormous
    /// (Fig. 6): the data never left the send buffer yet.
    pub data_done: SimTime,
}

impl FtpRecord {
    /// Transfer rate in KB/s as an FTP client reports it: stopwatch
    /// from data-connection accept to [`FtpRecord::data_done`], floored
    /// at the client-side syscall + copy overhead (~400 µs fixed plus
    /// ~250 ns/byte on a 2003-era client) that the simulator does not
    /// otherwise charge. This floor is why the paper's put rates for
    /// files below the send buffer size look enormous — the data never
    /// left the client's buffer when the write returned.
    pub fn rate_kbps(&self) -> f64 {
        let d = self.data_done.duration_since(self.start);
        let overhead = 0.000_4 + self.bytes as f64 * 250e-9;
        let secs = d.as_secs_f64().max(overhead);
        self.bytes as f64 / 1000.0 / secs
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    Connect,
    Banner,
    User,
    Pass,
    SendPort,
    PortAck,
    SendCmd,
    Transferring,
    AwaitComplete,
    Quit,
    Done,
}

/// The scripted FTP client.
pub struct FtpClient {
    server: SocketAddr,
    script: Vec<FtpOp>,
    phase: ClientPhase,
    ctrl: Option<SocketId>,
    ctrl_lines: LineBuf,
    op_index: usize,
    next_data_port: u16,
    data_listener: Option<ListenerId>,
    data_conn: Option<SocketId>,
    /// Data sockets mid-FIN-handshake, released once fully closed.
    draining: Vec<SocketId>,
    /// The file being uploaded.
    put: PatternSender,
    got_bytes: u64,
    op_cmd_start: Option<SimTime>,
    op_start: Option<SimTime>,
    op_data_done: Option<SimTime>,
    /// Completed transfer records.
    pub records: Vec<FtpRecord>,
    /// Downloaded bytes that differed from the expected pattern.
    pub mismatches: u64,
}

impl FtpClient {
    /// Creates a client that runs `script` against `server`.
    pub fn new(server: SocketAddr, script: Vec<FtpOp>) -> Self {
        FtpClient {
            server,
            script,
            phase: ClientPhase::Connect,
            ctrl: None,
            ctrl_lines: LineBuf::new(),
            op_index: 0,
            next_data_port: 40_000,
            data_listener: None,
            data_conn: None,
            draining: Vec::new(),
            put: PatternSender::default(),
            got_bytes: 0,
            op_cmd_start: None,
            op_start: None,
            op_data_done: None,
            records: Vec::new(),
            mismatches: 0,
        }
    }

    /// Whether the full script (plus QUIT) completed.
    pub fn is_done(&self) -> bool {
        self.phase == ClientPhase::Done
    }

    fn pop_reply(&mut self, api: &mut SocketApi<'_>) -> Option<String> {
        let c = self.ctrl?;
        let data = api.recv(c, usize::MAX).unwrap_or_default();
        self.ctrl_lines.push(&data);
        self.ctrl_lines.pop_line()
    }

    fn send_line(&mut self, api: &mut SocketApi<'_>, line: &str) -> bool {
        let Some(c) = self.ctrl else { return false };
        let wire = format!("{line}\r\n");
        api.send(c, wire.as_bytes()).unwrap_or(0) == wire.len()
    }

    fn drive_data(&mut self, api: &mut SocketApi<'_>) -> bool {
        // Accept the server-initiated data connection; the client's
        // transfer stopwatch starts here.
        if self.data_conn.is_none() {
            if let Some(l) = self.data_listener {
                self.data_conn = api.accept(l);
                if self.data_conn.is_some() && self.op_start.is_none() {
                    self.op_start = Some(api.now());
                }
            }
        }
        let Some(d) = self.data_conn else {
            return false;
        };
        match self.script[self.op_index] {
            FtpOp::Get(expected) => {
                let got = api.recv(d, usize::MAX).unwrap_or_default();
                self.mismatches += pattern_mismatches(self.got_bytes, &got);
                self.got_bytes += got.len() as u64;
                // The client's stopwatch stops at the last data byte;
                // the close handshake is protocol bookkeeping.
                if self.got_bytes >= expected && self.op_data_done.is_none() {
                    self.op_data_done = Some(api.now());
                }
                if api.peer_closed(d) {
                    let _ = api.close(d);
                    api.release(d);
                    self.data_conn = None;
                    return true;
                }
                if api.state(d).is_none_or(|s| s == TcpState::Closed) {
                    api.release(d);
                    self.data_conn = None;
                    return true;
                }
                false
            }
            FtpOp::Put(_) => {
                if !api.is_established(d) {
                    return false;
                }
                self.put.drip(api, d);
                self.put.flush(api, d);
                if self.put.is_done() {
                    // A real client's write+close returns here — the
                    // data sits in the send buffer; the delivery and
                    // FIN handshake finish in the background.
                    if self.op_data_done.is_none() {
                        self.op_data_done = Some(api.now());
                    }
                    let _ = api.close(d);
                    self.draining.push(d);
                    self.data_conn = None;
                    return true;
                }
                false
            }
        }
    }
}

impl SocketApp for FtpClient {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        // Reap data sockets whose close handshake finished.
        self.draining.retain(|&d| {
            let _ = api.recv(d, usize::MAX); // consume the server's FIN
            let done = api
                .state(d)
                .is_none_or(|s| matches!(s, TcpState::Closed | TcpState::TimeWait));
            if done {
                api.release(d);
            }
            !done
        });
        match self.phase {
            ClientPhase::Connect => {
                if self.ctrl.is_none() {
                    self.ctrl = api.connect(self.server, false).ok();
                }
                if self.ctrl.is_some_and(|c| api.is_established(c)) {
                    self.phase = ClientPhase::Banner;
                }
            }
            ClientPhase::Banner => {
                if let Some(line) = self.pop_reply(api) {
                    debug_assert!(line.starts_with("220"), "banner: {line}");
                    if self.send_line(api, "USER anonymous") {
                        self.phase = ClientPhase::User;
                    }
                }
            }
            ClientPhase::User => {
                if let Some(line) = self.pop_reply(api) {
                    debug_assert!(line.starts_with("331"), "user: {line}");
                    if self.send_line(api, "PASS guest") {
                        self.phase = ClientPhase::Pass;
                    }
                }
            }
            ClientPhase::Pass => {
                if let Some(line) = self.pop_reply(api) {
                    debug_assert!(line.starts_with("230"), "pass: {line}");
                    self.phase = ClientPhase::SendPort;
                }
            }
            ClientPhase::SendPort => {
                if self.op_index >= self.script.len() {
                    if self.send_line(api, "QUIT") {
                        self.phase = ClientPhase::Quit;
                    }
                    return;
                }
                let port = self.next_data_port;
                self.next_data_port += 1;
                if let Ok(l) = api.listen(port, false) {
                    self.data_listener = Some(l);
                    if self.send_line(api, &format!("PORT {port}")) {
                        self.phase = ClientPhase::PortAck;
                    }
                }
            }
            ClientPhase::PortAck => {
                if let Some(line) = self.pop_reply(api) {
                    debug_assert!(line.starts_with("200"), "port: {line}");
                    self.phase = ClientPhase::SendCmd;
                }
            }
            ClientPhase::SendCmd => {
                let cmd = match self.script[self.op_index] {
                    FtpOp::Get(n) => format!("RETR {n}"),
                    FtpOp::Put(n) => {
                        self.put = PatternSender::new(0, n);
                        format!("STOR {n}")
                    }
                };
                self.got_bytes = 0;
                if self.send_line(api, &cmd) {
                    self.op_cmd_start = Some(api.now());
                    self.op_start = None;
                    self.phase = ClientPhase::Transferring;
                }
            }
            ClientPhase::Transferring => {
                // Swallow the 150 interim reply if it shows up.
                if let Some(line) = self.pop_reply(api) {
                    if line.starts_with("226") {
                        // Raced past: transfer already done.
                        self.finish_op(api);
                        return;
                    }
                    debug_assert!(line.starts_with("150"), "interim: {line}");
                }
                if self.drive_data(api) {
                    if self.op_data_done.is_none() {
                        self.op_data_done = Some(api.now());
                    }
                    self.phase = ClientPhase::AwaitComplete;
                }
            }
            ClientPhase::AwaitComplete => {
                if let Some(line) = self.pop_reply(api) {
                    if line.starts_with("150") {
                        return; // late interim
                    }
                    debug_assert!(line.starts_with("226"), "complete: {line}");
                    self.finish_op(api);
                }
            }
            ClientPhase::Quit => {
                if let Some(line) = self.pop_reply(api) {
                    debug_assert!(line.starts_with("221"), "quit: {line}");
                    if let Some(c) = self.ctrl {
                        let _ = api.close(c);
                    }
                    self.phase = ClientPhase::Done;
                }
            }
            ClientPhase::Done => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl FtpClient {
    fn finish_op(&mut self, api: &mut SocketApi<'_>) {
        let op = self.script[self.op_index];
        let bytes = match op {
            FtpOp::Get(_) => self.got_bytes,
            FtpOp::Put(n) => n,
        };
        let cmd_start = self.op_cmd_start.expect("command issued");
        // A download is timed from the RETR command (the data
        // connection setup is part of the wait for the first byte); an
        // upload from the moment the data connection is writable.
        let start = match op {
            FtpOp::Get(_) => cmd_start,
            FtpOp::Put(_) => self.op_start.unwrap_or(cmd_start),
        };
        self.records.push(FtpRecord {
            op,
            bytes,
            start,
            data_done: self.op_data_done.unwrap_or_else(|| api.now()),
        });
        self.op_data_done = None;
        self.op_cmd_start = None;
        self.op_index += 1;
        self.phase = ClientPhase::SendPort;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{Duplex, SERVER_IP};

    fn run_script(script: Vec<FtpOp>) -> (FtpClient, FtpServer) {
        run_on(&mut Duplex::new(), script)
    }

    fn run_on(net: &mut Duplex, script: Vec<FtpOp>) -> (FtpClient, FtpServer) {
        let mut server = FtpServer::new();
        let mut client = FtpClient::new(SocketAddr::new(SERVER_IP, FTP_CTRL_PORT), script);
        for _ in 0..20_000 {
            net.step(&mut client, &mut server);
            if client.is_done() {
                break;
            }
        }
        (client, server)
    }

    #[test]
    fn get_transfers_pattern_file() {
        let (client, server) = run_script(vec![FtpOp::Get(50_000)]);
        assert!(client.is_done(), "session incomplete");
        assert_eq!(client.records.len(), 1);
        assert_eq!(client.records[0].bytes, 50_000);
        assert_eq!(client.mismatches, 0);
        assert_eq!(server.transfers, 1);
        assert!(client.records[0].rate_kbps() > 0.0);
    }

    #[test]
    fn put_uploads_and_server_counts() {
        let (client, server) = run_script(vec![FtpOp::Put(30_000)]);
        assert!(client.is_done());
        assert_eq!(server.bytes_moved, 30_000);
        assert_eq!(client.records[0].bytes, 30_000);
    }

    #[test]
    fn mixed_session_multiple_transfers() {
        let (client, server) =
            run_script(vec![FtpOp::Get(200), FtpOp::Put(1_300), FtpOp::Get(18_200)]);
        assert!(client.is_done());
        assert_eq!(client.records.len(), 3);
        assert_eq!(server.transfers, 3);
        assert_eq!(client.mismatches, 0);
        // Transfers use distinct client data ports.
        assert_eq!(client.next_data_port, 40_003);
    }

    #[test]
    fn empty_script_just_logs_in_and_quits() {
        let (client, server) = run_script(vec![]);
        assert!(client.is_done());
        assert_eq!(server.transfers, 0);
        assert!(client.records.is_empty());
    }

    /// A RETR and a STOR of a few megabytes each, drip-fed from the
    /// pattern: the digest of every step's `send` call counts and every
    /// segment was recorded when each 16 KiB slab was staged in a heap
    /// buffer, and must not move.
    #[test]
    fn retr_and_stor_put_the_recorded_calls_and_bytes_on_the_wire() {
        let mut net = Duplex::new();
        let (client, server) = run_on(&mut net, vec![FtpOp::Get(3_000_000), FtpOp::Put(2_000_001)]);
        assert!(client.is_done());
        assert_eq!(client.mismatches, 0);
        assert_eq!(server.bytes_moved, 2_000_001);
        assert_eq!(
            (net.a.send_calls, net.b.send_calls, net.wire),
            (260, 289, 0x5fda_c22f_0476_1bc1)
        );
    }
}
