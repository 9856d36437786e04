//! Application interface.
//!
//! Applications (the replicated servers and the clients of the paper's
//! experiments) are level-triggered state machines: the host calls
//! [`SocketApp::poll`] after every network event and clock tick, and
//! the app drives its sockets through the [`SocketApi`]. Determinism of
//! the *application* given the same input stream is the paper's §1
//! requirement for active replication; a poll-style API makes that easy
//! to honour — there are no callbacks whose ordering could diverge
//! between the primary and the secondary.
//!
//! # Readiness
//!
//! A server with thousands of open connections must not look at each of
//! them on every poll. For *accepted* connections the stack therefore
//! keeps, per listener, the set that had a stack event since the owner
//! last asked, and [`SocketApi::take_ready`] hands it over:
//!
//! * **What wakes a connection:** a segment demultiplexed to it (data,
//!   an ACK that frees send-buffer space, FIN, RST) and a timer of its
//!   own that fired (which is how TIME-WAIT expiry and a retransmission
//!   give-up, both ending in `Closed`, reach the owner so it releases
//!   the handle). A socket made by [`TcpStack::adopt`] belongs to the
//!   listener on its local port and wakes like any other.
//! * **Per owner:** wake-ups are keyed by the accepting listener, as
//!   [`SocketApi::accept`] is, so two servers on one host cannot drain
//!   each other's.
//! * **Level-triggered, by the application's half:** the stack reports
//!   events, not conditions. An owner that leaves work it could do
//!   without a new segment — unread bytes after a bounded read, staged
//!   output the send buffer would still take — keeps that connection on
//!   its own list for the next poll. A newly accepted connection is
//!   served in the poll that accepts it.
//! * **Order:** the owner serves what it gathered in ascending
//!   [`SocketId`] order. `send` emits at once, so the order of service
//!   is the order of replies on the wire, and it must be the order the
//!   serve-everything loop had.
//!
//! Skipping a connection that is not ready is sound because serving it
//! would have been a no-op: nothing it could read, push or observe has
//! changed. `connect()`-side sockets have no listener and keep the pull
//! API: their application asks about each one it holds.

use crate::socket::{Socket, TcpState};
use crate::stack::{StackError, TcpStack};
use crate::types::{ListenerId, SocketAddr, SocketId};
use std::any::Any;
use tcpfo_net::time::SimTime;
use tcpfo_wire::ipv4::Ipv4Addr;

/// The capability handed to applications on each poll.
pub struct SocketApi<'a> {
    pub(crate) stack: &'a mut TcpStack,
    pub(crate) now: SimTime,
    pub(crate) local_ip: Ipv4Addr,
}

impl<'a> SocketApi<'a> {
    /// Creates an API view over a stack (also used by tests/benches).
    pub fn new(stack: &'a mut TcpStack, now: SimTime, local_ip: Ipv4Addr) -> Self {
        SocketApi {
            stack,
            now,
            local_ip,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This host's primary IP address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.local_ip
    }

    /// Opens a listener. `failover` is the §7 socket-option method.
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the port is taken.
    pub fn listen(&mut self, port: u16, failover: bool) -> Result<ListenerId, StackError> {
        self.stack.listen(port, failover)
    }

    /// Accepts a pending connection, if any completed the handshake.
    pub fn accept(&mut self, listener: ListenerId) -> Option<SocketId> {
        self.stack.accept(listener)
    }

    /// Appends to `out` the connections of `listener` that had a stack
    /// event since the last call, in no particular order (see the
    /// module documentation for the readiness contract).
    pub fn take_ready(&mut self, listener: ListenerId, out: &mut Vec<SocketId>) {
        self.stack.take_ready(listener, out)
    }

    /// Starts an active open. `failover` is the §7 socket-option
    /// method for client-side (server-initiated, §7.2) connections.
    ///
    /// # Errors
    ///
    /// [`StackError::PortsExhausted`] if no ephemeral port is free.
    pub fn connect(&mut self, remote: SocketAddr, failover: bool) -> Result<SocketId, StackError> {
        self.stack
            .connect(self.local_ip, remote, failover, self.now)
    }

    /// Active open from a specific local port (FTP active mode uses
    /// port 20 for data connections).
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the 4-tuple is taken.
    pub fn connect_from(
        &mut self,
        local_port: u16,
        remote: SocketAddr,
        failover: bool,
    ) -> Result<SocketId, StackError> {
        self.stack
            .connect_from(self.local_ip, Some(local_port), remote, failover, self.now)
    }

    /// Writes bytes; returns how many were buffered.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn send(&mut self, id: SocketId, data: &[u8]) -> Result<usize, StackError> {
        self.stack.send(id, data, self.now)
    }

    /// Reads up to `max` bytes.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn recv(&mut self, id: SocketId, max: usize) -> Result<Vec<u8>, StackError> {
        self.stack.recv(id, max, self.now)
    }

    /// Half-closes the send direction.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn close(&mut self, id: SocketId) -> Result<(), StackError> {
        self.stack.close(id, self.now)
    }

    /// Aborts with RST.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn abort(&mut self, id: SocketId) -> Result<(), StackError> {
        self.stack.abort(id, self.now)
    }

    /// Releases a finished socket handle.
    pub fn release(&mut self, id: SocketId) {
        self.stack.release(id, self.now)
    }

    /// Socket state, or `None` for a released handle.
    pub fn state(&self, id: SocketId) -> Option<TcpState> {
        self.stack.socket(id).map(|s| s.state)
    }

    /// Immutable socket view (counters, establishment, …).
    pub fn socket(&self, id: SocketId) -> Option<&Socket> {
        self.stack.socket(id)
    }

    /// `true` once the connection is usable for data.
    pub fn is_established(&self, id: SocketId) -> bool {
        self.stack
            .socket(id)
            .map(|s| s.is_established())
            .unwrap_or(false)
    }

    /// Bytes readable right now.
    pub fn recv_available(&self, id: SocketId) -> usize {
        self.stack
            .socket(id)
            .map(|s| s.recv_available())
            .unwrap_or(0)
    }

    /// Free send-buffer space.
    pub fn send_space(&self, id: SocketId) -> usize {
        self.stack.socket(id).map(|s| s.send_space()).unwrap_or(0)
    }

    /// Bytes written but not yet acknowledged end-to-end.
    pub fn unacked(&self, id: SocketId) -> usize {
        self.stack.socket(id).map(|s| s.unacked()).unwrap_or(0)
    }

    /// `true` when the peer has closed and all its data was read.
    pub fn peer_closed(&self, id: SocketId) -> bool {
        self.stack
            .socket(id)
            .map(|s| s.peer_closed())
            .unwrap_or(true)
    }
}

/// A deterministic, poll-driven application.
pub trait SocketApp: 'static {
    /// Advances the application; called after every event on the host.
    /// Implementations must be idempotent when nothing changed.
    fn poll(&mut self, api: &mut SocketApi<'_>);

    /// Downcast access for tests and measurements.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcpConfig;

    struct Probe {
        polled: u32,
    }

    impl SocketApp for Probe {
        fn poll(&mut self, api: &mut SocketApi<'_>) {
            self.polled += 1;
            assert_eq!(api.local_ip(), Ipv4Addr::new(9, 9, 9, 9));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn api_wraps_stack_operations() {
        let mut stack = TcpStack::new(TcpConfig::default());
        let mut api = SocketApi::new(&mut stack, SimTime::ZERO, Ipv4Addr::new(9, 9, 9, 9));
        let l = api.listen(80, false).unwrap();
        assert!(api.accept(l).is_none());
        let id = api
            .connect(SocketAddr::new(Ipv4Addr::new(1, 1, 1, 1), 80), false)
            .unwrap();
        assert!(!api.is_established(id));
        assert_eq!(api.state(id), Some(TcpState::SynSent));
        assert_eq!(api.recv_available(id), 0);
        let mut probe = Probe { polled: 0 };
        probe.poll(&mut api);
        assert_eq!(probe.polled, 1);
    }
}
