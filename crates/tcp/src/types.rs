//! Addressing types shared across the stack and the bridges.

use std::fmt;
use tcpfo_wire::ipv4::Ipv4Addr;

/// An (IP address, TCP port) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates an endpoint.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// The 4-tuple identifying a TCP connection (§7.1: "A TCP connection is
/// uniquely identified by the 4-tuple").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FourTuple {
    /// This host's endpoint.
    pub local: SocketAddr,
    /// The peer's endpoint.
    pub remote: SocketAddr,
}

impl FourTuple {
    /// Creates a 4-tuple.
    pub const fn new(local: SocketAddr, remote: SocketAddr) -> Self {
        FourTuple { local, remote }
    }

    /// The same connection from the peer's perspective.
    pub fn flipped(self) -> FourTuple {
        FourTuple {
            local: self.remote,
            remote: self.local,
        }
    }
}

impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<->{}", self.local, self.remote)
    }
}

/// Handle to a connection socket. Ordered, so applications can keep
/// their connections in a `BTreeMap` and serve them in the same order
/// on every run (the simulation must be reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub usize);

/// Handle to a listening socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        let b = SocketAddr::new(Ipv4Addr::new(192, 168, 0, 9), 51000);
        assert_eq!(a.to_string(), "10.0.0.1:80");
        let t = FourTuple::new(a, b);
        assert_eq!(t.to_string(), "10.0.0.1:80<->192.168.0.9:51000");
    }

    #[test]
    fn flipped_is_involution() {
        let a = SocketAddr::new(Ipv4Addr::new(1, 1, 1, 1), 1);
        let b = SocketAddr::new(Ipv4Addr::new(2, 2, 2, 2), 2);
        let t = FourTuple::new(a, b);
        assert_eq!(t.flipped().flipped(), t);
        assert_eq!(t.flipped().local, b);
    }
}
