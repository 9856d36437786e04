//! Designating TCP failover connections (§7).
//!
//! The paper implements two methods: a per-socket option set by the
//! application (method 1) and a configured set of port numbers
//! (method 2). "The user must specify the same set of ports on the
//! primary server host and the secondary server host."

use tcpfo_tcp::types::SocketAddr;
use tcpfo_wire::hash::FastSet;
use tcpfo_wire::ipv4::Ipv4Addr;

/// A connection as the bridges key it: the replicated server's port and
/// the unreplicated peer's endpoint. This is the canonical
/// [`tcpfo_tcp::filter::FlowKey`] under its historical name — the key
/// is parsed once at the filter boundary and used verbatim for
/// designation and flow-table lookup.
pub use tcpfo_tcp::filter::FlowKey as ConnKey;

/// Which connections are TCP failover connections.
///
/// # Example
///
/// ```
/// use tcpfo_core::designation::{ConnKey, FailoverConfig};
/// use tcpfo_tcp::types::SocketAddr;
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// // §7 method 2: a port set, identical on both replicas…
/// let mut cfg = FailoverConfig::from_ports([80, 21, 20]);
/// // …combined with §7 method 1: per-socket designation.
/// let client = SocketAddr::new(Ipv4Addr::new(192, 168, 0, 9), 5555);
/// cfg.add_conn(ConnKey::new(8443, client));
/// assert!(cfg.matches(80, client.ip, 1234));
/// assert!(cfg.matches(8443, client.ip, 5555));
/// assert!(!cfg.matches(8443, client.ip, 5556));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FailoverConfig {
    /// Method 2: server ports whose connections always fail over.
    ports: FastSet<u16>,
    /// Method 1: individually designated connections.
    conns: FastSet<ConnKey>,
}

impl FailoverConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        FailoverConfig::default()
    }

    /// Creates a configuration from a port set (method 2).
    pub fn from_ports(ports: impl IntoIterator<Item = u16>) -> Self {
        FailoverConfig {
            ports: ports.into_iter().collect(),
            conns: FastSet::default(),
        }
    }

    /// Adds a failover port (method 2).
    pub fn add_port(&mut self, port: u16) {
        self.ports.insert(port);
    }

    /// Designates a single connection (method 1, the socket option).
    pub fn add_conn(&mut self, key: ConnKey) {
        self.conns.insert(key);
    }

    /// Whether a connection with the given server port and peer is a
    /// failover connection.
    pub fn matches(&self, server_port: u16, peer_ip: Ipv4Addr, peer_port: u16) -> bool {
        self.ports.contains(&server_port)
            || self.conns.contains(&ConnKey::new(
                server_port,
                SocketAddr::new(peer_ip, peer_port),
            ))
    }

    /// Whether anything at all is designated.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty() && self.conns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEER: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);

    #[test]
    fn port_method_matches_any_peer() {
        let cfg = FailoverConfig::from_ports([80, 21]);
        assert!(cfg.matches(80, PEER, 5000));
        assert!(cfg.matches(21, Ipv4Addr::new(1, 2, 3, 4), 9));
        assert!(!cfg.matches(443, PEER, 5000));
    }

    #[test]
    fn socket_option_method_matches_exact_connection() {
        let mut cfg = FailoverConfig::new();
        cfg.add_conn(ConnKey::new(443, SocketAddr::new(PEER, 5000)));
        assert!(cfg.matches(443, PEER, 5000));
        assert!(!cfg.matches(443, PEER, 5001), "different client port");
        assert!(!cfg.matches(444, PEER, 5000), "different server port");
    }

    #[test]
    fn methods_combine() {
        let mut cfg = FailoverConfig::from_ports([80]);
        cfg.add_conn(ConnKey::new(443, SocketAddr::new(PEER, 5000)));
        assert!(cfg.matches(80, PEER, 1));
        assert!(cfg.matches(443, PEER, 5000));
        assert!(!cfg.is_empty());
        assert!(FailoverConfig::new().is_empty());
    }
}
