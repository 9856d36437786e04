#![warn(missing_docs)]

//! # tcpfo-tcp
//!
//! A from-scratch userspace TCP stack over the `tcpfo-net` simulator,
//! built for the *Transparent TCP Connection Failover* (DSN 2003)
//! reproduction.
//!
//! The stack implements the RFC 793 state machine with sliding-window
//! flow control, Reno congestion control, retransmission timeouts
//! (Jacobson/Karels estimation, Karn's rule, exponential backoff), fast
//! retransmit on triple duplicate ACKs, delayed ACKs, Nagle, the MSS
//! option, zero-window probing and TIME-WAIT — the behaviours the
//! paper's bridge must coexist with (§3, §4, §8).
//!
//! The deliberate extension point is [`filter::SegmentFilter`]: every
//! segment crossing the TCP/IP boundary, in either direction, passes
//! through the host's filter. That boundary is exactly where the paper
//! inserts its *bridge* sublayer; `tcpfo-core` provides the primary and
//! secondary bridge implementations.
//!
//! Layering (one [`host::Host`] per simulated machine):
//!
//! * [`app`] — poll-driven deterministic applications ([`app::SocketApp`])
//! * [`stack`] — demux, listeners, ports, ISNs ([`stack::TcpStack`])
//! * [`socket`] — the TCB and state machine ([`socket::Socket`])
//! * [`filter`] — the TCP/IP-boundary hook (the paper's bridge site)
//! * [`host`] — NIC (promiscuous mode), ARP, IP, controller hook
//!
//! Supporting modules: [`buffer`] (send/reassembly buffers), [`seq`]
//! (wrapping sequence arithmetic), [`rtt`] (RTO estimation),
//! [`config`], [`types`].

pub mod app;
pub mod buffer;
pub mod config;
pub mod filter;
pub mod host;
pub mod rtt;
pub use tcpfo_wire::seq;
pub mod socket;
pub mod stack;
pub mod types;

pub use app::{SocketApi, SocketApp};
pub use config::TcpConfig;
pub use filter::{AddressedSegment, FailoverRule, FilterOutput, NoopFilter, SegmentFilter};
pub use host::{spawn_host, Host, HostConfig, HostController, HostServices};
pub use socket::{Socket, SocketError, TcpState};
pub use stack::{StackError, TcpStack};
pub use types::{FourTuple, ListenerId, SocketAddr, SocketId};
