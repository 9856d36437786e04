#![warn(missing_docs)]

//! # tcpfo-net
//!
//! A deterministic discrete-event network simulator that stands in for
//! the *Transparent TCP Connection Failover* (DSN 2003) paper's physical
//! testbed: 100 Mb/s shared Ethernet with a hub, an IP router running
//! ARP, dedicated links, and a lossy wide-area path.
//!
//! * [`sim`] — the event loop: [`sim::Simulator`], the [`sim::Device`]
//!   trait every network element implements, and the [`sim::Ctx`]
//!   handed to devices (transmit, timers, deterministic randomness).
//! * [`time`] — nanosecond virtual clock ([`time::SimTime`],
//!   [`time::SimDuration`]).
//! * [`link`] — bandwidth/propagation/loss/queue models.
//! * [`hub`] — the **shared segment** the paper's promiscuous snooping
//!   requires; serialises all traffic on one medium.
//! * [`switch`] — learning switch (for the ablation showing snooping
//!   fails on switched segments).
//! * [`router`] — IPv4 forwarding + ARP, including the gratuitous-ARP
//!   cache update that implements IP takeover (§5).
//! * [`trace`] — packet traces with protocol-aware summaries.
//! * [`exec`] — [`exec::ShardExecutor`], the name the bridge's batch
//!   entry takes (a shim: a batch runs on the caller's thread).
//!
//! Determinism: single-threaded, seeded RNG, ties in the event heap
//! break by insertion order. Running the same scenario twice produces
//! byte-identical traces — which is what makes the paper's §4 loss
//! interleavings and §5 failover windows testable.
//!
//! # Example
//!
//! ```
//! use tcpfo_net::sim::Simulator;
//! use tcpfo_net::hub::Hub;
//! use tcpfo_net::time::SimDuration;
//!
//! let mut sim = Simulator::new(1);
//! let hub = sim.add_device(Box::new(Hub::new("segment", 3, 100_000_000)));
//! // … attach hosts to ports 0..3 with LinkParams::attachment() …
//! sim.run_for(SimDuration::from_millis(10));
//! assert_eq!(sim.now().as_millis(), 10);
//! # let _ = hub;
//! ```

pub mod exec;
pub mod hub;
pub mod link;
pub mod router;
pub mod sim;
pub mod switch;
pub mod time;
pub mod trace;

pub use exec::ShardExecutor;
pub use link::LinkParams;
pub use sim::{Ctx, Device, NodeId, Simulator, TimerToken};
pub use time::{SimDuration, SimTime};
