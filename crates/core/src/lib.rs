#![warn(missing_docs)]

//! # tcpfo-core
//!
//! The contribution of *Transparent TCP Connection Failover* (Koch,
//! Hortikar, Moser, Melliar-Smith — DSN 2003): a *bridge* sublayer
//! between the TCP and IP layers of a primary and a secondary server
//! that lets a TCP server endpoint fail over at any point in a
//! connection's lifetime, transparently to an unmodified client and to
//! the actively-replicated server application.
//!
//! * [`primary`] — the bridge: output-queue matching, `Δseq`
//!   synchronisation, `min(ack)`/`min(win)` merging, the §3.4
//!   empty-ACK rule, §4 retransmission recognition, §8 termination,
//!   §6 secondary-failure degradation — and, as a role it carries, its
//!   place in a daisy chain: head, middle link and tail are each a
//!   [`PrimaryBridge`] built by [`PrimaryBridge::link`]. Below the head
//!   it diverts egress one hop up with the original-destination option
//!   and rewrites ingress `vip → own`; the tail — the paper's secondary
//!   bridge — is a link with nobody below it, in §6 from the start.
//! * [`secondary`] — the tail's old name, [`SecondaryBridge`], kept for
//!   the standing benchmark.
//! * [`queues`] — the primary/secondary output queues of Figure 2.
//! * [`designation`] — §7's two ways of marking failover connections.
//! * [`flow`] — the sharded flow table the bridge stores per-flow
//!   state in: explicit lifecycle, capacity limits, LRU eviction,
//!   timer-driven GC, per-shard stats.
//! * [`observers`] — the observer seam: the one [`Observers`] value a
//!   bridge of any role holds, and the bridge's observable moments as
//!   methods on it.
//! * [`detector`] — the heartbeat fault detector's parameters.
//! * [`chain`] — the one control plane ([`ChainController`]: heartbeats,
//!   the §5 takeover — gratuitous ARP + TCB re-keying — and the §6
//!   degradation; the pair is the chain `[a_p, a_s]`) and how deeper
//!   daisy chains place one bridge at every position.
//! * [`testbed`] — the paper's Figure-1 topology (client, router,
//!   shared segment, P, S, optional back-end T) as a one-call builder,
//!   including the standard-TCP baseline and the switch ablation.
//!
//! # Example
//!
//! ```
//! use tcpfo_core::testbed::{Testbed, TestbedConfig};
//! use tcpfo_net::time::SimDuration;
//!
//! // The paper's replicated testbed with port 80 designated (§7
//! // method 2), ready to run.
//! let mut tb = Testbed::new(TestbedConfig::default());
//! tb.run_for(SimDuration::from_millis(5));
//! assert!(tb.secondary.is_some());
//! ```

pub mod chain;
pub mod chain_testbed;
pub mod designation;
pub mod detector;
pub mod flow;
pub mod observers;
pub mod primary;
pub mod queues;
pub mod reprovision;
pub mod secondary;
pub mod testbed;

pub use chain::{ChainBridge, ChainController, TakeoverState};
pub use chain_testbed::{ChainConfig, ChainTestbed};
pub use designation::{ConnKey, FailoverConfig};
pub use detector::DetectorConfig;
pub use flow::{FlowKey, FlowState, FlowTable, FlowTableConfig};
pub use observers::Observers;
pub use primary::{ConnRow, PrimaryBridge, PrimaryMode, PrimaryStats};
pub use reprovision::{FlowHandoff, ReprovisionPhase, ReprovisionTracker};
pub use secondary::SecondaryBridge;
pub use testbed::{SegmentKind, Testbed, TestbedConfig};
