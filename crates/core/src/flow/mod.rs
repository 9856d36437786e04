//! Per-flow state for the bridges.
//!
//! The paper's bridges track one record per failover connection (§3).
//! The original implementation kept those records in unbounded
//! `HashMap`s keyed by hand-assembled tuples — fine for the paper's
//! one-client experiments, unusable at production flow counts. This
//! module replaces that with:
//!
//! * [`lifecycle::FlowState`] — an explicit per-flow lifecycle
//!   (Establishing → Replicated → Degraded/Closing → TimeWait →
//!   Reaped) replacing the implicit conn/tombstone dichotomy;
//! * [`table::FlowTable`] — one table (slab + hash index + one
//!   intrusive expiry list per TTL class, which is also the eviction
//!   order) with O(1) lookup, a bounded capacity, least-recently-active
//!   eviction, timer-driven GC and statistics;
//! * [`gauges::FlowGauges`] — the registry gauges every bridge
//!   publishes, whatever its table holds.
//!
//! Keys are [`FlowKey`]s ([`crate::designation::ConnKey`] is the same
//! type), parsed once at the filter boundary.

pub mod gauges;
pub mod lifecycle;
pub mod table;

pub use gauges::FlowGauges;
pub use lifecycle::FlowState;
pub use table::{Evicted, FlowStats, FlowTable, FlowTableConfig, GcPolicy, SlotId};
pub use tcpfo_tcp::filter::FlowKey;
