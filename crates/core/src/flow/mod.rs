//! Sharded per-flow state for the bridges.
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
//! * [`table::FlowTable`] — a sharded table (power-of-two shard count,
//!   per-shard slab + hash index + intrusive LRU list) with O(1)
//!   lookup, configurable capacity, LRU eviction, timer-driven GC and
//!   per-shard statistics;
//! * [`gauges::FlowGauges`] — the per-shard registry gauges every
//!   bridge publishes, whatever its table holds.
//!
//! Keys are [`FlowKey`]s ([`crate::designation::ConnKey`] is the same
//! type), parsed once at the filter boundary; the deterministic
//! [`FlowKey::hash64`] picks the shard, so a fixed seed maps every
//! flow to the same shard in every run.

pub mod gauges;
pub mod lifecycle;
pub mod table;

pub use gauges::FlowGauges;
pub use lifecycle::FlowState;
pub use table::{Evicted, FlowTable, FlowTableConfig, GcPolicy, Shard, ShardStats, SlotId};
pub use tcpfo_tcp::filter::FlowKey;
