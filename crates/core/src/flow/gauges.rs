//! Per-shard flow-table gauges: every bridge publishes its table the
//! same way, whatever the table holds.

use super::table::FlowTable;
use tcpfo_telemetry::{Gauge, Scope};

/// One shard's gauge handles (occupancy, inserts, LRU evictions, GC
/// reaps, lookups, LRU chain depth).
struct ShardGaugeSet {
    occupancy: Gauge,
    inserted: Gauge,
    evicted: Gauge,
    reaped: Gauge,
    lookups: Gauge,
    lru_depth: Gauge,
}

/// Registry gauges mirroring each shard's [`super::ShardStats`].
/// Handles are created when a shard is first seen (the shard count can
/// change through `set_flow_config`), so a publish on the host tick
/// formats no name.
#[derive(Default)]
pub struct FlowGauges {
    shards: Vec<ShardGaugeSet>,
}

impl FlowGauges {
    /// Publishes every shard of `flows` at sim time `now_nanos`, as
    /// `<scope>.flow.shard<i>.*` (`scope` being e.g. `core.primary`).
    pub fn publish<T>(&mut self, scope: &Scope, flows: &FlowTable<T>, now_nanos: u64) {
        while self.shards.len() < flows.shard_count() {
            let i = self.shards.len();
            let gauge = |field: &str| scope.gauge(&format!("flow.shard{i}.{field}"));
            self.shards.push(ShardGaugeSet {
                occupancy: gauge("occupancy"),
                inserted: gauge("inserted"),
                evicted: gauge("evicted"),
                reaped: gauge("reaps"),
                lookups: gauge("lookups"),
                lru_depth: gauge("lru_depth"),
            });
        }
        for (i, g) in self.shards.iter().take(flows.shard_count()).enumerate() {
            let shard = flows.shard(i);
            let s = shard.stats();
            g.occupancy.set_at(s.occupancy, now_nanos);
            g.inserted.set_at(s.inserted, now_nanos);
            g.evicted.set_at(s.evicted, now_nanos);
            g.reaped.set_at(s.reaped, now_nanos);
            g.lookups.set_at(s.lookups, now_nanos);
            g.lru_depth.set_at(shard.len() as u64, now_nanos);
        }
    }
}
