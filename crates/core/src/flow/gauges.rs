//! Flow-table gauges: every bridge publishes its table the same way,
//! whatever the table holds.

use super::table::FlowTable;
use tcpfo_telemetry::{Gauge, Scope};

/// Registry gauges mirroring the table's [`super::FlowStats`]
/// (occupancy, inserts, capacity evictions, GC reaps, lookups, and the
/// resident count under its old name `lru_depth`), as `<scope>.flow.*`. Handles are created on the first
/// publish, so a publish on the host tick formats no name.
#[derive(Default)]
pub struct FlowGauges {
    gauges: Option<[Gauge; 6]>,
}

impl FlowGauges {
    /// Publishes `flows` at sim time `now_nanos` (`scope` being e.g.
    /// `core.primary`).
    pub fn publish<T>(&mut self, scope: &Scope, flows: &FlowTable<T>, now_nanos: u64) {
        let gauges = self.gauges.get_or_insert_with(|| {
            [
                "occupancy",
                "inserted",
                "evicted",
                "reaps",
                "lookups",
                "lru_depth",
            ]
            .map(|field| scope.gauge(&format!("flow.{field}")))
        });
        let s = flows.stats();
        let values = [
            s.occupancy,
            s.inserted,
            s.evicted,
            s.reaped,
            s.lookups,
            flows.len() as u64,
        ];
        for (g, v) in gauges.iter().zip(values) {
            g.set_at(v, now_nanos);
        }
    }
}
