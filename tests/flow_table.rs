//! Cross-crate exercises of the `tcpfo-core` flow-table subsystem:
//! LRU eviction order, capacity limits, GC TTLs, shard placement
//! stability and stat accounting — through the public API only.

use proptest::prelude::*;
use tcp_failover::core::flow::{FlowState, FlowTable, FlowTableConfig, GcPolicy};
use tcp_failover::core::FlowKey;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::ipv4::Ipv4Addr;

fn key(i: u32) -> FlowKey {
    let ip = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
    FlowKey::new(80, SocketAddr::new(ip, 40_000 + (i % 20_000) as u16))
}

fn table(shards: usize, cap: usize) -> FlowTable<u32> {
    FlowTable::new(FlowTableConfig::new(shards, cap))
}

#[test]
fn insert_get_remove_roundtrip() {
    let mut t = table(4, 64);
    assert!(t.is_empty());
    for i in 0..50 {
        assert!(t.insert(key(i), FlowState::Replicated, i, 0).is_none());
    }
    assert_eq!(t.len(), 50);
    for i in 0..50 {
        assert_eq!(t.peek(&key(i)), Some(&i));
        assert_eq!(t.state(&key(i)), Some(FlowState::Replicated));
    }
    assert_eq!(t.remove(&key(7)), Some((FlowState::Replicated, 7)));
    assert!(!t.contains(&key(7)));
    assert_eq!(t.len(), 49);
}

#[test]
fn lru_evicts_least_recently_used() {
    // Single shard so the LRU order is global and observable.
    let mut t = table(1, 4);
    for i in 0..4 {
        t.insert(key(i), FlowState::Replicated, i, i as u64);
    }
    // Touch 0 so 1 becomes the LRU tail.
    t.get_mut(&key(0), 10);
    let ev = t.insert(key(99), FlowState::Replicated, 99, 11).unwrap();
    assert_eq!(ev.key, key(1), "least-recently-used flow is evicted");
    assert!(t.contains(&key(0)));
    assert!(t.contains(&key(99)));
    assert_eq!(t.stats_total().evicted, 1);
}

#[test]
fn replace_in_place_never_evicts() {
    let mut t = table(1, 2);
    t.insert(key(0), FlowState::Replicated, 0, 0);
    t.insert(key(1), FlowState::Replicated, 1, 0);
    // Same-key insert at capacity replaces in place — no eviction, and
    // the state resets without a lifecycle transition check (tuple
    // reuse across failover epochs).
    assert!(t.insert(key(0), FlowState::Establishing, 42, 1).is_none());
    assert_eq!(t.len(), 2);
    assert_eq!(t.peek(&key(0)), Some(&42));
    assert_eq!(t.state(&key(0)), Some(FlowState::Establishing));
}

#[test]
fn gc_reaps_timewait_after_ttl_and_spares_live_flows() {
    let mut t = table(2, 64);
    let policy = GcPolicy::default();
    t.insert(key(0), FlowState::TimeWait, 0, 0);
    t.insert(key(1), FlowState::Replicated, 1, 0);
    t.insert(key(2), FlowState::Degraded, 2, 0);

    let mut reaped = Vec::new();
    t.gc(policy.timewait_ttl - 1, &mut |ev| reaped.push(ev.key));
    assert!(reaped.is_empty(), "nothing reaped before the TTL");

    t.gc(policy.timewait_ttl + 1, &mut |ev| reaped.push(ev.key));
    assert_eq!(reaped, vec![key(0)], "only the expired TimeWait entry");
    assert!(t.contains(&key(1)));
    assert!(
        t.contains(&key(2)),
        "Degraded flows outlast the TimeWait TTL (§6: pass-through)"
    );

    // The idle TTL is a leak backstop for live and degraded flows alike.
    reaped.clear();
    t.gc(policy.idle_ttl + 2, &mut |ev| reaped.push(ev.key));
    reaped.sort_by_key(|k| k.peer.port);
    assert_eq!(reaped, vec![key(1), key(2)]);
    assert_eq!(t.stats_total().reaped, 3);
}

#[test]
fn shard_placement_is_stable_and_key_derived() {
    let t = table(8, 1024);
    assert_eq!(t.shard_count(), 8);
    for i in 0..500 {
        let k = key(i);
        let s = t.shard_of(&k);
        assert!(s < 8);
        assert_eq!(s, t.shard_of(&k), "same key, same shard, always");
        assert_eq!(s, k.shard_of(8), "table defers to the key's own hash");
    }
    // The hash must actually spread: 500 keys over 8 shards should
    // leave no shard empty.
    let mut hist = [0u32; 8];
    for i in 0..500 {
        hist[t.shard_of(&key(i))] += 1;
    }
    assert!(
        hist.iter().all(|&c| c > 0),
        "degenerate shard spread: {hist:?}"
    );
}

#[test]
fn shard_count_rounds_to_power_of_two() {
    for (asked, got) in [(0, 1), (1, 1), (3, 4), (5, 8), (8, 8), (9, 16)] {
        assert_eq!(
            FlowTableConfig::new(asked, 16).shards,
            got,
            "shards({asked})"
        );
    }
}

#[test]
fn iteration_order_is_shard_then_slab() {
    // Determinism contract: iter() yields shard 0's slab order, then
    // shard 1's, … — independent of hash history or access order.
    let mut t = table(4, 64);
    for i in (0..40).rev() {
        t.insert(key(i), FlowState::Replicated, i, 0);
    }
    // Touching entries must not change iteration order (it is slab
    // order, not LRU order).
    for i in 0..40 {
        t.get_mut(&key(i), 5);
    }
    let order: Vec<FlowKey> = t.iter().map(|(k, _, _)| k).collect();
    let mut shard_of_prev = 0;
    for k in &order {
        let s = t.shard_of(k);
        assert!(s >= shard_of_prev, "shards visited in ascending order");
        shard_of_prev = s;
    }
    let again: Vec<FlowKey> = t.iter().map(|(k, _, _)| k).collect();
    assert_eq!(order, again);
}

#[test]
fn stats_count_lookups_and_inserts() {
    let mut t = table(2, 16);
    t.insert(key(0), FlowState::Replicated, 0, 0);
    t.get_mut(&key(0), 1);
    t.get_mut(&key(1), 1);
    let s = t.stats_total();
    assert_eq!(s.inserted, 1);
    assert_eq!(s.occupancy, 1);
    assert!(s.lookups >= 2, "hits and misses both count: {s:?}");
}

// ---------------------------------------------------------------------
// Slot API ≡ detach + re-insert
// ---------------------------------------------------------------------

/// One table entry as `iter()` and the eviction/GC reports show it.
type Entry = (FlowKey, FlowState, u32);

/// The bridges' vocabulary over a table, spoken two ways: through the
/// slot API (resolve once, mutate in place) and through keyed `remove`
/// then `insert` (detach the entry, put it back), which is what the
/// primary's engine did before it mutated flows where they sit.
struct Driver {
    table: FlowTable<u32>,
    in_place: bool,
}

impl Driver {
    fn new(shards: usize, in_place: bool) -> Self {
        let mut cfg = FlowTableConfig::new(shards, 8);
        cfg.gc = GcPolicy {
            timewait_ttl: 50,
            idle_ttl: 200,
            ..GcPolicy::default()
        };
        Driver {
            table: FlowTable::new(cfg),
            in_place,
        }
    }

    /// A SYN: a fresh entry, over whatever the tuple left behind.
    /// Returns the capacity-eviction victim, if any.
    fn open(&mut self, k: FlowKey, data: u32, now: u64) -> Option<Entry> {
        let st = FlowState::Establishing;
        let evicted = if self.in_place {
            let shard = self.table.for_key_mut(&k);
            match shard.find(&k) {
                Some(slot) => {
                    shard.replace(slot, st, data, now);
                    None
                }
                None => shard.insert(k, st, data, now).1,
            }
        } else {
            self.table.insert(k, st, data, now)
        };
        evicted.map(|ev| (ev.key, ev.state, ev.data))
    }

    /// A segment on a resident flow: activity, new data, and the state
    /// its progress implies (`to`; `None` keeps the current one).
    fn segment(&mut self, k: FlowKey, data: u32, to: Option<FlowState>, now: u64) {
        if self.in_place {
            let shard = self.table.for_key_mut(&k);
            let Some(slot) = shard.find(&k) else { return };
            *shard.touch(slot, now) = data;
            let st = to.unwrap_or(shard.state(slot));
            shard.set_state(slot, st, now);
        } else if let Some((st, _)) = self.table.remove(&k) {
            let evicted = self.table.insert(k, to.unwrap_or(st), data, now);
            assert!(evicted.is_none(), "the detached entry's room is free");
        }
    }

    /// Residue takes the connection's place (§8 teardown, §6).
    fn supersede(&mut self, k: FlowKey, st: FlowState, data: u32, now: u64) {
        if self.in_place {
            let shard = self.table.for_key_mut(&k);
            if let Some(slot) = shard.find(&k) {
                shard.replace(slot, st, data, now);
            }
        } else if self.table.remove(&k).is_some() {
            self.table.insert(k, st, data, now);
        }
    }

    /// A replica RST: the entry goes.
    fn reset(&mut self, k: FlowKey) -> Option<(FlowState, u32)> {
        if self.in_place {
            let shard = self.table.for_key_mut(&k);
            shard.find(&k).map(|slot| shard.remove(slot))
        } else {
            self.table.remove(&k)
        }
    }

    fn gc(&mut self, now: u64) -> Vec<Entry> {
        let mut reaped = Vec::new();
        self.table
            .gc(now, &mut |ev| reaped.push((ev.key, ev.state, ev.data)));
        reaped
    }

    fn entries(&self) -> Vec<Entry> {
        self.table.iter().map(|(k, st, &d)| (k, st, d)).collect()
    }
}

proptest! {
    /// One random op sequence — opens past a capacity of 8, segments
    /// with and without lifecycle progress, residue taking a slot,
    /// resets, GC at an advancing clock — leaves a table driven through
    /// the slot API and one driven through keyed detach + re-insert
    /// indistinguishable: same `iter()` order (so same slot indices),
    /// same eviction victims (same LRU order), same GC reap order (same
    /// expiry-list order and `last_activity`).
    #[test]
    fn prop_slot_api_equals_detach_and_reinsert(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..200,
        ),
        shards in prop_oneof![Just(1usize), Just(2usize)],
    ) {
        let mut slot = Driver::new(shards, true);
        let mut keyed = Driver::new(shards, false);
        let mut now = 0u64;
        for (i, &(sel, ki, pick, dt)) in ops.iter().enumerate() {
            now += u64::from(dt % 40);
            let k = key(u32::from(ki) % 12);
            let data = i as u32;
            // Lifecycle progress is chosen from what the entry's state
            // allows (`set_state` asserts legality; `insert` does not).
            let next = slot.table.state(&k).and_then(|st| {
                use FlowState::*;
                let legal: Vec<FlowState> = [Replicated, Closing, Degraded, TimeWait]
                    .into_iter()
                    .filter(|&to| to != st && st.can_transition(to))
                    .collect();
                (!legal.is_empty()).then(|| legal[usize::from(pick) % legal.len()])
            });
            match sel % 8 {
                0 | 1 => prop_assert_eq!(slot.open(k, data, now), keyed.open(k, data, now)),
                2 | 3 => {
                    slot.segment(k, data, None, now);
                    keyed.segment(k, data, None, now);
                }
                4 => {
                    slot.segment(k, data, next, now);
                    keyed.segment(k, data, next, now);
                }
                5 => {
                    let st = if pick % 2 == 0 { FlowState::TimeWait } else { FlowState::Degraded };
                    slot.supersede(k, st, data, now);
                    keyed.supersede(k, st, data, now);
                }
                6 => prop_assert_eq!(slot.reset(k), keyed.reset(k)),
                _ => prop_assert_eq!(slot.gc(now), keyed.gc(now), "reap order at {}", now),
            }
            prop_assert_eq!(slot.entries(), keyed.entries(), "after op {}", i);
        }
        // Drain: first everything GC may take, in its order, then the
        // GC-exempt rest by eviction, in LRU order.
        let end = now + 1_000;
        prop_assert_eq!(slot.gc(end), keyed.gc(end));
        for n in 0..16 {
            let k = key(100 + n);
            prop_assert_eq!(slot.open(k, n, end), keyed.open(k, n, end));
        }
        let (a, b) = (slot.table.stats_total(), keyed.table.stats_total());
        prop_assert_eq!((a.occupancy, a.evicted, a.reaped), (b.occupancy, b.evicted, b.reaped));
    }
}
