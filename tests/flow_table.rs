//! Cross-crate exercises of the `tcpfo-core` flow-table subsystem:
//! eviction order, capacity limits, GC TTLs, iteration order and
//! stat accounting — through the public API only.

use proptest::prelude::*;
use tcp_failover::core::flow::{FlowState, FlowTable, FlowTableConfig, GcPolicy};
use tcp_failover::core::FlowKey;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::ipv4::Ipv4Addr;

fn key(i: u32) -> FlowKey {
    let ip = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
    FlowKey::new(80, SocketAddr::new(ip, 40_000 + (i % 20_000) as u16))
}

fn table(cap: usize) -> FlowTable<u32> {
    FlowTable::new(FlowTableConfig::new(1, cap))
}

#[test]
fn insert_get_remove_roundtrip() {
    let mut t = table(64);
    assert!(t.is_empty());
    for i in 0..50 {
        assert!(t.insert(key(i), FlowState::Replicated, i, 0).1.is_none());
    }
    assert_eq!(t.len(), 50);
    for i in 0..50 {
        let slot = t.find(&key(i)).expect("resident");
        assert_eq!(t.peek(&key(i)), Some(&i));
        assert_eq!(t.state(slot), FlowState::Replicated);
    }
    let slot = t.find(&key(7)).expect("resident");
    assert_eq!(t.remove(slot), (FlowState::Replicated, 7));
    assert!(!t.contains(&key(7)));
    assert_eq!(t.len(), 49);
}

#[test]
fn lru_evicts_least_recently_used() {
    let mut t = table(4);
    for i in 0..4 {
        t.insert(key(i), FlowState::Replicated, i, i as u64);
    }
    // Touch 0 so 1 becomes the LRU tail.
    t.get_mut(&key(0), 10);
    let ev = t.insert(key(99), FlowState::Replicated, 99, 11).1.unwrap();
    assert_eq!(ev.key, key(1), "least-recently-used flow is evicted");
    assert!(t.contains(&key(0)));
    assert!(t.contains(&key(99)));
    assert_eq!(t.stats().evicted, 1);
}

#[test]
fn entering_timewait_is_activity_for_eviction() {
    let mut t = table(2);
    let a = t.insert(key(0), FlowState::Replicated, 0, 1).0;
    t.set_state(a, FlowState::Closing, 2);
    t.insert(key(1), FlowState::Replicated, 1, 3);
    // Flow 0 moves Closing -> TimeWait at t = 5: a class change, so it
    // is now more recently active than flow 1, last touched at t = 3.
    t.set_state(a, FlowState::TimeWait, 5);
    let ev = t.insert(key(2), FlowState::Establishing, 2, 6).1.unwrap();
    assert_eq!(ev.key, key(1), "the flow last active at t = 3 goes");
    assert!(t.contains(&key(0)));
}

#[test]
fn eviction_tie_takes_timewait_residue_first() {
    let tw = (key(0), FlowState::TimeWait);
    let live = (key(1), FlowState::Replicated);
    for order in [[tw, live], [live, tw]] {
        let mut t = table(2);
        for (k, st) in order {
            t.insert(k, st, 0, 7);
        }
        let ev = t.insert(key(2), FlowState::Establishing, 2, 8).1.unwrap();
        assert_eq!(ev.key, key(0), "tie at t = 7: residue before a live flow");
        assert_eq!(ev.state, FlowState::TimeWait);
        assert!(t.contains(&key(1)));
    }
}

#[test]
fn replace_in_place_never_evicts() {
    let mut t = table(2);
    t.insert(key(0), FlowState::Replicated, 0, 0);
    t.insert(key(1), FlowState::Replicated, 1, 0);
    // Same-key insert at capacity replaces in place — no eviction, and
    // the state resets without a lifecycle transition check (tuple
    // reuse across failover epochs).
    let (slot, evicted) = t.insert(key(0), FlowState::Establishing, 42, 1);
    assert!(evicted.is_none());
    assert_eq!(t.len(), 2);
    assert_eq!(t.peek(&key(0)), Some(&42));
    assert_eq!(t.state(slot), FlowState::Establishing);
}

#[test]
fn gc_reaps_timewait_after_ttl_and_spares_live_flows() {
    let mut t = table(64);
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
    assert_eq!(t.stats().reaped, 3);
}

#[test]
fn iteration_order_is_slab_order() {
    // Determinism contract: iter() yields slab order — independent of
    // hash history or access order.
    let mut t = table(64);
    for i in (0..40).rev() {
        t.insert(key(i), FlowState::Replicated, i, 0);
    }
    // Touching entries must not change iteration order (it is slab
    // order, not LRU order).
    for i in 0..40 {
        t.get_mut(&key(i), 5);
    }
    let order: Vec<u32> = t.iter().map(|(_, _, &d)| d).collect();
    assert_eq!(
        order,
        (0..40).rev().collect::<Vec<_>>(),
        "insertion fills the slab in order"
    );
    let again: Vec<u32> = t.iter().map(|(_, _, &d)| d).collect();
    assert_eq!(order, again);
}

#[test]
fn stats_count_lookups_and_inserts() {
    let mut t = table(16);
    t.insert(key(0), FlowState::Replicated, 0, 0);
    t.get_mut(&key(0), 1);
    t.get_mut(&key(1), 1);
    let s = t.stats();
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
    fn new(in_place: bool) -> Self {
        let mut cfg = FlowTableConfig::new(1, 8);
        cfg.gc = GcPolicy {
            timewait_ttl: 50,
            idle_ttl: 200,
        };
        Driver {
            table: FlowTable::new(cfg),
            in_place,
        }
    }

    /// Keyed removal: probe, then take the entry out of its slot.
    fn detach(&mut self, k: FlowKey) -> Option<(FlowState, u32)> {
        let slot = self.table.find(&k)?;
        Some(self.table.remove(slot))
    }

    /// A SYN: a fresh entry, over whatever the tuple left behind.
    /// Returns the capacity-eviction victim, if any.
    fn open(&mut self, k: FlowKey, data: u32, now: u64) -> Option<Entry> {
        let st = FlowState::Establishing;
        let evicted = match self.table.find(&k) {
            Some(slot) if self.in_place => {
                self.table.replace(slot, st, data, now);
                None
            }
            _ => self.table.insert(k, st, data, now).1,
        };
        evicted.map(|ev| (ev.key, ev.state, ev.data))
    }

    /// A segment on a resident flow: activity, new data, and the state
    /// its progress implies (`to`; `None` keeps the current one).
    fn segment(&mut self, k: FlowKey, data: u32, to: Option<FlowState>, now: u64) {
        if self.in_place {
            let Some(slot) = self.table.find(&k) else {
                return;
            };
            *self.table.touch(slot, now) = data;
            let st = to.unwrap_or(self.table.state(slot));
            self.table.set_state(slot, st, now);
        } else if let Some((st, _)) = self.detach(k) {
            let (_, evicted) = self.table.insert(k, to.unwrap_or(st), data, now);
            assert!(evicted.is_none(), "the detached entry's room is free");
        }
    }

    /// Residue takes the connection's place (§8 teardown, §6).
    fn supersede(&mut self, k: FlowKey, st: FlowState, data: u32, now: u64) {
        if self.in_place {
            if let Some(slot) = self.table.find(&k) {
                self.table.replace(slot, st, data, now);
            }
        } else if self.detach(k).is_some() {
            self.table.insert(k, st, data, now);
        }
    }

    /// A replica RST: the entry goes.
    fn reset(&mut self, k: FlowKey) -> Option<(FlowState, u32)> {
        self.detach(k)
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
    /// same eviction victims (same activity order), same GC reap order (same
    /// expiry-list order and `last_activity`).
    #[test]
    fn prop_slot_api_equals_detach_and_reinsert(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..200,
        ),
    ) {
        let mut slot = Driver::new(true);
        let mut keyed = Driver::new(false);
        let mut now = 0u64;
        for (i, &(sel, ki, pick, dt)) in ops.iter().enumerate() {
            now += u64::from(dt % 40);
            let k = key(u32::from(ki) % 12);
            let data = i as u32;
            // Lifecycle progress is chosen from what the entry's state
            // allows (`set_state` asserts legality; `insert` does not).
            let next = slot.table.find(&k).map(|s| slot.table.state(s)).and_then(|st| {
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
        // GC-exempt rest by eviction, in activity order.
        let end = now + 1_000;
        prop_assert_eq!(slot.gc(end), keyed.gc(end));
        for n in 0..16 {
            let k = key(100 + n);
            prop_assert_eq!(slot.open(k, n, end), keyed.open(k, n, end));
        }
        let (a, b) = (slot.table.stats(), keyed.table.stats());
        prop_assert_eq!((a.occupancy, a.evicted, a.reaped), (b.occupancy, b.evicted, b.reaped));
    }
}
