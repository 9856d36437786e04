//! PR-7 property tests: the incremental (expiry-list) GC must reap
//! exactly the set a full-slab sweep would, at every tick, for
//! arbitrary interleavings of insert / touch / set_state / remove with
//! monotone sim time — and a budgeted tick must never reap early, only
//! late, eventually draining the whole backlog.
//!
//! The oracle is a plain map of `key -> (state, last_activity)` with
//! the table's documented activity semantics: insert and touch stamp
//! `last_activity = now`; a state change that moves the flow between
//! TTL classes (TimeWait vs everything else, §6's Degraded included)
//! also counts as activity; a same-class transition does not restamp.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use tcp_failover::core::flow::{FlowState, FlowTable, FlowTableConfig, GcPolicy};
use tcp_failover::core::FlowKey;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::ipv4::Ipv4Addr;

const KEYS: u32 = 24;
const TIMEWAIT_TTL: u64 = 50;
const IDLE_TTL: u64 = 200;

fn key(i: u32) -> FlowKey {
    let ip = Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8);
    FlowKey::new(80, SocketAddr::new(ip, 40_000 + i as u16))
}

fn table() -> FlowTable<u32> {
    let mut cfg = FlowTableConfig::new(1, 4 * KEYS as usize);
    cfg.gc = GcPolicy {
        timewait_ttl: TIMEWAIT_TTL,
        idle_ttl: IDLE_TTL,
    };
    FlowTable::new(cfg)
}

fn state_of(sel: u8) -> FlowState {
    match sel % 5 {
        0 => FlowState::Establishing,
        1 => FlowState::Replicated,
        2 => FlowState::Closing,
        3 => FlowState::TimeWait,
        _ => FlowState::Degraded,
    }
}

/// The TTL class GC cares about: TimeWait, or idle (every other state).
fn class_of(state: FlowState) -> u64 {
    match state {
        FlowState::TimeWait => TIMEWAIT_TTL,
        _ => IDLE_TTL,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ModelFlow {
    state: FlowState,
    last_activity: u64,
}

/// Full-sweep oracle: every flow whose TTL has elapsed at `now`.
fn oracle_due(model: &HashMap<FlowKey, ModelFlow>, now: u64) -> HashSet<FlowKey> {
    model
        .iter()
        .filter(|(_, f)| now.saturating_sub(f.last_activity) >= class_of(f.state))
        .map(|(k, _)| *k)
        .collect()
}

/// Applies one op to table and oracle alike, returning the new clock.
fn step(
    table: &mut FlowTable<u32>,
    model: &mut HashMap<FlowKey, ModelFlow>,
    op: (u8, u8, u8, u8),
    now: u64,
) -> u64 {
    let (sel, ki, ss, dt) = op;
    let now = now + u64::from(dt % 40);
    let k = key(u32::from(ki) % KEYS);
    match sel % 4 {
        0 => {
            // Insert (or replace): fresh state machine, la = now. The
            // table is sized so capacity eviction never fires here.
            let st = state_of(ss);
            assert!(
                table.insert(k, st, 0, now).1.is_none(),
                "no eviction expected"
            );
            model.insert(
                k,
                ModelFlow {
                    state: st,
                    last_activity: now,
                },
            );
        }
        1 => {
            // Touch via get_mut: stamps activity if present.
            let hit = table.get_mut(&k, now).is_some();
            if let Some(f) = model.get_mut(&k) {
                assert!(hit);
                f.last_activity = now;
            } else {
                assert!(!hit);
            }
        }
        2 => {
            // set_state, legal transitions only; the skip decision is
            // driven by the oracle so both sides see the same sequence.
            if let Some(f) = model.get_mut(&k) {
                let st = state_of(ss);
                if f.state != st && f.state.can_transition(st) {
                    let slot = table.find(&k).expect("the model holds it");
                    table.set_state(slot, st, now);
                    if class_of(f.state) != class_of(st) {
                        f.last_activity = now;
                    }
                    f.state = st;
                }
            }
        }
        _ => {
            let removed = table.find(&k).map(|slot| table.remove(slot)).is_some();
            assert_eq!(removed, model.remove(&k).is_some());
        }
    }
    now
}

proptest! {
    /// Unbudgeted incremental GC reaps the *identical* flow set as the
    /// full-sweep oracle at every tick.
    #[test]
    fn prop_incremental_gc_matches_full_sweep_oracle(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..120,
        ),
    ) {
        let mut t = table();
        let mut model: HashMap<FlowKey, ModelFlow> = HashMap::new();
        let mut now = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            now = step(&mut t, &mut model, op, now);
            // Tick every few ops so expiry interleaves with mutation.
            if i % 5 == 4 {
                let due = oracle_due(&model, now);
                let mut reaped = HashSet::new();
                let mut doubles = 0usize;
                t.gc(now, &mut |ev| {
                    if !reaped.insert(ev.key) {
                        doubles += 1;
                    }
                });
                prop_assert_eq!(doubles, 0, "double reap at now={}", now);
                prop_assert_eq!(&reaped, &due, "tick at now={}", now);
                for k in &due {
                    model.remove(k);
                }
                prop_assert_eq!(t.len(), model.len());
            }
        }
        // A final distant tick drains everything.
        let end = now + IDLE_TTL + 1;
        let due = oracle_due(&model, end);
        let mut reaped = HashSet::new();
        t.gc(end, &mut |ev| {
            reaped.insert(ev.key);
        });
        prop_assert_eq!(&reaped, &due);
        for k in &due { model.remove(k); }
        prop_assert!(t.is_empty() && model.is_empty());
    }

    /// Budgeted GC never reaps early — every reaped flow was due per
    /// the oracle — and repeated budget-limited ticks eventually drain
    /// the entire backlog (delayed, never lost).
    #[test]
    fn prop_budgeted_gc_never_early_and_eventually_drains(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..120,
        ),
        budget in 1usize..8,
    ) {
        let mut t = table();
        let mut model: HashMap<FlowKey, ModelFlow> = HashMap::new();
        let mut now = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            now = step(&mut t, &mut model, op, now);
            if i % 5 == 4 {
                let due = oracle_due(&model, now);
                let mut reaped = HashSet::new();
                let n = t.gc_budgeted(now, budget, &mut |ev| {
                    reaped.insert(ev.key);
                });
                prop_assert!(n <= budget, "budget overrun: {} > {}", n, budget);
                prop_assert_eq!(n, reaped.len());
                // Never early: everything reaped was due.
                prop_assert!(reaped.is_subset(&due), "early reap at now={}", now);
                // Budget binds: either all due flows went, or exactly
                // `budget` did and backlog remains.
                prop_assert!(n == due.len() || n == budget);
                for k in &reaped { model.remove(k); }
            }
        }
        // Drain: keep ticking at a fixed distant time until dry; the
        // backlog carried over a budget must come out in full.
        let end = now + IDLE_TTL + 1;
        let mut rounds = 0usize;
        loop {
            let mut reaped = HashSet::new();
            let n = t.gc_budgeted(end, budget, &mut |ev| {
                reaped.insert(ev.key);
            });
            prop_assert!(n <= budget);
            prop_assert!(reaped.is_subset(&oracle_due(&model, end)));
            for k in &reaped { model.remove(k); }
            if n == 0 { break; }
            rounds += 1;
            prop_assert!(rounds <= 4 * KEYS as usize, "drain does not converge");
        }
        prop_assert!(oracle_due(&model, end).is_empty(), "backlog lost under budget");
        prop_assert!(t.is_empty() && model.is_empty());
    }
}
