//! The flow table.
//!
//! A [`FlowTable`] owns a slab of slots (index-stable, free-list
//! recycled), a hash index from [`FlowKey`] to slot, and one intrusive
//! expiry list per TTL class threaded through the slots. All per-flow
//! operations are O(1); iteration is in slab-slot order, which is
//! deterministic for a fixed event sequence (unlike `HashMap`
//! iteration, whose order changes run to run with `std`'s seeded hasher
//! — the previous bridge code iterated such maps during §6
//! degradation). The index keeps `std`'s keyed hasher: the client
//! chooses the key, so a fixed hash would let it choose the collisions
//! too.
//!
//! A per-segment caller resolves its flow **once**: [`FlowTable::find`]
//! is the only keyed probe, and everything after it — state, data,
//! touch, lifecycle change, replacement, removal — takes the [`SlotId`]
//! it returned and hashes nothing. The keyed helpers
//! ([`FlowTable::get_mut`], [`FlowTable::peek`],
//! [`FlowTable::contains`]) are `find` + the slot form.
//!
//! # Activity order (TTL-class expiry lists)
//!
//! Every slot is threaded onto one of two intrusive **expiry lists**,
//! one per TTL class: TimeWait residue (`timewait_ttl`) and every other
//! flow, §6 pass-through entries included (`idle_ttl`). Each `insert` /
//! `replace` / `touch` / class-changing `set_state` is *activity*: it
//! moves the slot to the *back* of its class list with
//! `last_activity = now`. Because sim time is monotone, each list is
//! ordered by `last_activity`, so it is at once the class's LRU order
//! and its deadline order (`last_activity + ttl`).
//!
//! Expiry never sweeps the slab. A GC tick pops expired slots off the
//! list fronts only — O(reaped), never O(capacity) — optionally bounded
//! by a reap budget ([`FlowTable::gc_budgeted`]); backlog left by
//! a budget-exhausted tick is still at the list fronts on the next one.
//! Reaps are never early; under budget pressure they are delayed but
//! never lost.
//!
//! Memory is bounded and follows occupancy: the table holds at most
//! [`FlowTableConfig::capacity`] flows, and its slab and index grow by
//! doubling with the flows resident, not with the capacity (DESIGN §14,
//! *Slab growth*). Inserting into a full table evicts the least-recently-active entry: the older of the two
//! list fronts by `last_activity`, TimeWait residue first on a tie
//! ([`Evicted`] is handed back to the caller, which owns the policy —
//! the primary bridge resets evicted live clients).

use super::lifecycle::FlowState;
use std::cell::Cell;
use std::collections::HashMap;
use tcpfo_tcp::filter::FlowKey;

/// Sentinel for "no slot" in the intrusive expiry links.
const NONE: u32 = u32::MAX;

/// Number of TTL classes (expiry lists).
const EXP_CLASSES: usize = 2;
/// Expiry class for §8 TimeWait residue.
const EXP_TIMEWAIT: usize = 0;
/// Expiry class for live flows (idle-TTL leak backstop).
const EXP_IDLE: usize = 1;

/// The expiry class a state belongs to.
fn exp_class(state: FlowState) -> usize {
    match state {
        FlowState::TimeWait => EXP_TIMEWAIT,
        _ => EXP_IDLE,
    }
}

/// Time-to-live policy for [`FlowTable::gc`], all in sim nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct GcPolicy {
    /// How long §8 TimeWait residue is kept so late FIN
    /// retransmissions still get re-ACKed (the paper keeps tombstones
    /// "for some time"; we use TCP's conventional 60 s).
    pub timewait_ttl: u64,
    /// Idle TTL for every flow not in TimeWait (Establishing /
    /// Replicated / Closing / Degraded): generous, because reaping a
    /// genuinely live flow breaks it. This is a leak backstop, not a
    /// policy knob.
    pub idle_ttl: u64,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            timewait_ttl: 60_000_000_000, // 60 s sim
            idle_ttl: 3_600_000_000_000,  // 1 h sim
        }
    }
}

impl GcPolicy {
    /// The TTL for an expiry class.
    fn class_ttl(&self, class: usize) -> u64 {
        match class {
            EXP_TIMEWAIT => self.timewait_ttl,
            _ => self.idle_ttl,
        }
    }
}

/// Construction parameters for a [`FlowTable`].
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Most flows the table holds; inserting one more evicts the
    /// least-recently-active.
    pub capacity: usize,
    /// GC policy.
    pub gc: GcPolicy,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            capacity: 65_536,
            gc: GcPolicy::default(),
        }
    }
}

impl FlowTableConfig {
    /// Config with total capacity `capacity` (at least 1). `_shards` is
    /// ignored: the table is one table, and the argument stays only
    /// because the standing benchmark builds its configs with it
    /// (ROADMAP 2(e)).
    pub fn new(_shards: usize, capacity: usize) -> Self {
        FlowTableConfig {
            capacity: capacity.max(1),
            gc: GcPolicy::default(),
        }
    }
}

/// Flow-table statistics (backpressure counters included).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Flows currently resident.
    pub occupancy: u64,
    /// Flows ever inserted (an entry replaced or mutated in its slot
    /// is not a new flow).
    pub inserted: u64,
    /// Flows evicted under capacity pressure.
    pub evicted: u64,
    /// Flows reaped by GC (TTL expiry).
    pub reaped: u64,
    /// Keyed probes of the hash index ([`FlowTable::find`], hits and
    /// misses, whoever asked).
    pub lookups: u64,
}

/// A flow pushed out of the table, handed back to the caller.
#[derive(Debug)]
pub struct Evicted<T> {
    /// The evicted flow's key.
    pub key: FlowKey,
    /// Its state at eviction time.
    pub state: FlowState,
    /// Its data.
    pub data: T,
}

/// A resolved flow: the slab slot [`FlowTable::find`] (or
/// [`FlowTable::insert`]) found its entry in. Valid until the table's
/// next `insert`, `remove`, GC or drain — in the bridges, for the one
/// segment that resolved it; a `SlotId` is passed down a call chain,
/// never stored. A stale one panics or names another flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// One slab slot.
#[derive(Debug)]
struct Slot<T> {
    key: FlowKey,
    state: FlowState,
    /// Last touch (insert / replace / touch / class change), sim ns.
    last_activity: u64,
    /// Intrusive expiry-list links within its TTL class's list (slot
    /// indices; [`NONE`] terminates).
    exp_prev: u32,
    exp_next: u32,
    data: T,
}

/// Head/tail of one intrusive expiry list (FIFO: push at the tail,
/// reap and evict from the head — activity order, given monotone
/// `now`).
#[derive(Debug, Clone, Copy)]
struct ExpList {
    head: u32,
    tail: u32,
}

impl Default for ExpList {
    fn default() -> Self {
        ExpList {
            head: NONE,
            tail: NONE,
        }
    }
}

/// The flow table: slab + hash index + expiry lists + stats.
#[derive(Debug)]
pub struct FlowTable<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    index: HashMap<FlowKey, u32>,
    /// One FIFO expiry list per TTL class.
    exp: [ExpList; EXP_CLASSES],
    config: FlowTableConfig,
    stats: FlowStats,
    /// [`FlowStats::lookups`], counted behind `&self`.
    lookups: Cell<u64>,
}

impl<T> FlowTable<T> {
    /// Builds a table per `config`.
    pub fn new(config: FlowTableConfig) -> Self {
        // Nothing is reserved: a reserved index is resident at once (its
        // control bytes are written here, and a hash spreads even a few
        // keys over every page of its buckets), so a table sized for its
        // limit costs the limit. The slab and index double as flows
        // arrive; the doublings up to a population happen while it is
        // being established, not after.
        let capacity = config.capacity.max(1);
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            exp: [ExpList::default(); EXP_CLASSES],
            config: FlowTableConfig { capacity, ..config },
            stats: FlowStats::default(),
            lookups: Cell::new(0),
        }
    }

    /// The construction config.
    pub fn config(&self) -> &FlowTableConfig {
        &self.config
    }

    /// Statistics (readable by telemetry exporters).
    pub fn stats(&self) -> FlowStats {
        FlowStats {
            lookups: self.lookups.get(),
            ..self.stats
        }
    }

    /// Resident flow count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no flows are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Resolves `key` to its slot: the one keyed probe (one hash) a
    /// segment pays. Not activity.
    pub fn find(&self, key: &FlowKey) -> Option<SlotId> {
        self.lookups.set(self.lookups.get() + 1);
        self.index.get(key).map(|&i| SlotId(i))
    }

    /// The flow's key.
    pub fn key(&self, slot: SlotId) -> FlowKey {
        self.slot(slot.0).key
    }

    /// The flow's state (not activity).
    pub fn state(&self, slot: SlotId) -> FlowState {
        self.slot(slot.0).state
    }

    /// Whether `key` is resident (not activity).
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.find(key).is_some()
    }

    /// The data of `key`'s flow (not activity).
    pub fn peek(&self, key: &FlowKey) -> Option<&T> {
        self.find(key).map(|slot| self.get(slot))
    }

    /// [`FlowTable::touch`] by key.
    pub fn get_mut(&mut self, key: &FlowKey, now: u64) -> Option<&mut T> {
        let slot = self.find(key)?;
        Some(self.touch(slot, now))
    }

    /// Shared access that is not activity (diagnostics, designation
    /// checks).
    pub fn get(&self, slot: SlotId) -> &T {
        &self.slot(slot.0).data
    }

    /// Mutable access that is not activity: for a caller that already
    /// [`FlowTable::touch`]ed the slot for the segment in hand.
    pub fn data_mut(&mut self, slot: SlotId) -> &mut T {
        &mut self.slot_mut(slot.0).data
    }

    /// Mutable access as activity: `last_activity = now`, and the slot
    /// re-queued at the back of its expiry list (its deadline just moved
    /// out, and it is the class's most recently active).
    pub fn touch(&mut self, slot: SlotId, now: u64) -> &mut T {
        let i = slot.0;
        let class = exp_class(self.slot(i).state);
        self.exp_unlink(i, class);
        self.exp_push_back(i, class);
        let s = self.slot_mut(i);
        s.last_activity = now;
        &mut s.data
    }

    /// Moves the flow to `state`; debug-asserts the transition is
    /// legal. A transition that changes the TTL class counts as
    /// activity: the slot re-enters its new expiry list at the back
    /// with `last_activity = now`, which keeps every list
    /// deadline-ordered.
    pub fn set_state(&mut self, slot: SlotId, state: FlowState, now: u64) {
        let i = slot.0;
        let old = self.slot(i).state;
        debug_assert!(
            old == state || old.can_transition(state),
            "illegal flow transition {} -> {} for {}",
            old,
            state,
            self.slot(i).key
        );
        if old == state {
            return;
        }
        let (old_class, new_class) = (exp_class(old), exp_class(state));
        if old_class != new_class {
            self.exp_unlink(i, old_class);
            self.exp_push_back(i, new_class);
        }
        let s = self.slot_mut(i);
        s.state = state;
        if old_class != new_class {
            s.last_activity = now;
        }
    }

    /// Puts a fresh entry in an occupied slot — new state machine, same
    /// key, same slot — and returns the data it held. Counts as
    /// activity; the lifecycle is not consulted (tuple reuse, §6/§8
    /// residue taking a connection's place, a handed-off §6 entry live).
    pub fn replace(&mut self, slot: SlotId, state: FlowState, data: T, now: u64) -> T {
        let i = slot.0;
        self.exp_unlink(i, exp_class(self.slot(i).state));
        let s = self.slot_mut(i);
        s.state = state;
        s.last_activity = now;
        let old = std::mem::replace(&mut s.data, data);
        self.exp_push_back(i, exp_class(state));
        old
    }

    /// Inserts a flow and returns the slot it landed in; over a
    /// resident key this is [`FlowTable::replace`]. At capacity, the
    /// least-recently-active entry (see the module docs) is evicted
    /// first and returned — the caller owns the eviction policy (e.g.
    /// resetting the evicted flow's client).
    pub fn insert(
        &mut self,
        key: FlowKey,
        state: FlowState,
        data: T,
        now: u64,
    ) -> (SlotId, Option<Evicted<T>>) {
        if let Some(slot) = self.find(&key) {
            self.replace(slot, state, data, now);
            return (slot, None);
        }
        let evicted = if self.index.len() >= self.config.capacity {
            let victim = self.victim();
            self.stats.evicted += 1;
            self.remove_slot(victim)
        } else {
            None
        };
        let fresh = Some(Slot {
            key,
            state,
            last_activity: now,
            exp_prev: NONE,
            exp_next: NONE,
            data,
        });
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = fresh;
                i
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(key, slot);
        self.exp_push_back(slot, exp_class(state));
        self.stats.inserted += 1;
        self.stats.occupancy = self.index.len() as u64;
        (SlotId(slot), evicted)
    }

    /// Removes a flow, returning its state and data.
    pub fn remove(&mut self, slot: SlotId) -> (FlowState, T) {
        let ev = self.remove_slot(slot.0).expect("live slot");
        (ev.state, ev.data)
    }

    /// Reaps every flow whose TTL has expired, invoking `reaped` for
    /// each with the state it held before reaping.
    pub fn gc(&mut self, now: u64, reaped: &mut dyn FnMut(Evicted<T>)) {
        self.gc_budgeted(now, usize::MAX, reaped);
    }

    /// Reaps at most `budget` expired flows, popping each expiry list
    /// front while its deadline (`last_activity + ttl`) has passed.
    /// O(reaped), never O(capacity). Returns the number reaped; a
    /// return equal to `budget` means backlog may remain.
    pub fn gc_budgeted(
        &mut self,
        now: u64,
        budget: usize,
        reaped: &mut dyn FnMut(Evicted<T>),
    ) -> usize {
        let mut n = 0;
        for class in 0..EXP_CLASSES {
            let ttl = self.config.gc.class_ttl(class);
            loop {
                if n >= budget {
                    return n;
                }
                let front = self.exp[class].head;
                if front == NONE {
                    break;
                }
                if now.saturating_sub(self.slot(front).last_activity) < ttl {
                    // FIFO = deadline order: everything behind the
                    // front is at least as fresh.
                    break;
                }
                self.stats.reaped += 1;
                if let Some(ev) = self.remove_slot(front) {
                    reaped(ev);
                }
                n += 1;
            }
        }
        n
    }

    /// Iterates resident flows in slab-slot order (deterministic for a
    /// fixed event sequence — unlike `HashMap` iteration).
    pub fn iter(&self) -> impl Iterator<Item = (FlowKey, FlowState, &T)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (s.key, s.state, &s.data)))
    }

    /// Number of slab slots (occupied or free): the cursor bound for
    /// [`FlowTable::take_slot`] drain loops. Fixed while only removals
    /// happen, so `for i in 0..slot_count()` borrows nothing across
    /// mutations.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The flow in slab slot `i`, if occupied: a walk over every flow
    /// that probes no key.
    pub(crate) fn slot_at(&self, i: usize) -> Option<SlotId> {
        self.slots.get(i)?.as_ref().map(|_| SlotId(i as u32))
    }

    /// Detaches and returns the flow in slab slot `i`, if occupied —
    /// the allocation-free replacement for collecting all keys before
    /// a drain loop.
    pub fn take_slot(&mut self, i: usize) -> Option<Evicted<T>> {
        if i >= self.slots.len() || self.slots[i].is_none() {
            return None;
        }
        self.remove_slot(i as u32)
    }

    fn slot(&self, i: u32) -> &Slot<T> {
        self.slots[i as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot<T> {
        self.slots[i as usize].as_mut().expect("live slot")
    }

    /// The least-recently-active flow: the older of the two expiry
    /// list fronts by `last_activity`, TimeWait residue first on a tie.
    /// Each list is in activity order, so its front is its class's
    /// oldest.
    fn victim(&self) -> u32 {
        let (tw, idle) = (self.exp[EXP_TIMEWAIT].head, self.exp[EXP_IDLE].head);
        let older = |a: u32, b: u32| self.slot(a).last_activity < self.slot(b).last_activity;
        if tw == NONE || (idle != NONE && older(idle, tw)) {
            idle
        } else {
            tw
        }
    }

    /// Detaches a slot from its expiry list.
    fn exp_unlink(&mut self, i: u32, class: usize) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.exp_prev, s.exp_next)
        };
        if prev != NONE {
            self.slot_mut(prev).exp_next = next;
        } else if self.exp[class].head == i {
            self.exp[class].head = next;
        }
        if next != NONE {
            self.slot_mut(next).exp_prev = prev;
        } else if self.exp[class].tail == i {
            self.exp[class].tail = prev;
        }
        let s = self.slot_mut(i);
        s.exp_prev = NONE;
        s.exp_next = NONE;
    }

    /// Appends a detached slot at the back of an expiry list (the
    /// freshest deadline; monotone `now` keeps the FIFO sorted).
    fn exp_push_back(&mut self, i: u32, class: usize) {
        let old = self.exp[class].tail;
        {
            let s = self.slot_mut(i);
            s.exp_prev = old;
            s.exp_next = NONE;
        }
        if old != NONE {
            self.slot_mut(old).exp_next = i;
        }
        self.exp[class].tail = i;
        if self.exp[class].head == NONE {
            self.exp[class].head = i;
        }
    }

    /// Frees a slot entirely: expiry unlink, index removal, slab free.
    fn remove_slot(&mut self, i: u32) -> Option<Evicted<T>> {
        self.exp_unlink(i, exp_class(self.slot(i).state));
        let s = self.slots[i as usize].take()?;
        self.index.remove(&s.key);
        self.free.push(i);
        self.stats.occupancy = self.index.len() as u64;
        Some(Evicted {
            key: s.key,
            state: s.state,
            data: s.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpfo_tcp::types::SocketAddr;
    use tcpfo_wire::ipv4::Ipv4Addr;

    fn key(n: u16) -> FlowKey {
        FlowKey::new(80, SocketAddr::new(Ipv4Addr::new(10, 1, 0, 1), 40_000 + n))
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = FlowTable::new(FlowTableConfig::new(4, 64));
        let (slot, evicted) = t.insert(key(1), FlowState::Establishing, "a", 10);
        assert!(evicted.is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(t.find(&key(1)), Some(slot));
        assert_eq!(t.state(slot), FlowState::Establishing);
        *t.get_mut(&key(1), 20).unwrap() = "b";
        assert_eq!(t.peek(&key(1)), Some(&"b"));
        assert_eq!(t.remove(slot), (FlowState::Establishing, "b"));
        assert!(t.is_empty());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = FlowTable::new(FlowTableConfig::new(1, 3));
        for n in 0..3 {
            assert!(t.insert(key(n), FlowState::Replicated, n, 0).1.is_none());
        }
        // Touch 0 so 1 becomes the LRU victim.
        t.get_mut(&key(0), 5);
        let ev = t.insert(key(9), FlowState::Establishing, 9, 10).1.unwrap();
        assert_eq!(ev.key, key(1));
        assert_eq!(ev.state, FlowState::Replicated);
        assert_eq!(ev.data, 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.stats().evicted, 1);
        assert!(t.contains(&key(0)) && t.contains(&key(2)) && t.contains(&key(9)));
    }

    #[test]
    fn gc_reaps_timewait_after_ttl_and_spares_degraded() {
        let mut t = FlowTable::new(FlowTableConfig::new(2, 64));
        t.insert(key(1), FlowState::TimeWait, (), 0);
        t.insert(key(2), FlowState::Degraded, (), 0);
        t.insert(key(3), FlowState::Replicated, (), 0);
        let ttl = t.config().gc.timewait_ttl;
        let mut reaped = Vec::new();
        t.gc(ttl - 1, &mut |ev| reaped.push(ev.key));
        assert!(reaped.is_empty(), "nothing expires before the TTL");
        t.gc(ttl, &mut |ev| reaped.push(ev.key));
        assert_eq!(reaped, vec![key(1)], "only the TimeWait entry reaps");
        assert!(
            t.contains(&key(2)),
            "degraded flows outlast the TimeWait TTL"
        );
        assert!(t.contains(&key(3)), "live flows outlast the TimeWait TTL");
        assert_eq!(t.stats().reaped, 1);
        // The idle TTL is the backstop for both.
        t.gc(t.config().gc.idle_ttl, &mut |_| {});
        assert!(t.is_empty(), "degraded and live flows reap on the idle TTL");
    }

    #[test]
    fn touch_defers_expiry() {
        let mut t = FlowTable::new(FlowTableConfig::new(1, 16));
        let ttl = t.config().gc.timewait_ttl;
        t.insert(key(1), FlowState::TimeWait, (), 0);
        t.insert(key(2), FlowState::TimeWait, (), 0);
        // A late touch re-queues key(1) behind key(2).
        t.get_mut(&key(1), 10);
        let mut reaped = Vec::new();
        t.gc(ttl + 5, &mut |ev| reaped.push(ev.key));
        assert_eq!(reaped, vec![key(2)], "touched entry outlives its peer");
        t.gc(ttl + 10, &mut |ev| reaped.push(ev.key));
        assert_eq!(reaped, vec![key(2), key(1)]);
    }

    #[test]
    fn budget_bounds_reaps_and_cursor_carries_backlog() {
        let mut t = FlowTable::new(FlowTableConfig::new(4, 256));
        let ttl = t.config().gc.timewait_ttl;
        for n in 0..40 {
            t.insert(key(n), FlowState::TimeWait, (), 0);
        }
        let mut count = 0;
        let reaps = t.gc_budgeted(ttl, 16, &mut |_| count += 1);
        assert_eq!(reaps, 16, "budget caps the tick's work");
        assert_eq!(count, 16);
        assert_eq!(t.len(), 24, "backlog survives the tick");
        // Carry-over: further ticks drain the rest, never early.
        let reaps = t.gc_budgeted(ttl, 16, &mut |_| count += 1);
        assert_eq!(reaps, 16);
        let reaps = t.gc_budgeted(ttl, 16, &mut |_| count += 1);
        assert_eq!(reaps, 8, "backlog fully drains");
        assert!(t.is_empty());
        assert_eq!(t.stats().reaped, 40);
    }

    #[test]
    fn class_change_requeues_at_new_deadline() {
        let mut t = FlowTable::new(FlowTableConfig::new(1, 16));
        let tw = t.config().gc.timewait_ttl;
        t.insert(key(1), FlowState::Replicated, (), 0);
        t.insert(key(2), FlowState::Replicated, (), 0);
        // key(1) closes at t=100: enters the TimeWait class *at* 100.
        let slot = t.find(&key(1)).unwrap();
        t.set_state(slot, FlowState::Closing, 100);
        t.set_state(slot, FlowState::TimeWait, 100);
        let mut reaped = Vec::new();
        t.gc(100 + tw - 1, &mut |ev| reaped.push(ev.key));
        assert!(reaped.is_empty(), "TimeWait TTL counts from the transition");
        t.gc(100 + tw, &mut |ev| reaped.push(ev.key));
        assert_eq!(reaped, vec![key(1)]);
        assert!(t.contains(&key(2)), "idle-class peer unaffected");
    }

    #[test]
    fn take_slot_drains_without_key_collection() {
        let mut t = FlowTable::new(FlowTableConfig::new(2, 64));
        for n in 0..20 {
            t.insert(key(n), FlowState::Replicated, n, 0);
        }
        let mut drained = 0;
        for i in 0..t.slot_count() {
            if let Some(ev) = t.take_slot(i) {
                assert_eq!(ev.state, FlowState::Replicated);
                drained += 1;
            }
        }
        assert_eq!(drained, 20);
        assert!(t.is_empty());
        // Expiry lists must be empty too: a GC after the drain finds
        // nothing (would panic on a dangling slot index otherwise).
        t.gc(u64::MAX / 2, &mut |_| panic!("table is empty"));
    }

    #[test]
    fn slab_order_iteration_is_stable() {
        let mut t = FlowTable::new(FlowTableConfig::new(1, 16));
        for n in 0..5 {
            t.insert(key(n), FlowState::Replicated, n, 0);
        }
        t.remove(t.find(&key(2)).unwrap());
        t.insert(key(7), FlowState::Replicated, 7, 1); // reuses slot 2
        let order: Vec<u16> = t.iter().map(|(_, _, &d)| d).collect();
        assert_eq!(order, vec![0, 1, 7, 3, 4], "slab order, freed slot reused");
    }

    #[test]
    fn reinsert_same_key_replaces_without_eviction() {
        let mut t = FlowTable::new(FlowTableConfig::new(1, 2));
        t.insert(key(1), FlowState::Establishing, 1, 0);
        t.insert(key(2), FlowState::Establishing, 2, 0);
        assert!(t.insert(key(1), FlowState::Establishing, 10, 5).1.is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.peek(&key(1)), Some(&10));
    }
}
