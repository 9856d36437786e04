//! The one bounded ring every recorder keeps: the journal, the span
//! ring, the simulator's packet trace and the auditor's event and
//! header rings. When full it drops the *oldest* entry and counts it,
//! so a long run never grows without bound and saturation is visible:
//! [`Ring::dropped`] is exact. A capacity of 0 is taken as 1.

use std::collections::vec_deque::{Iter, IterMut};
use std::collections::VecDeque;

/// A bounded, drop-oldest ring with an exact count of what it evicted.
#[derive(Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring bounded to `capacity` entries that allocates as entries
    /// arrive: a recorder that rarely records costs nothing.
    pub fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// A ring whose buffer is allocated here, so pushing never
    /// allocates.
    pub fn preallocated(capacity: usize) -> Self {
        let mut ring = Ring::new(capacity);
        ring.items.reserve_exact(ring.capacity);
        ring
    }

    /// Appends `item`, evicting (and counting) the oldest entry when
    /// full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Rebounds the ring to `capacity` entries (at least 1); shrinking
    /// below the current length evicts the oldest at once, counted.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.items.len() > self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The bound, in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted to stay within the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The entries held, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.items.iter()
    }

    /// The entries held, oldest first, for patching in place.
    pub fn iter_mut(&mut self) -> IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// The most recent `n` entries, oldest first.
    pub fn tail(&self, n: usize) -> std::iter::Skip<Iter<'_, T>> {
        self.items.iter().skip(self.items.len().saturating_sub(n))
    }

    /// Moves every held entry out, oldest first; the bound and the drop
    /// count stay.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.items).into()
    }
}
