//! The per-flow lifecycle state machine.
//!
//! Every entry in a [`crate::flow::FlowTable`] carries one of these
//! states. They make the conformance-relevant connection lifetime
//! (TIME-WAIT handling, late FINs, §6 degradation) first-class instead
//! of an implicit conn/tombstone dichotomy:
//!
//! ```text
//! Establishing ──merged SYN──▶ Replicated ──FIN progress──▶ Closing
//!      │                           │                           │
//!      │ §6 secondary failure      │ §6                        │ §8 teardown
//!      ▼                           ▼                           ▼
//!   Degraded ◀──────────────────────                        TimeWait
//!      │ └──────────── FINs both ways ─────────────────▶       │ TTL
//!      │ idle TTL, capacity eviction                           ▼
//!      └───────────────────────────────────────────────▶    Reaped
//! ```
//!
//! `Reaped` is terminal and virtual: a reaped flow's slot is freed, so
//! the state only ever appears in GC/eviction reports, never in the
//! table itself.

use std::fmt;

/// Lifecycle state of a tracked flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowState {
    /// Handshake in progress: at least one replica SYN held, `Δseq`
    /// not yet known.
    Establishing,
    /// Fully replicated duplex operation (the §3 steady state).
    Replicated,
    /// §6: nobody is below to replicate this flow (the secondary
    /// failed while it was live, or it was born on a tail); the bridge
    /// passes segments through with `Δseq` still applied. Like any
    /// flow it is touched by its peer's segments and reaped by the idle
    /// TTL or LRU eviction; FINs both ways move it to `TimeWait`.
    Degraded,
    /// FIN progress observed in at least one direction.
    Closing,
    /// §8 teardown complete: queue state dropped, only enough retained
    /// to re-ACK late FIN retransmissions. Reaped after a TTL.
    TimeWait,
    /// Terminal: the slot has been freed (GC reap or LRU eviction).
    /// Never stored in the table — only reported.
    Reaped,
}

impl FlowState {
    /// Whether the flow still carries live connection state (queues,
    /// handshake, teardown in progress) as opposed to residue.
    pub fn is_live(self) -> bool {
        matches!(
            self,
            FlowState::Establishing | FlowState::Replicated | FlowState::Closing
        )
    }

    /// Whether the state may legally transition to `next`. The table
    /// debug-asserts this on [`crate::flow::Shard::set_state`], so an
    /// impossible transition trips tests without costing the release
    /// hot path anything.
    pub fn can_transition(self, next: FlowState) -> bool {
        use FlowState::*;
        match self {
            Establishing => matches!(next, Replicated | Degraded | Closing | TimeWait | Reaped),
            Replicated => matches!(next, Degraded | Closing | TimeWait | Reaped),
            Closing => matches!(next, Degraded | Closing | TimeWait | Reaped),
            Degraded => matches!(next, Degraded | TimeWait | Reaped),
            TimeWait => matches!(next, Reaped),
            Reaped => false,
        }
    }
}

impl fmt::Display for FlowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowState::Establishing => "establishing",
            FlowState::Replicated => "replicated",
            FlowState::Degraded => "degraded",
            FlowState::Closing => "closing",
            FlowState::TimeWait => "time_wait",
            FlowState::Reaped => "reaped",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::FlowState::*;

    #[test]
    fn live_states() {
        assert!(Establishing.is_live());
        assert!(Replicated.is_live());
        assert!(Closing.is_live());
        assert!(!Degraded.is_live());
        assert!(!TimeWait.is_live());
        assert!(!Reaped.is_live());
    }

    #[test]
    fn transitions() {
        assert!(Establishing.can_transition(Replicated));
        assert!(Replicated.can_transition(Closing));
        assert!(Closing.can_transition(TimeWait));
        assert!(TimeWait.can_transition(Reaped));
        assert!(Replicated.can_transition(Degraded));
        assert!(!TimeWait.can_transition(Replicated));
        assert!(!Reaped.can_transition(Establishing));
        assert!(!Degraded.can_transition(Replicated), "degraded is forever");
    }
}
