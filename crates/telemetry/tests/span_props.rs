//! Property tests for the span ring: under *any* randomized
//! begin/end/instant interleaving against a small ring, drop-oldest
//! eviction must (a) never reorder a retained child before its
//! retained parent and (b) account for every evicted record and every
//! orphaned `end` exactly — verified against an independent model
//! ring.

use proptest::collection::vec;
use proptest::prelude::*;
use tcpfo_telemetry::{ActiveSpan, SpanTrack, Tracer};

/// One randomized tracer operation (decoded from a raw byte so the
/// strategy stays shrinkable).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Begin a span as a child of the innermost live span.
    Begin,
    /// End the innermost open span (an instant when none is open).
    End,
    /// Record a point event.
    Instant,
}

fn decode(raw: u8) -> Op {
    match raw % 3 {
        0 => Op::Begin,
        1 => Op::End,
        _ => Op::Instant,
    }
}

/// Replays `ops` against a real tracer and, in lockstep, against an
/// independent model of the ring (a plain Vec with drop-oldest
/// eviction). Returns the tracer plus the model's expectations.
struct Replay {
    tracer: Tracer,
    /// Ids the model says the ring retains, oldest first.
    model_ring: Vec<u64>,
    /// Records the model says were evicted.
    model_dropped: u64,
    /// `end` calls the model says arrived after their begin record
    /// was evicted.
    model_lost_ends: u64,
}

fn replay(capacity: usize, ops: &[u8]) -> Replay {
    let tracer = Tracer::attached(capacity);
    let mut model_ring: Vec<u64> = Vec::new();
    let mut model_dropped = 0u64;
    let mut model_lost_ends = 0u64;
    let mut open: Vec<ActiveSpan> = Vec::new();
    let mut now = 0u64;

    let push_model = |ring: &mut Vec<u64>, dropped: &mut u64, id: u64| {
        if ring.len() == capacity {
            ring.remove(0);
            *dropped += 1;
        }
        ring.push(id);
    };

    for &raw in ops {
        now += 1;
        match decode(raw) {
            Op::Begin => {
                let span = tracer
                    .begin(SpanTrack::Control, "props", "span", now)
                    .expect("attached tracer records");
                push_model(&mut model_ring, &mut model_dropped, span.ctx.span.0);
                open.push(span);
            }
            Op::End => match open.pop() {
                Some(span) => {
                    if !model_ring.contains(&span.ctx.span.0) {
                        model_lost_ends += 1;
                    }
                    tracer.end(&span, now);
                }
                None => {
                    tracer.instant(SpanTrack::Control, "props", "tick", now);
                    push_model(&mut model_ring, &mut model_dropped, 0);
                }
            },
            Op::Instant => {
                tracer.instant(SpanTrack::Control, "props", "tick", now);
                push_model(&mut model_ring, &mut model_dropped, 0);
            }
        }
    }

    Replay {
        tracer,
        model_ring,
        model_dropped,
        model_lost_ends,
    }
}

proptest! {
    /// Drop-oldest eviction can only remove from the front, and begin
    /// records enter the ring at begin time — so among *retained*
    /// records a child never precedes its parent, no matter how the
    /// ring churned.
    #[test]
    fn retained_spans_keep_parent_before_child_order(
        capacity in 1usize..24,
        ops in vec(any::<u8>(), 1..240),
    ) {
        let r = replay(capacity, &ops);
        let records = r.tracer.records();
        for (child_pos, child) in records.iter().enumerate() {
            if child.parent.is_none() {
                continue;
            }
            if let Some(parent_pos) =
                records.iter().position(|p| p.id == child.parent)
            {
                prop_assert!(
                    parent_pos < child_pos,
                    "retained parent {:?} at {} must precede child {:?} at {}",
                    child.parent, parent_pos, child.id, child_pos,
                );
            }
        }
        // Retained records all belong to the configured window.
        prop_assert!(records.len() <= capacity);
    }

    /// The ring's loss accounting is exact: every pushed record is
    /// either retained or counted in `dropped()`, and every `end`
    /// whose begin record was already evicted is counted in
    /// `lost_ends()` — verified against an independent model ring.
    #[test]
    fn drops_and_lost_ends_are_exactly_counted(
        capacity in 1usize..24,
        ops in vec(any::<u8>(), 1..240),
    ) {
        let r = replay(capacity, &ops);
        prop_assert_eq!(r.tracer.len(), r.model_ring.len(), "retained count matches model");
        prop_assert_eq!(r.tracer.dropped(), r.model_dropped, "dropped count matches model");
        prop_assert_eq!(
            r.tracer.lost_ends(), r.model_lost_ends,
            "orphaned ends match model",
        );
        let pushed = r.tracer.len() as u64 + r.tracer.dropped();
        let begins_and_instants = ops
            .iter()
            .scan(0usize, |depth, &raw| {
                Some(match decode(raw) {
                    Op::Begin => {
                        *depth += 1;
                        1u64
                    }
                    Op::End if *depth > 0 => {
                        *depth -= 1;
                        0
                    }
                    // `End` with nothing open degrades to an instant.
                    Op::End | Op::Instant => 1,
                })
            })
            .sum::<u64>();
        prop_assert_eq!(pushed, begins_and_instants, "no record is lost unaccounted");
        // Retained span ids appear in the model's order (instants
        // modelled as id 0 are skipped — they are unordered markers).
        let real: Vec<u64> = r
            .tracer
            .records()
            .iter()
            .map(|rec| rec.id.0)
            .filter(|id| r.model_ring.contains(id))
            .collect();
        let modelled: Vec<u64> =
            r.model_ring.iter().copied().filter(|&id| id != 0).collect();
        prop_assert_eq!(real, modelled, "retained window matches the model ring");
    }
}
