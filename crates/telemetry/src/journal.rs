//! The structured event journal.
//!
//! Where the registry aggregates, the journal narrates: one
//! [`Event`] per discrete occurrence (a takeover step, a Δseq sync, a
//! recognised retransmission), stamped with sim time and carrying
//! free-form key/value fields. The buffer is a bounded ring — when
//! full it drops the *oldest* entries and counts what it dropped, so
//! a long run can never grow without bound. An entry whose kind names
//! a §5 or redundancy phase ([`crate::timeline`]) also stamps it beside
//! the ring, where eviction never reaches it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::json::{array, quote, JsonObject};
use crate::timeline::Stamps;

/// Default journal capacity (entries).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Sim time the event occurred.
    pub at_ns: u64,
    /// Emitting component, e.g. `core.primary` or `net.sim`.
    pub scope: String,
    /// Event kind, e.g. `takeover.arp` or `seg.empty_ack`.
    pub kind: String,
    /// Free-form key/value details.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// One-line rendering: `[12ms] core.primary sync delta_seq=4000`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "[{}] {} {}",
            crate::fmt_nanos(self.at_ns),
            self.scope,
            self.kind
        );
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

#[derive(Debug)]
struct JournalInner {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    /// The phases [`Journal::record`] stamped, which outlive the
    /// entries that stamped them.
    stamps: Stamps,
}

/// A bounded, shared event journal.
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal with the default capacity.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Creates a journal bounded to `capacity` entries. The ring grows
    /// as entries arrive: every replica has a hub, and most journal
    /// little.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                stamps: Stamps::default(),
            })),
        }
    }

    /// Appends an event, evicting the oldest entry when full, and
    /// stamps the phase `kind` names, if it names one
    /// ([`crate::timeline`]).
    pub fn record(&self, at_ns: u64, scope: &str, kind: &str, fields: &[(&str, String)]) {
        let mut inner = self.inner.lock().unwrap();
        inner.stamps.stamp(kind, at_ns);
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(Event {
            at_ns,
            scope: scope.to_string(),
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// What has been stamped.
    pub(crate) fn stamps(&self) -> Stamps {
        self.inner.lock().unwrap().stamps
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Copies out all retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Copies out the most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let inner = self.inner.lock().unwrap();
        inner
            .ring
            .iter()
            .skip(inner.ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Renders the retained events as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let rendered: Vec<String> = self
            .events()
            .iter()
            .map(|e| {
                let mut obj = JsonObject::new();
                obj.u64("at_ns", e.at_ns)
                    .string("scope", &e.scope)
                    .string("kind", &e.kind);
                let mut fields = JsonObject::new();
                for (k, v) in &e.fields {
                    fields.raw(k, quote(v));
                }
                obj.raw("fields", fields.render());
                obj.render()
            })
            .collect();
        array(&rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises() {
        let j = Journal::default();
        j.record(
            2_000,
            "core.primary",
            "sync",
            &[("delta_seq", "4000".to_string())],
        );
        assert_eq!(j.len(), 1);
        assert_eq!(
            j.events()[0].summary(),
            "[2µs] core.primary sync delta_seq=4000"
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let j = Journal::with_capacity(3);
        for i in 0..5u64 {
            j.record(i, "s", &format!("e{i}"), &[]);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let kinds: Vec<String> = j.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["e2", "e3", "e4"]);
        let tail: Vec<String> = j.tail(2).into_iter().map(|e| e.kind).collect();
        assert_eq!(tail, vec!["e3", "e4"]);
    }

    #[test]
    fn json_renders() {
        let j = Journal::default();
        j.record(1, "net", "drop.loss", &[("port", "0".to_string())]);
        let json = j.to_json();
        assert!(json.contains("\"kind\": \"drop.loss\""), "{json}");
        assert!(json.contains("\"port\": \"0\""), "{json}");
    }
}
