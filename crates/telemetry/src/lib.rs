#![warn(missing_docs)]

//! # tcpfo-telemetry
//!
//! The unified observability layer of the reproduction. The paper's
//! headline claims are *measurements* — client-visible failover time
//! (§5, Fig. 5), matched-release throughput (§3.2), empty-ACK
//! behaviour under delayed ACKs (§3.4) — so every layer of the stack
//! reports into one place:
//!
//! * [`registry`] — a sim-time-aware metrics registry: monotone
//!   [`Counter`]s, [`Gauge`]s with high-water marks, and
//!   [`Histogram`]s, each a shared [`LogHistogram`]. No wall clock
//!   anywhere: every instrument is keyed by the simulated clock
//!   (nanoseconds since simulation start, i.e. `SimTime::as_nanos()`).
//! * [`journal`] — a bounded structured event journal for discrete
//!   occurrences (mode changes, Δseq sync, takeover steps).
//! * [`timeline`] — the §5 failover timeline and the redundancy
//!   clock: views of the phases the journal's entries stamped, from
//!   failure to the first post-takeover client-bound byte.
//!
//! Exposition is JSON (machines) and an aligned text table (humans);
//! both are derived from [`MetricsSnapshot`].
//!
//! # Example
//!
//! ```
//! use tcpfo_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let scope = t.registry.scope("net");
//! scope.counter("drops.loss").inc_at(1_000);
//! scope.gauge("queue_delay_ns").set_at(250, 1_000);
//! let snap = t.registry.snapshot(2_000);
//! assert_eq!(snap.counter("net.drops.loss"), Some(1));
//! assert!(snap.to_json().contains("net.drops.loss"));
//! ```

pub mod audit;
pub mod health;
pub mod journal;
pub mod json;
pub mod latency;
pub mod registry;
pub mod ring;
pub mod span;
pub mod table;
pub mod timeline;

pub use audit::{AuditConfig, InvariantAuditor, Rule, RuleLedger, TraceId, Violation};
pub use health::{FlowClass, HealthObservatory, QueueTotals, ReplicationLag};
pub use journal::{Event, Journal};
pub use latency::{
    HostClock, HostHistogram, LatencyObservatory, LogHistogram, Quantile, SimHistogram, Stage,
    StageLatency, StageTotals,
};
pub use registry::{Counter, Gauge, GaugeSnapshot, Histogram, MetricsSnapshot, Registry, Scope};
pub use ring::Ring;
pub use span::{
    chrome_trace_json, waterfall_records, ActiveSpan, SpanContext, SpanId, SpanKind, SpanRecord,
    SpanSampler, SpanTrack, Tracer,
};
pub use timeline::{
    FailoverPhase, FailoverTimeline, MttrBreakdown, RedundancyBreakdown, RedundancyPhase,
    RedundancyTimeline,
};

/// Which observers a testbed attaches to its bridges and hubs.
///
/// Each switch is an explicit `Some(_)` from the testbed's
/// configuration or, for `None`, the `TCPFO_AUDIT` / `TCPFO_LATENCY` /
/// `TCPFO_HEALTH` / `TCPFO_TRACE` environment variable (set, non-empty
/// and not `0` means on). `Some(_)` always wins, and
/// [`ObserverSwitches::resolve`] is the only code that reads those four
/// variables: a testbed calls it once when it is built and reuses the
/// result for every bridge and hub it creates later (a revived
/// secondary, a reprovisioned standby), so one run never mixes two
/// readings of the environment and "off" means nothing is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserverSwitches {
    /// The online invariant auditor.
    pub audit: bool,
    /// The per-stage latency observatory.
    pub latency: bool,
    /// The replica health observatory (replication-lag ledger) on every
    /// bridge.
    pub health: bool,
    /// The failover span tracer: each hub's span ring.
    pub span_trace: bool,
}

impl ObserverSwitches {
    /// Resolves each switch: the explicit value if given, else its
    /// environment variable.
    pub fn resolve(
        audit: Option<bool>,
        latency: Option<bool>,
        health: Option<bool>,
        span_trace: Option<bool>,
    ) -> Self {
        ObserverSwitches {
            audit: audit.unwrap_or_else(|| env_flag("TCPFO_AUDIT")),
            latency: latency.unwrap_or_else(|| env_flag("TCPFO_LATENCY")),
            health: health.unwrap_or_else(|| env_flag("TCPFO_HEALTH")),
            span_trace: span_trace.unwrap_or_else(|| env_flag("TCPFO_TRACE")),
        }
    }
}

/// Whether the environment variable `name` is set to something other
/// than the empty string or `0`.
fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Formats sim-nanoseconds with the same unit scaling the simulator's
/// `SimTime` display uses.
pub fn fmt_nanos(ns: u64) -> String {
    if ns == 0 {
        "0ns".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}µs", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// The bundle every layer threads around: registry + journal +
/// timeline. Cloning is cheap (shared handles).
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The metrics registry.
    pub registry: Registry,
    /// The structured event journal.
    pub journal: Journal,
    /// The latest failure episode's §5 phases, as stamped in `journal`.
    pub timeline: FailoverTimeline,
    /// The latest reprovisioning round's phases, as stamped in
    /// `journal`.
    pub redundancy: RedundancyTimeline,
    /// The failover span recorder. Dormant (one-branch no-op) by
    /// default; `Tracer::attach` arms the shared ring so every layer
    /// of the replica records into one coherent trace.
    pub trace: Tracer,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_journal_capacity(journal::DEFAULT_CAPACITY)
    }
}

impl Telemetry {
    /// Creates an empty telemetry hub.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A hub with an explicit journal ring capacity.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        let journal = Journal::with_capacity(capacity);
        Telemetry {
            registry: Registry::default(),
            timeline: FailoverTimeline(journal.clone()),
            redundancy: RedundancyTimeline(journal.clone()),
            journal,
            trace: Tracer::default(),
        }
    }

    /// One control-plane moment, written once: the journal entry
    /// (`fields`) and, when the tracer is attached, a span instant of
    /// the same name under the active span (`args`). The journal entry
    /// stamps the §5 or redundancy phase `kind` names, if any
    /// ([`timeline`]): `kill` opens a failure episode and
    /// `reprovision.begin` a round.
    pub fn event(
        &self,
        at_ns: u64,
        scope: &'static str,
        kind: &'static str,
        fields: &[(&str, String)],
        args: [Option<span::SpanArg>; 2],
    ) {
        self.journal.record(at_ns, scope, kind, fields);
        (self.trace).instant_args(SpanTrack::Control, scope, kind, at_ns, args);
    }

    /// One JSON document combining the metrics snapshot (taken at
    /// `now_ns`), the failover timeline, and the journal tail.
    pub fn export_json(&self, now_ns: u64) -> String {
        let mut out = String::from("{\n  \"at_ns\": ");
        out.push_str(&now_ns.to_string());
        out.push_str(",\n  \"metrics\": ");
        out.push_str(&indent(&self.registry.snapshot(now_ns).to_json(), 2));
        out.push_str(",\n  \"timeline\": ");
        out.push_str(&indent(&self.timeline.to_json(), 2));
        out.push_str(",\n  \"redundancy\": ");
        out.push_str(&indent(&self.redundancy.to_json(), 2));
        out.push_str(",\n  \"events\": ");
        out.push_str(&indent(&self.journal.to_json(), 2));
        // Ring saturation must be visible, not silent: how many
        // events each bounded ring dropped before this export. The
        // span ring additionally counts `end`s whose begin record was
        // already evicted (their duration is lost).
        out.push_str(",\n  \"journal_dropped\": ");
        out.push_str(&self.journal.dropped().to_string());
        out.push_str(",\n  \"trace_spans\": ");
        out.push_str(&self.trace.len().to_string());
        out.push_str(",\n  \"trace_dropped\": ");
        out.push_str(&self.trace.dropped().to_string());
        out.push_str(",\n  \"trace_lost_ends\": ");
        out.push_str(&self.trace.lost_ends().to_string());
        out.push_str("\n}\n");
        out
    }
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(0), "0ns");
        assert_eq!(fmt_nanos(1_500), "1500ns");
        assert_eq!(fmt_nanos(2_000), "2µs");
        assert_eq!(fmt_nanos(3_000_000), "3ms");
        assert_eq!(fmt_nanos(4_000_000_000), "4s");
    }

    #[test]
    fn export_json_combines_sections() {
        let t = Telemetry::new();
        t.registry.scope("core").counter("matched_bytes").add(512);
        t.journal
            .record(10, "core.primary", "sync", &[("delta_seq", "4000".into())]);
        t.event(5, "testbed", "kill", &[], [None, None]);
        let doc = t.export_json(100);
        assert!(doc.contains("\"failure\": 5"), "{doc}");
        assert!(doc.contains("\"metrics\""), "{doc}");
        assert!(doc.contains("core.matched_bytes"), "{doc}");
        assert!(doc.contains("\"timeline\""), "{doc}");
        assert!(doc.contains("\"events\""), "{doc}");
        assert!(doc.contains("\"journal_dropped\": 0"), "{doc}");
    }

    #[test]
    fn export_json_reports_journal_drops() {
        let t = Telemetry::with_journal_capacity(2);
        t.event(0, "testbed", "kill", &[], [None, None]);
        for i in 1..5 {
            t.journal.record(i, "core", "tick", &[]);
        }
        let doc = t.export_json(10);
        assert!(doc.contains("\"journal_dropped\": 3"), "{doc}");
        assert!(doc.contains("\"trace_dropped\": 0"), "{doc}");
        assert!(
            doc.contains("\"failure\": 0"),
            "evicted, still stamped: {doc}"
        );
    }

    #[test]
    fn export_json_reports_span_ring_drops() {
        let t = Telemetry::new();
        t.trace.attach(2);
        for i in 0..5 {
            t.trace.instant(span::SpanTrack::Control, "test", "tick", i);
        }
        let doc = t.export_json(10);
        assert!(doc.contains("\"trace_spans\": 2"), "{doc}");
        assert!(doc.contains("\"trace_dropped\": 3"), "{doc}");
        assert!(doc.contains("\"trace_lost_ends\": 0"), "{doc}");
    }
}
