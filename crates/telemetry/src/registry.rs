//! The sim-time metrics registry.
//!
//! Instruments are cheap handles shared within one hub, which has one
//! owner (a replica, and nothing in it runs on a second thread):
//! [`Counter`] and [`Gauge`] are plain cells, [`Histogram`] a
//! [`LogHistogram`] behind a `RefCell`. The [`Registry`] owns the
//! name → instrument map and produces immutable [`MetricsSnapshot`]s
//! for exposition. All timestamps are
//! **simulated** nanoseconds (the `*_at` methods take
//! `now_ns = SimTime::as_nanos()`); nothing in this module reads a wall
//! clock, so runs stay deterministic.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::{array, JsonObject};
use crate::latency::LogHistogram;

/// Raises `cell` to `v` if it is below it.
fn raise(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get().max(v));
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    inner: Rc<CounterInner>,
}

#[derive(Debug, Default)]
struct CounterInner {
    value: Cell<u64>,
    last_update_ns: Cell<u64>,
}

impl Counter {
    /// Adds `n` without touching the last-update timestamp.
    pub fn add(&self, n: u64) {
        let value = &self.inner.value;
        value.set(value.get().wrapping_add(n));
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, recording the sim time of the update.
    pub fn add_at(&self, n: u64, now_ns: u64) {
        self.add(n);
        raise(&self.inner.last_update_ns, now_ns);
    }

    /// Increments by one, recording the sim time of the update.
    pub fn inc_at(&self, now_ns: u64) {
        self.add_at(1, now_ns);
    }

    /// Raises the counter to `n` if it is currently below it. Used to
    /// mirror externally maintained totals (e.g. the bridges' stats
    /// structs) into the registry without double counting.
    pub fn set_at_least(&self, n: u64) {
        raise(&self.inner.value, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.value.get()
    }

    /// Sim time of the most recent timestamped update.
    pub fn last_update_ns(&self) -> u64 {
        self.inner.last_update_ns.get()
    }
}

/// A gauge: a settable value that also tracks its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Rc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: Cell<u64>,
    high_water: Cell<u64>,
    last_update_ns: Cell<u64>,
}

impl Gauge {
    /// Sets the current value (updating the high-water mark).
    pub fn set(&self, v: u64) {
        self.inner.value.set(v);
        raise(&self.inner.high_water, v);
    }

    /// Sets the current value, recording the sim time of the update.
    pub fn set_at(&self, v: u64, now_ns: u64) {
        self.set(v);
        raise(&self.inner.last_update_ns, now_ns);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.value.get()
    }

    /// Highest value ever set.
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.get()
    }

    /// Sim time of the most recent timestamped update.
    pub fn last_update_ns(&self) -> u64 {
        self.inner.last_update_ns.get()
    }
}

/// Number of log2 buckets: bucket 0 holds value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, and the last bucket tops out the u64
/// range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A shared log2 histogram: every clone records into one
/// [`LogHistogram`] over the whole `u64` range.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Rc<RefCell<LogHistogram<HISTOGRAM_BUCKETS>>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.borrow_mut().record(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.borrow().count()
    }

    /// Adds every observation of `batch` ([`LogHistogram::merge`]):
    /// how the hosts mirror the histograms they keep into the registry
    /// without replaying each observation.
    pub fn absorb<const M: usize>(&self, batch: &LogHistogram<M>) {
        self.inner.borrow_mut().merge(batch);
    }

    /// Replaces the state with `h`'s observations: how the latency
    /// observatory mirrors the stage histograms it keeps.
    pub fn set<const M: usize>(&self, h: &LogHistogram<M>) {
        let mut inner = self.inner.borrow_mut();
        *inner = LogHistogram::new();
        inner.merge(h);
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> LogHistogram<HISTOGRAM_BUCKETS> {
        *self.inner.borrow()
    }
}

/// The non-empty buckets of `h` as `(le, count)`: `le` is the bucket's
/// exclusive upper bound (`u64::MAX`, inclusive, for the top bucket).
fn buckets_le(h: &LogHistogram<HISTOGRAM_BUCKETS>) -> impl Iterator<Item = (u64, u64)> + '_ {
    let le = |i| LogHistogram::<HISTOGRAM_BUCKETS>::bucket_high(i).saturating_add(1);
    let buckets = h.buckets().iter().enumerate().filter(|(_, &c)| c > 0);
    buckets.map(move |(i, &c)| (le(i), c))
}

/// Immutable gauge state captured in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub value: u64,
    /// Highest value ever set.
    pub high_water: u64,
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline must be backslash-escaped
/// inside the `name="value"` quoting.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` docstring per the text exposition format: only
/// backslash and newline are escaped (quotes are legal there).
fn escape_help_text(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends a `# HELP`/`# TYPE` family header for one metric family.
fn prom_family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {kind}\n",
        escape_help_text(help)
    ));
}

/// Appends one sample line `name{labels} value`, escaping every label
/// value.
fn prom_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RefCell<BTreeMap<String, Counter>>,
    gauges: RefCell<BTreeMap<String, Gauge>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
}

/// The instrument registry. Cloning shares the underlying maps.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns a scope that prefixes every instrument name with
    /// `prefix` plus a dot, e.g. `scope("net").counter("drops")` is
    /// the counter `net.drops`.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Captures every instrument's current value at sim time `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ns: now_ns,
            counters: self
                .inner
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .borrow()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.get(),
                            high_water: v.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .inner
                .histograms
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A name-prefixing view of a [`Registry`].
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    fn join(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// A sub-scope: `scope("net").scope("n1")` prefixes `net.n1.`.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            prefix: self.join(prefix),
        }
    }

    /// The counter `prefix.name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.join(name))
    }

    /// The gauge `prefix.name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.join(name))
    }

    /// The histogram `prefix.name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.join(name))
    }
}

/// An immutable, ordered capture of every instrument in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Sim time the snapshot was taken.
    pub at_ns: u64,
    /// Counter values by full name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram states by full name.
    pub histograms: BTreeMap<String, LogHistogram<HISTOGRAM_BUCKETS>>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// State of the gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// State of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram<HISTOGRAM_BUCKETS>> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.u64(name, *value);
        }
        let mut gauges = JsonObject::new();
        for (name, g) in &self.gauges {
            let mut obj = JsonObject::new();
            obj.u64("value", g.value).u64("high_water", g.high_water);
            gauges.raw(name, obj.render());
        }
        let mut histograms = JsonObject::new();
        for (name, h) in &self.histograms {
            let mut obj = JsonObject::new();
            obj.u64("count", h.count())
                .u64("sum", h.sum())
                .u64("min", h.min())
                .u64("max", h.max());
            let buckets: Vec<String> = buckets_le(h)
                .map(|(le, c)| format!("[{le}, {c}]"))
                .collect();
            obj.raw("buckets_le", array(&buckets));
            histograms.raw(name, obj.render());
        }
        let mut root = JsonObject::new();
        root.u64("at_ns", self.at_ns)
            .raw("counters", counters.render())
            .raw("gauges", gauges.render())
            .raw("histograms", histograms.render());
        root.render()
    }

    /// Renders the snapshot as an aligned text table.
    pub fn to_table(&self) -> String {
        crate::table::render_snapshot(self)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Metric names are prefixed with `tcpfo_` and dots become
    /// underscores; gauges also expose their high-water mark, and
    /// histograms expose cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count`. Every family carries `# HELP` (the original
    /// dotted instrument name, escaped) and `# TYPE` lines, and label
    /// values are escaped (backslash, quote, newline), so scrapes parse
    /// under a spec-strict client.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("tcpfo_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            prom_family(&mut out, &n, name, "counter");
            prom_sample(&mut out, &n, &[], &value.to_string());
        }
        for (name, g) in &self.gauges {
            let n = sanitize(name);
            prom_family(&mut out, &n, name, "gauge");
            prom_sample(&mut out, &n, &[], &g.value.to_string());
            let hw = format!("{n}_high_water");
            prom_family(&mut out, &hw, &format!("{name} (high-water mark)"), "gauge");
            prom_sample(&mut out, &hw, &[], &g.high_water.to_string());
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            prom_family(
                &mut out,
                &n,
                &format!("{name} (log2 buckets, nanoseconds)"),
                "histogram",
            );
            let bucket = format!("{n}_bucket");
            let mut cumulative = 0u64;
            for (le, c) in buckets_le(h) {
                cumulative += c;
                prom_sample(
                    &mut out,
                    &bucket,
                    &[("le", &le.to_string())],
                    &cumulative.to_string(),
                );
            }
            let count = h.count();
            prom_sample(&mut out, &bucket, &[("le", "+Inf")], &count.to_string());
            out.push_str(&format!("{n}_sum {}\n{n}_count {count}\n", h.sum()));
            for (suffix, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                let qn = format!("{n}_{suffix}");
                prom_family(
                    &mut out,
                    &qn,
                    &format!("{name} ({suffix} estimate)"),
                    "gauge",
                );
                prom_sample(&mut out, &qn, &[], &h.quantile(q).to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add_at(4, 77);
        assert_eq!(r.counter("x").get(), 5, "handles share state");
        assert_eq!(c.last_update_ns(), 77);
        c.set_at_least(3);
        assert_eq!(c.get(), 5, "set_at_least never lowers");
        c.set_at_least(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn gauge_high_water() {
        let g = Registry::new().gauge("q");
        g.set_at(10, 1);
        g.set_at(3, 2);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 10);
        assert_eq!(g.last_update_ns(), 2);
    }

    /// `raise` skips the locked update when nothing would move; values,
    /// high-water marks and timestamps read exactly as a bare
    /// `fetch_max` would leave them, for lower, equal and higher inputs.
    #[test]
    fn raise_matches_fetch_max() {
        let g = Registry::new().gauge("g");
        let c = Registry::new().counter("c");
        let (mut high, mut stamp, mut total) = (0u64, 0u64, 0u64);
        for (v, at) in [(5, 10), (5, 10), (2, 9), (7, 10), (0, 0), (7, 11), (3, 11)] {
            g.set_at(v, at);
            c.add_at(v, at);
            c.set_at_least(v * 4);
            high = high.max(v);
            stamp = stamp.max(at);
            total = (total + v).max(v * 4);
            assert_eq!(
                (g.get(), g.high_water(), g.last_update_ns()),
                (v, high, stamp)
            );
            assert_eq!((c.get(), c.last_update_ns()), (total, stamp));
        }
        g.set(1);
        assert_eq!((g.get(), g.high_water(), g.last_update_ns()), (1, 7, 11));
    }

    #[test]
    fn histogram_absorb_and_snapshot_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().p99(), 0, "empty");
        h.record(3);
        // A batch kept elsewhere: 10 observations of 700 (bucket 10), 2
        // of 40 (bucket 6), in a narrower histogram.
        let mut batch = LogHistogram::<40>::new();
        batch.record_n(700, 10);
        batch.record_n(40, 2);
        h.absorb(&batch);
        let s = h.snapshot();
        assert_eq!(s.count(), 13);
        assert_eq!(s.sum(), 7_083);
        assert_eq!(s.min(), 3);
        assert_eq!(s.max(), 700);
        assert_eq!(
            (s.buckets()[2], s.buckets()[6], s.buckets()[10]),
            (1, 2, 10)
        );
        // Rank 7 of 13 lands in the bucket with exclusive bound 1024:
        // reported as 1023 clamped to the max.
        assert_eq!(s.p50(), 700);
        assert_eq!(s.quantile(0.0), 3);
    }

    #[test]
    fn prometheus_exposes_quantiles() {
        let r = Registry::new();
        for v in [1u64, 2, 3, 900] {
            r.histogram("lat").record(v);
        }
        let text = r.snapshot(0).to_prometheus();
        assert!(text.contains("tcpfo_lat_p50 "), "{text}");
        assert!(text.contains("tcpfo_lat_p99 "), "{text}");
        assert!(text.contains("tcpfo_lat_p999 "), "{text}");
    }

    #[test]
    fn prometheus_emits_help_and_type_per_family() {
        let r = Registry::new();
        r.scope("core.primary").counter("matched_bytes").add(5);
        r.gauge("underload.backlog").set(3);
        r.histogram("lat").record(7);
        let text = r.snapshot(0).to_prometheus();
        assert!(
            text.contains("# HELP tcpfo_core_primary_matched_bytes core.primary.matched_bytes\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE tcpfo_core_primary_matched_bytes counter\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP tcpfo_underload_backlog underload.backlog\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP tcpfo_underload_backlog_high_water"),
            "{text}"
        );
        assert!(text.contains("# HELP tcpfo_lat "), "{text}");
        assert!(text.contains("# TYPE tcpfo_lat histogram\n"), "{text}");
        assert!(text.contains("# HELP tcpfo_lat_p999 "), "{text}");
        // Every series line belongs to a family that declared HELP+TYPE
        // immediately above it: count families both ways.
        let helps = text.matches("# HELP ").count();
        let types = text.matches("# TYPE ").count();
        assert_eq!(helps, types, "{text}");
    }

    #[test]
    fn label_and_help_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help_text("a\"b\\c\nd"), "a\"b\\\\c\\nd");
    }

    /// Counters, gauges and histograms at the log2 bucket edges 0, 1,
    /// 2ᵏ−1, 2ᵏ and `u64::MAX`, plus a host-time histogram whose open
    /// top bucket is saturated, absorbed through the latency
    /// observatory: all three expositions, byte for byte.
    #[test]
    fn exposition_golden() {
        use crate::latency::{LatencyObservatory, Stage};
        let r = Registry::new();
        r.counter("c.zero");
        r.scope("c").counter("max-value").add(u64::MAX);
        r.counter("c.back\\slash").inc_at(7);
        let g = r.gauge("g.depth");
        g.set_at(9, 10);
        g.set_at(4, 20);
        let edges = r.histogram("h.edges");
        edges.record(0);
        for k in [1u32, 2, 3, 10, 31, 32, 62, 63] {
            edges.record((1u64 << k) - 1);
            edges.record(1u64 << k);
        }
        // `u64::MAX` lies past the p999 rank: it shows in the buckets,
        // the (wrapped) sum and the max.
        let top = r.histogram("h.top");
        for _ in 0..1_000 {
            top.record(1);
        }
        top.record(u64::MAX);
        let mut obs = LatencyObservatory::new();
        obs.record(Stage::FlowLookup, 300);
        obs.record(Stage::FlowLookup, 1 << 38);
        obs.publish(&r.scope("core.primary"), 1_000);
        obs.record(Stage::FlowLookup, u64::MAX);
        obs.record(Stage::EgressEmit, 0);
        obs.publish(&r.scope("core.primary"), 2_000);
        let snap = r.snapshot(2_500);
        let json = include_str!("../tests/golden/exposition.json");
        assert_eq!(snap.to_json(), json);
        let prometheus = include_str!("../tests/golden/exposition.prom");
        assert_eq!(snap.to_prometheus(), prometheus);
        assert_eq!(
            snap.to_table(),
            include_str!("../tests/golden/exposition.txt")
        );
    }

    #[test]
    fn snapshot_is_ordered_and_json_renders() {
        let r = Registry::new();
        r.scope("b").counter("two").add(2);
        r.scope("a").counter("one").inc();
        r.gauge("g").set(7);
        r.histogram("h").record(5);
        let snap = r.snapshot(123);
        let names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a.one", "b.two"], "BTreeMap order");
        let json = snap.to_json();
        assert!(json.contains("\"at_ns\": 123"), "{json}");
        assert!(json.contains("\"a.one\": 1"), "{json}");
        assert!(json.contains("\"high_water\": 7"), "{json}");
        assert!(json.contains("\"buckets_le\""), "{json}");
    }
}
