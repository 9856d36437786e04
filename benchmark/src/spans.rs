//! The benchmark's own in-memory span recorder.
//!
//! A span is (name, start, end, parent). Self time is duration minus the
//! part covered by child spans. Every span feeds a per-name aggregate
//! (count, total, self, raw durations for exact quantiles); the first
//! [`RAW_CAP`] spans are also kept verbatim and written out as JSON when
//! the run ends, so a trace stays a few megabytes however long the run.
//!
//! Single-threaded by design (`Rc<RefCell<_>>`): every workload runs on
//! one driver thread.

use crate::stats::Samples;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans kept verbatim for the trace file.
const RAW_CAP: usize = 50_000;

/// An interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u16);

#[derive(Debug, Default, Clone)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Samples,
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    name: u16,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

#[derive(Debug)]
struct Open {
    name: u16,
    start_ns: u64,
    child_ns: u64,
    raw: u32,
}

const NO_RAW: u32 = u32::MAX;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Aggregate>,
    stack: Vec<Open>,
    raw: Vec<Raw>,
    raw_dropped: u64,
}

/// Shared handle to the recorder.
#[derive(Debug, Clone)]
pub struct Spans(Rc<RefCell<Inner>>);

impl Default for Spans {
    fn default() -> Self {
        Spans(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            raw_dropped: 0,
        })))
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans::default()
    }

    pub fn intern(&self, name: &'static str) -> NameId {
        let mut s = self.0.borrow_mut();
        if let Some(i) = s.names.iter().position(|&n| n == name) {
            return NameId(i as u16);
        }
        s.names.push(name);
        s.aggs.push(Aggregate::default());
        NameId((s.names.len() - 1) as u16)
    }

    /// Forgets everything recorded so far (set-up is not the run).
    /// Must not be called with a span open.
    pub fn clear(&self) {
        let mut s = self.0.borrow_mut();
        assert!(s.stack.is_empty(), "clear with a span open");
        s.aggs.iter_mut().for_each(|a| *a = Aggregate::default());
        s.raw.clear();
        s.raw_dropped = 0;
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&self, name: NameId) {
        let mut s = self.0.borrow_mut();
        let start_ns = s.epoch.elapsed().as_nanos() as u64;
        s.open_at(name, start_ns);
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let mut s = self.0.borrow_mut();
        let end_ns = s.epoch.elapsed().as_nanos() as u64;
        s.close_at(end_ns);
    }

    pub fn aggregate(&self, name: &str) -> Aggregate {
        let s = self.0.borrow();
        s.names
            .iter()
            .position(|&n| n == name)
            .map(|i| s.aggs[i].clone())
            .unwrap_or_default()
    }

    /// The trace as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = self.0.borrow_mut();
        let mut out = String::from("{\n  \"clock\": \"host ns since recorder start\",\n");
        let _ = writeln!(out, "  \"raw_spans_dropped\": {},", s.raw_dropped);
        out.push_str("  \"aggregates\": [\n");
        let n = s.names.len();
        for i in 0..n {
            let name = s.names[i];
            let a = &mut s.aggs[i];
            let (p50, p99) = if a.durations.is_empty() {
                (0, 0)
            } else {
                (a.durations.median(), a.durations.quantile(0.99))
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {p50}, \"p99_ns\": {p99}}}{}",
                a.count,
                a.total_ns,
                a.self_ns,
                if i + 1 < n { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"spans\": [\n");
        let m = s.raw.len();
        for (i, r) in s.raw.iter().enumerate() {
            let parent = if r.parent == NO_RAW {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.names[r.name as usize],
                r.start_ns,
                r.end_ns,
                if i + 1 < m { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl Inner {
    fn open_at(&mut self, name: NameId, start_ns: u64) {
        let raw = if self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map_or(NO_RAW, |p| p.raw);
            self.raw.push(Raw {
                name: name.0,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (self.raw.len() - 1) as u32
        } else {
            self.raw_dropped += 1;
            NO_RAW
        };
        self.stack.push(Open {
            name: name.0,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    fn close_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let a = &mut self.aggs[open.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.durations.push(dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.raw != NO_RAW {
            self.raw[open.raw as usize].end_ns = end_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = Spans::new();
        let (run, filt, app) = (
            spans.intern("net.run"),
            spans.intern("core.filter_in"),
            spans.intern("apps.poll"),
        );
        {
            let mut s = spans.0.borrow_mut();
            s.open_at(run, 100);
            s.open_at(filt, 110);
            s.close_at(140); // 30
            s.open_at(app, 150);
            s.open_at(filt, 155); // nested grandchild: 5
            s.close_at(160);
            s.close_at(170); // app: 20 total, 15 self
            s.close_at(200); // run: 100 total, children 30 + 20
        }
        let r = spans.aggregate("net.run");
        assert_eq!((r.count, r.total_ns, r.self_ns), (1, 100, 50));
        let f = spans.aggregate("core.filter_in");
        assert_eq!((f.count, f.total_ns, f.self_ns), (2, 35, 35));
        let a = spans.aggregate("apps.poll");
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 20, 15));
        // Self times partition the root.
        assert_eq!(r.self_ns + f.self_ns + a.self_ns, r.total_ns);
        let json = spans.to_json();
        assert!(json.contains(
            "\"name\": \"apps.poll\", \"start_ns\": 150, \"end_ns\": 170, \"parent\": 0"
        ));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn raw_spans_are_capped_but_aggregates_are_not() {
        let spans = Spans::new();
        let n = spans.intern("x");
        for _ in 0..RAW_CAP + 10 {
            spans.enter(n);
            spans.exit();
        }
        assert_eq!(spans.aggregate("x").count, RAW_CAP as u64 + 10);
        assert_eq!(spans.0.borrow().raw.len(), RAW_CAP);
        assert_eq!(spans.0.borrow().raw_dropped, 10);
    }
}
