//! The metric catalogue, and how a run prints itself.
//!
//! The catalogue is the single list of metric names, units, directions
//! and bounds; `BENCHMARK.json` at the repository root repeats it for
//! the driver, and a self-test keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [&str; 4] = ["bulk_stream", "conn_churn", "bridge_datapath", "failover"];

/// Why each workload exists, one line each (`BENCHMARK.json`).
const WHY: [&str; 4] = [
    "Full path, 1 flow, 64 MB down then up, MSS segments, closed loop, 7 reps: paper Fig. 5; \
     net, tcp and wire at 1460 B do the work, core matches payload (down) or merges ACKs (up)",
    "Full path, 6 x 2000 short connections at 500 conn/s simulated (open loop) over 1024 idle \
     residents: handshake, teardown, flow-table churn; host cost per event grows with open \
     connections",
    "No simulator: a 16-shard PrimaryBridge with 2^18 resident flows fed 8 x 1M 64 B segments \
     through process_batch: per-packet cost of core alone, working set far beyond the cache",
    "12 pair + 12 chain scenes, 8 x 1 MB downloads (+ 200 conn/s churn on the pair), replica \
     killed at 12 seeded offsets, tail reprovisioned, auditor on: core in mode change and the \
     control plane",
];

/// The benchmark's one profile: seconds the timed section of a run
/// takes at the sizes above.
pub const RUN_SECONDS: u64 = 10;

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host.run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host.peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "client.lat_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "client.lat_tail_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
];

/// The bound `compare` holds one workload's cell to. `compare` pairs
/// runs by seed, and on the three simulated workloads `client.lat_*` is
/// simulated time, exact for a seed: there any change at all is a change
/// of behaviour, so 1 % is generous. Everything on the host clock gets
/// the catalogue's bound (what this machine's noise allows).
pub fn cell_bound(workload: &str, metric: &EndToEnd) -> f64 {
    if metric.name.starts_with("client.") && workload != "bridge_datapath" {
        0.01
    } else {
        metric.bound
    }
}

macro_rules! layer {
    ($($name:literal $unit:literal $better:ident),* $(,)?) => {
        &[$(PerLayer { name: $name, unit: $unit, better: $better }),*]
    };
}

pub const PER_LAYER: &[PerLayer] = layer![
    // The paper-facing figures, simulated time (exact for a seed).
    "sim.download_KBps" "KB/s" Higher,
    "sim.upload_KBps" "KB/s" Higher,
    "sim.max_rate_conn_per_s" "1/s" Higher,
    "sim.detect_ms" "ms" Lower,
    "sim.takeover_ms" "ms" Lower,
    "sim.restored_ms" "ms" Lower,
    // Open-loop host latency of the bridge alone (too unsteady on a
    // shared machine to be held to a bound).
    "host.lat_p50_us" "us" Lower,
    "host.lat_p99_us" "us" Lower,
    // wire
    "wire.decode_ns.64" "ns" Lower,
    "wire.decode_ns.1460" "ns" Lower,
    "wire.encode_ns.64" "ns" Lower,
    "wire.encode_ns.1460" "ns" Lower,
    "wire.template_emit_ns.1460" "ns" Lower,
    "wire.csum_full_ns.1460" "ns" Lower,
    "wire.fixup_scalar_ns" "ns" Lower,
    "wire.fixup_batch8_ns" "ns" Lower,
    "wire.patch_ack_ns" "ns" Lower,
    // net
    "net.events" "count" Lower,
    "net.events_per_s" "1/s" Higher,
    "net.bare_events_per_s" "1/s" Higher,
    "net.run_self_s" "s" Lower,
    // tcp
    "tcp.stack_seg_per_s" "1/s" Higher,
    "tcp.standard_run_s" "s" Lower,
    "tcp.standard_download_KBps" "KB/s" Higher,
    "tcp.standard_upload_KBps" "KB/s" Higher,
    "tcp.standard_max_rate_conn_per_s" "1/s" Higher,
    "tcp.event_ns.res0" "ns" Lower,
    "tcp.event_ns.res1024" "ns" Lower,
    "tcp.event_ns.res4096" "ns" Lower,
    "tcp.retransmits" "count" Lower,
    "tcp.rto_expiries" "count" Lower,
    // core, datapath
    "core.filter_calls" "count" Lower,
    "core.filter_busy_s" "s" Lower,
    "core.filter_ns_p50" "ns" Lower,
    "core.filter_ns_p99" "ns" Lower,
    "core.tick_busy_s" "s" Lower,
    "core.tick_max_us" "us" Lower,
    "core.seg_per_s.down" "1/s" Higher,
    "core.seg_per_s.up" "1/s" Higher,
    "core.seg_per_s.mice" "1/s" Higher,
    "core.seg_per_s.chain_mid" "1/s" Higher,
    "core.seg_per_s.secondary" "1/s" Higher,
    "core.flow_lookup_ns.small" "ns" Lower,
    "core.flow_lookup_ns.large" "ns" Lower,
    "core.flow_insert_ns" "ns" Lower,
    "core.flow_gc_ns_per_reap" "ns" Lower,
    "core.queue_match_ns.1460" "ns" Lower,
    "core.alloc_per_seg" "count" Lower,
    "core.merged_bytes" "count" Higher,
    "core.empty_acks" "count" Lower,
    "core.acks_translated" "count" Lower,
    "core.retx_forwarded" "count" Lower,
    "core.evicted" "count" Lower,
    "core.reaped" "count" Higher,
    "core.held_bytes_peak" "count" Lower,
    "core.output_digest" "count" Higher,
    // core, cost of replication (failover over standard, simulated)
    "core.ratio.download" "ratio" Higher,
    "core.ratio.upload" "ratio" Higher,
    "core.ratio.max_rate" "ratio" Higher,
    // core, control plane
    "core.mttr.detection_ms" "ms" Lower,
    "core.mttr.hold_ms" "ms" Lower,
    "core.mttr.translation_ms" "ms" Lower,
    "core.mttr.arp_ms" "ms" Lower,
    "core.mttr.first_byte_ms" "ms" Lower,
    "core.reprov.provision_ms" "ms" Lower,
    "core.reprov.catchup_ms" "ms" Lower,
    "core.promote_vetoes" "count" Lower,
    "core.hb_missed_at_fire" "count" Lower,
    // apps
    "apps.server_poll_busy_s" "s" Lower,
    "apps.client_poll_busy_s" "s" Lower,
    "apps.polls" "count" Lower,
    "apps.poll_ns_p50" "ns" Lower,
    "apps.poll_ns_p99" "ns" Lower,
    // telemetry: the attached cost of each observer
    "telemetry.cost_pct.audit" "%" Lower,
    "telemetry.cost_pct.latency" "%" Lower,
    "telemetry.cost_pct.health" "%" Lower,
    "telemetry.cost_pct.span" "%" Lower,
    "telemetry.cost_pct.all" "%" Lower,
    "telemetry.dropped.journal" "count" Lower,
    "telemetry.dropped.trace_ring" "count" Lower,
    "telemetry.dropped.span_ring" "count" Lower,
    "telemetry.publish_ns" "ns" Lower,
    // the benchmark's own generator and tracer
    "bench.gen_ns_per_seg" "ns" Lower,
    "bench.late_p99_us" "us" Lower,
    "bench.backlog_peak" "count" Lower,
    "bench.backlog_end" "count" Lower,
    "bench.host_stalls_per_s" "1/s" Lower,
    "trace.overhead_pct" "%" Lower,
    "trace.span_coverage_pct" "%" Higher,
];

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (a self-test compares the file at the repository root).
pub fn manifest() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [");
    for (i, (name, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Named values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(known, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted and failed (transfers, connections,
    /// segments, scenes).
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The last line of a run's standard output. With `trace` every
/// per-layer metric (0 where this workload does not measure it), else
/// every end-to-end metric (all must be present).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    let mut first = true;
    let mut put = |name: &str, unit: &str, v: f64| {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if first { "" } else { ", " }
        );
        first = false;
    };
    if trace {
        for m in PER_LAYER {
            put(m.name, m.unit, outcome.metrics.get(m.name).unwrap_or(0.0));
        }
    } else {
        for m in &END_TO_END {
            let v = outcome
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
            put(m.name, m.unit, v);
        }
    }
    s.push_str("}}");
    s
}

/// The human-readable table printed before the result line.
pub fn table(workload: &str, outcome: &Outcome, trace: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workload {workload}: {} operations attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for n in &outcome.notes {
        let _ = writeln!(s, "  {n}");
    }
    let mut row = |name: &str, unit: &str, v: Option<f64>| {
        if let Some(v) = v {
            let _ = writeln!(s, "  {name:<34} {v:>18.4} {unit}");
        }
    };
    for m in &END_TO_END {
        row(m.name, m.unit, outcome.metrics.get(m.name));
    }
    if trace {
        for m in PER_LAYER {
            row(m.name, m.unit, outcome.metrics.get(m.name));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.metrics.set(m.name, 1.5);
        }
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        let traced = result_line(&o, true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }
}
