//! `tcpfo-inspect`: operator's view of the bridge — connection state
//! tables, invariant-auditor ledgers, failover timeline, Prometheus
//! text export, and flight-recorder bundle pretty-printing.
//!
//! ```text
//! tcpfo-inspect run [--failover]   audited canned run, print state tables
//! tcpfo-inspect prometheus         same run, Prometheus exposition only
//! tcpfo-inspect watch [--failover] [--frames N] [--plain]
//!                                  live one-screen refresher over the run
//! tcpfo-inspect health [--frames N] [--plain] [--prom]
//!                                  staged-degradation run, live health/lag/alert dashboard
//! tcpfo-inspect chain [--replicas N] [--frames N] [--plain] [--prom]
//!                                  depth-N chain run: head failure, promotion,
//!                                  tail reprovisioning, per-link health and lag
//! tcpfo-inspect trace [--replicas N] [--out FILE]
//!                                  traced chain failover: render the §5 MTTR
//!                                  waterfall + control-plane spans, export
//!                                  Chrome trace-event JSON (Perfetto loadable)
//! tcpfo-inspect bundle <dir>       pretty-print a flight-recorder bundle
//! ```
//!
//! The `run` subcommands drive the deterministic simulated testbed (no
//! sockets, no privileges), so the output is reproducible and the tool
//! doubles as a smoke test of the audited datapath.

use tcpfo_apps::chain_ops;
use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_core::{
    ChainConfig, ChainController, ChainTestbed, PrimaryBridge, PrimaryMode, TakeoverState,
};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::table::render_snapshot;
use tcpfo_telemetry::MttrBreakdown;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::Ipv4Packet;
use tcpfo_wire::pcapng::read_packets;
use tcpfo_wire::tcp::TcpView;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(switch(&args, "--failover"), false),
        Some("prometheus") => run(false, true),
        Some("watch") => watch(&args[1..]),
        Some("health") => health(&args[1..]),
        Some("chain") => chain(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("bundle") => match args.get(1) {
            Some(dir) => bundle(dir),
            None => usage(),
        },
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "tcpfo-inspect — bridge state tables and Prometheus export\n\n\
         USAGE:\n  tcpfo-inspect run [--failover]   audited canned run, print state tables\n  \
         tcpfo-inspect prometheus         same run, Prometheus exposition only\n  \
         tcpfo-inspect watch [--failover] [--frames N] [--plain]\n                                   \
         live one-screen refresher over the run\n  \
         tcpfo-inspect health [--frames N] [--plain] [--prom]\n                                   \
         staged-degradation run, live health/lag/alert dashboard\n  \
         tcpfo-inspect chain [--replicas N] [--frames N] [--plain] [--prom]\n                                   \
         chain failover + reprovisioning, per-link health/lag view\n  \
         tcpfo-inspect trace [--replicas N] [--out FILE]\n                                   \
         traced chain failover: MTTR waterfall + Chrome trace export\n  \
         tcpfo-inspect bundle <dir>       pretty-print a flight-recorder bundle"
    );
    2
}

/// Drives an audited canned transfer (optionally failing the primary
/// mid-way) and prints the operator tables — or, with `prom_only`, just
/// the Prometheus text exposition.
fn run(failover: bool, prom_only: bool) -> i32 {
    let mut tb = pair_scene(
        TestbedConfig {
            audit: Some(true),
            latency: Some(true),
            ..TestbedConfig::default()
        },
        2_000_000,
    );
    tb.run_for(SimDuration::from_millis(120));
    // Snapshot the primary's connection table mid-transfer, while the
    // bridge still holds live per-connection state.
    let rows = tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<PrimaryBridge>()
            .map(|b| b.connection_rows())
            .unwrap_or_default()
    });
    if failover {
        tb.kill_primary();
    }
    tb.run_for(SimDuration::from_secs(20));

    let snap = tb.metrics_snapshot();
    if prom_only {
        print!("{}", snap.to_prometheus());
        return exit_code(tb.audit_violations());
    }

    println!("=== connections (primary bridge, mid-transfer) ===");
    println!(
        "{:<22} {:>5} {:>10} {:>6} {:>10} {:>6} {:>6} {:>10} {:>7} {:>4}",
        "client", "port", "delta", "mss", "send_next", "pq_B", "sq_B", "min_ack", "min_win", "fin"
    );
    for r in &rows {
        println!(
            "{:<22} {:>5} {:>10} {:>6} {:>10} {:>6} {:>6} {:>10} {:>7} {:>4}",
            r.client.to_string(),
            r.server_port,
            r.delta.map_or("-".into(), |d| d.to_string()),
            r.mss,
            r.send_next,
            r.pq_bytes,
            r.sq_bytes,
            r.min_ack.map_or("-".into(), |a| a.to_string()),
            r.min_win,
            if r.fin_sent { "yes" } else { "no" }
        );
    }

    println!("\n=== invariant auditors ===");
    if let Some(report) = tb.with_primary_audit(|a| a.report()) {
        println!("{report}");
    }
    if let Some(report) = tb.with_secondary_audit(|a| a.report()) {
        println!("{report}");
    }

    println!("=== failover timeline ===");
    println!("{}", tb.telemetry.timeline.breakdown());

    println!("=== metrics ===");
    println!("{}", render_snapshot(&snap));
    exit_code(tb.audit_violations())
}

/// The scene `run`, `prometheus`, `watch` and `health` drive: the pair
/// testbed built from `cfg`, a `SourceServer` on port 80 of both
/// replicas, and a client downloading `bytes` from the service address.
fn pair_scene(cfg: TestbedConfig, bytes: u64) -> Testbed {
    let mut tb = Testbed::new(cfg);
    for node in [tb.primary, tb.secondary.expect("replicated testbed")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {bytes}\n").into_bytes(),
            bytes,
        )));
    });
    tb
}

/// The value of `--name N` in `args`, or `default` when absent or
/// unparsable.
fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Whether the bare switch `--name` is present in `args`.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Live one-screen refresher: drives the canned transfer in fixed
/// sim-time slices and redraws a compact dashboard — per-stage latency
/// quantiles, flow-table shard occupancy, headline counters, and the
/// failover timeline — after every slice. `--failover` kills the
/// primary halfway through; `--plain` suppresses the ANSI
/// clear-screen so the frames stack (useful for logs and CI).
fn watch(args: &[String]) -> i32 {
    let failover = switch(args, "--failover");
    let plain = switch(args, "--plain");
    let frames = flag(args, "--frames", 16).max(1);

    let mut tb = pair_scene(
        TestbedConfig {
            audit: Some(true),
            latency: Some(true),
            ..TestbedConfig::default()
        },
        4_000_000,
    );

    let slice = SimDuration::from_millis(250);
    for frame in 0..frames {
        // Kill the primary after the first frame so the takeover lands
        // mid-transfer and the remaining frames show the recovery.
        if failover && frame == 1 {
            tb.kill_primary();
        }
        tb.run_for(slice);
        let snap = tb.metrics_snapshot();
        if !plain {
            // Clear screen and home the cursor so the frame redraws in
            // place.
            print!("\x1b[2J\x1b[H");
        }
        render_watch_frame(
            &snap,
            frame,
            frames,
            &tb.telemetry.timeline.breakdown(),
            tb.sim.now(),
        );
    }
    exit_code(tb.audit_violations())
}

/// One dashboard frame: latency quantiles, shard gauges, counters, and
/// the timeline so far.
fn render_watch_frame(
    snap: &tcpfo_telemetry::MetricsSnapshot,
    frame: usize,
    frames: usize,
    timeline: &str,
    now: tcpfo_net::time::SimTime,
) {
    println!(
        "tcpfo-inspect watch — frame {}/{} — sim t = {} ms",
        frame + 1,
        frames,
        now.as_nanos() / 1_000_000
    );

    println!("\n── per-stage latency (host ns) ──");
    println!(
        "{:<36} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "histogram", "count", "p50", "p99", "p999", "max"
    );
    let mut any = false;
    for (name, h) in &snap.histograms {
        if !name.contains(".lat.") {
            continue;
        }
        any = true;
        println!(
            "{:<36} {:>9} {:>8} {:>8} {:>8} {:>8}",
            name,
            h.count,
            h.p50(),
            h.p99(),
            h.p999(),
            h.max
        );
    }
    if !any {
        println!("(no latency samples yet)");
    }

    println!("\n── flow-table shards ──");
    println!(
        "{:<30} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shard", "occupancy", "inserted", "evicted", "reaped", "lru"
    );
    let shard_prefixes: std::collections::BTreeSet<String> = snap
        .gauges
        .keys()
        .filter_map(|k| {
            let (prefix, _) = k.rsplit_once('.')?;
            prefix.contains(".shard").then(|| prefix.to_string())
        })
        .collect();
    let gauge = |prefix: &str, field: &str| {
        snap.gauges
            .get(&format!("{prefix}.{field}"))
            .map_or(0, |g| g.value)
    };
    for p in &shard_prefixes {
        println!(
            "{:<30} {:>9} {:>9} {:>9} {:>9} {:>9}",
            p,
            gauge(p, "occupancy"),
            gauge(p, "inserted"),
            gauge(p, "evicted"),
            gauge(p, "reaped"),
            gauge(p, "lru_depth"),
        );
    }
    if shard_prefixes.is_empty() {
        println!("(no shard gauges yet)");
    }

    println!("\n── headline counters ──");
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        let headline = name.ends_with(".merged_segments")
            || name.ends_with(".merged_bytes")
            || name.ends_with(".empty_acks")
            || name.ends_with(".retransmissions_forwarded")
            || name.ends_with(".acks_translated")
            || name.ends_with(".ingress_rewrites")
            || name.ends_with(".diverted_upstream")
            || name.ends_with(".unwitnessed_dropped")
            || name.ends_with(".drops");
        if headline {
            println!("{name:<44} {v:>12}");
        }
    }

    println!("\n── failover timeline ──");
    print!("{timeline}");
}

/// Staged-degradation health dashboard: drives a replicated transfer
/// with the health observatory attached, progressively degrades the
/// primary's links (latency, jitter, loss), then fail-stops it — and
/// redraws the secondary's view of the primary after every slice:
/// score axes, raw signals, SLO burn rates, the replication-lag
/// ledger, and the alert journal. The point of the exercise is visible
/// live: the advisory score degrades and `Warn` fires while the binary
/// heartbeat detector still considers the primary alive. `--prom`
/// appends the Prometheus exposition (registry + labelled alert
/// series) at the end.
fn health(args: &[String]) -> i32 {
    let plain = switch(args, "--plain");
    let prom = switch(args, "--prom");
    let frames = flag(args, "--frames", 12).max(4);

    let mut tb = pair_scene(
        TestbedConfig {
            health: Some(true),
            latency: Some(true),
            ..TestbedConfig::default()
        },
        4_000_000,
    );

    // Degradation script over the frame timeline: healthy for the
    // first quarter, then three escalating stages, then the kill at
    // three quarters — the remaining frames show takeover + recovery.
    let stage1 = frames / 4;
    let stage2 = frames * 2 / 4;
    let stage3 = frames * 5 / 8;
    let kill = frames * 3 / 4;
    let slice = SimDuration::from_millis(250);
    for frame in 0..frames {
        let p = tb.primary;
        if frame == stage1 {
            tb.reshape_links(p, |l| {
                l.with_loss((l.loss + 0.05).min(1.0))
                    .with_propagation(SimDuration::from_millis(2))
            });
        } else if frame == stage2 {
            tb.reshape_links(p, |l| {
                l.with_loss(0.15)
                    .with_propagation(SimDuration::from_millis(8))
                    .with_jitter(SimDuration::from_millis(4))
            });
        } else if frame == stage3 {
            tb.reshape_links(p, |l| {
                l.with_loss(0.30)
                    .with_propagation(SimDuration::from_millis(12))
                    .with_jitter(SimDuration::from_millis(8))
            });
        } else if frame == kill {
            tb.kill_primary();
        }
        tb.run_for(slice);
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        render_health_frame(&mut tb, frame, frames, stage1, stage2, stage3, kill);
    }

    if prom {
        let snap = tb.metrics_snapshot();
        println!("\n{}", snap.to_prometheus());
        let secondary = tb.secondary.expect("replicated testbed");
        if let Some(alerts) =
            tb.with_health_monitor(secondary, |m| m.alerts_prometheus("core.control.r1.peer0"))
        {
            print!("{alerts}");
        }
    }
    exit_code(tb.audit_violations())
}

/// One health-dashboard frame: the secondary's scored view of the
/// primary, the primary's lag ledger (while it is still alive), and
/// the alert journal so far.
fn render_health_frame(
    tb: &mut Testbed,
    frame: usize,
    frames: usize,
    stage1: usize,
    stage2: usize,
    stage3: usize,
    kill: usize,
) {
    let phase = match frame {
        f if f >= kill => "primary KILLED — takeover",
        f if f >= stage3 => "degradation stage 3 (heavy loss + jitter)",
        f if f >= stage2 => "degradation stage 2 (loss + latency)",
        f if f >= stage1 => "degradation stage 1 (mild)",
        _ => "healthy baseline",
    };
    println!(
        "tcpfo-inspect health — frame {}/{} — sim t = {} ms — {phase}",
        frame + 1,
        frames,
        tb.sim.now().as_nanos() / 1_000_000
    );

    let secondary = tb.secondary.expect("replicated testbed");
    let view = tb.with_health_monitor(secondary, |m| {
        (
            m.score(),
            m.state(),
            m.first_warn_at(),
            m.journal()
                .events()
                .map(|e| (e.at_ns, e.from, e.to, e.score, e.reason))
                .collect::<Vec<_>>(),
        )
    });
    match view {
        Some((score, state, first_warn, journal)) => {
            println!("\n── replica health (secondary's view of the primary) ──");
            println!(
                "score {:>3}/100  [liveness {:>3}  rtt {:>3}  jitter {:>3}  loss {:>3}  backlog {:>3}]  alert: {}",
                score.total,
                score.liveness,
                score.rtt,
                score.jitter,
                score.loss,
                score.backlog,
                state.name(),
            );
            println!(
                "signals: rtt {:>9} ns  jitter {:>9} ns  misses {:>2}  loss {:>6} ppm  lag {:>8} B",
                score.rtt_ns, score.jitter_ns, score.misses, score.loss_ppm, score.lag_bytes,
            );
            if let Some(at) = first_warn {
                println!("first warn at sim t = {} ms", at / 1_000_000);
            }
            println!("\n── alert journal ──");
            if journal.is_empty() {
                println!("(no transitions yet)");
            }
            for (at_ns, from, to, score, reason) in &journal {
                println!(
                    "{:>8} ms  {:>8} → {:<8} score {:>3}  ({reason})",
                    at_ns / 1_000_000,
                    from.name(),
                    to.name(),
                    score,
                );
            }
        }
        None => println!("\n(no health monitor on the secondary)"),
    }

    println!("\n── replication lag (primary's ledger) ──");
    let lag = tb.with_primary_health(|obs| {
        (
            obs.lag.unmatched_bytes(),
            obs.lag.unmatched_segments(),
            obs.lag.peak_bytes(),
            obs.lag.releases(),
        )
    });
    match lag {
        Some((bytes, segments, peak, releases)) => println!(
            "unmatched {bytes:>8} B / {segments:>5} segs  peak {peak:>8} B  releases {releases:>7}",
        ),
        None => println!("(primary gone — ledger died with it)"),
    }
}

/// Chain dashboard: drives a depth-N chain serving a live download,
/// kills the head a quarter of the way in, re-provisions a standby
/// tail at the halfway mark, and redraws the whole control plane after
/// every slice — per-link role, takeover state and health score,
/// replication lag per hop, the reprovisioning phase clock, and the
/// recent chain journal (promotions, vetoes, kills, adoption). `--prom`
/// appends each replica's Prometheus exposition at the end.
fn chain(args: &[String]) -> i32 {
    let plain = switch(args, "--plain");
    let prom = switch(args, "--prom");
    let replicas = flag(args, "--replicas", 3).clamp(2, 8);
    let frames = flag(args, "--frames", 8).max(4);

    let mut tb = ChainTestbed::new(ChainConfig {
        replicas,
        seed: 0x1C,
        audit: Some(true),
        health: Some(true),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 16000000\n".to_vec(),
            16_000_000,
        )));
    });

    // Script over the frame timeline: healthy chain for the first
    // quarter, head killed at a quarter, standby reprovisioned as the
    // new tail at the halfway mark; the rest shows catch-up draining.
    let kill = (frames / 4).max(1);
    let reprovision = (frames / 2).max(kill + 1);
    let slice = SimDuration::from_millis(250);
    let mut standby = None;
    for frame in 0..frames {
        if frame == kill {
            tb.kill_replica(0);
        } else if frame == reprovision {
            standby = Some(chain_ops::reprovision_tail(&mut tb));
        }
        tb.run_for(slice);
        tb.poll_reprovision();
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        render_chain_frame(&mut tb, frame, frames, kill, reprovision, standby);
    }

    if prom {
        let now = tb.sim.now().as_nanos();
        for (i, &node) in tb.replicas.clone().iter().enumerate() {
            if tb.dead[i] {
                continue;
            }
            tb.sim.with::<Host, _>(node, |h, _| {
                let f = h.filter_mut().as_any_mut();
                if let Some(b) = f.downcast_mut::<PrimaryBridge>() {
                    b.sync_telemetry(now);
                }
            });
            println!("\n# replica {i} ({})", tb.replica_addrs[i]);
            print!("{}", tb.hubs[i].registry.snapshot(now).to_prometheus());
        }
    }

    exit_code(tb.audit_violations())
}

/// One chain-dashboard frame: topology + per-link control-plane state,
/// lag per hop, the reprovision clock, and the recent chain journal.
fn render_chain_frame(
    tb: &mut ChainTestbed,
    frame: usize,
    frames: usize,
    kill: usize,
    reprovision: usize,
    standby: Option<usize>,
) {
    let phase = match frame {
        f if f >= reprovision => "standby reprovisioned — catch-up",
        f if f >= kill => "head KILLED — takeover",
        _ => "healthy chain",
    };
    println!(
        "tcpfo-inspect chain — frame {}/{} — sim t = {} ms — {phase}",
        frame + 1,
        frames,
        tb.sim.now().as_nanos() / 1_000_000
    );

    println!("\n── chain links (client-facing stream climbs tail → head) ──");
    println!(
        "{:<4} {:<12} {:<8} {:<10} {:>6} {:>12} {:>12} {:>9} {:>9}",
        "idx", "addr", "role", "state", "score", "promoted_ms", "lag_B", "releases", "peak_B"
    );
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let addr = tb.replica_addrs[i];
        if tb.dead[i] {
            println!("{i:<4} {addr:<12} {:<8} {:<10}", "-", "DEAD");
            continue;
        }
        let (role, lag) = tb.sim.with::<Host, _>(node, |h, _| {
            let f = h.filter_mut().as_any_mut();
            let Some(b) = f.downcast_mut::<PrimaryBridge>() else {
                return ("?", None);
            };
            // Below the head, a link with nobody below it is the tail.
            let role = match (b.is_head(), b.mode()) {
                (true, _) => "head",
                (false, PrimaryMode::SecondaryFailed) => "tail",
                (false, PrimaryMode::Normal) => "middle",
            };
            let observers = b.observers();
            let lag = observers.health.as_deref().map(|o| {
                (
                    o.lag.unmatched_bytes(),
                    o.lag.releases(),
                    o.lag.peak_bytes(),
                )
            });
            (role, lag)
        });
        let (state, score, promoted) = tb.sim.with::<Host, _>(node, |h, _| {
            let c = h.controller_mut::<ChainController>();
            (c.takeover_state(), c.self_score().total, c.promoted_at)
        });
        let state = match state {
            TakeoverState::Following => "following",
            TakeoverState::Vetoed => "VETOED",
            TakeoverState::Promoted => "promoted",
        };
        let (lag_b, rel, peak) = lag.map_or(("-".into(), "-".into(), "-".into()), |(b, r, p)| {
            (b.to_string(), r.to_string(), p.to_string())
        });
        let role = if Some(i) == standby {
            format!("{role}+")
        } else {
            role.to_string()
        };
        println!(
            "{i:<4} {addr:<12} {role:<8} {state:<10} {score:>6} {:>12} {lag_b:>12} {rel:>9} {peak:>9}",
            promoted.map_or("-".to_string(), |t| (t.as_nanos() / 1_000_000).to_string()),
        );
    }
    println!("(+ marks the reprovisioned standby; lag is each link's unmatched downstream bytes)");

    println!("\n── redundancy restoration ──");
    let lag_now = tb.catchup_lag();
    println!(
        "{}  catch-up backlog now: {lag_now} B",
        tb.tracker.to_json()
    );

    println!("\n── recent chain events ──");
    let mut events: Vec<_> = Vec::new();
    for (i, hub) in tb.hubs.iter().enumerate() {
        if tb.dead.get(i).copied().unwrap_or(false) {
            continue;
        }
        for e in hub.journal.tail(16) {
            if e.scope.starts_with("core.control") || e.scope == "chain_testbed" {
                events.push((e.at_ns, i, e.kind.clone(), e.fields.clone()));
            }
        }
    }
    events.sort();
    events.dedup();
    if events.is_empty() {
        println!("(none yet)");
    }
    for (at_ns, replica, kind, fields) in events.iter().rev().take(10).rev() {
        let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{:>8} ms  replica{replica}  {kind:<22} {}",
            at_ns / 1_000_000,
            fields.join(" ")
        );
    }
}

/// Drives the staged depth-N chain failover with span tracing armed on
/// every replica hub, renders the promoted backup's forensic view —
/// the §5 MTTR waterfall, the redundancy-restoration clock, and the
/// control-plane spans the takeover recorded — and exports the merged
/// Chrome trace-event JSON for Perfetto / `chrome://tracing`.
fn trace(args: &[String]) -> i32 {
    let replicas = flag(args, "--replicas", 3).clamp(2, 8);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "FAILOVER_TRACE.json".to_string());

    let mut tb = ChainTestbed::new(ChainConfig {
        replicas,
        seed: 0x1C,
        audit: Some(true),
        health: Some(true),
        span_trace: Some(true),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 16000000\n".to_vec(),
            16_000_000,
        )));
    });

    // The rehearsal: healthy, head killed, takeover, tail
    // re-provisioned, catch-up drained.
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    chain_ops::reprovision_tail(&mut tb);
    tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30));
    tb.run_for(SimDuration::from_secs(2));

    // The promoted backup carries the complete timeline and the spans
    // of the takeover it performed.
    let hub = tb.hubs[1].clone();
    println!(
        "tcpfo-inspect trace — depth-{replicas} chain, head killed at 200 ms, sim t = {} ms",
        tb.sim.now().as_nanos() / 1_000_000
    );
    match hub.timeline.mttr() {
        Some(m) => {
            println!(
                "\n── §5 failover waterfall (MTTR {:.3} ms) ──",
                m.total_ns as f64 / 1e6
            );
            let deltas = m.deltas();
            let widest = deltas.into_iter().max().unwrap_or(1).max(1);
            for (name, dur) in MttrBreakdown::PHASES.into_iter().zip(deltas) {
                let bar = (dur * 40).div_ceil(widest) as usize;
                println!(
                    "{name:<18} {:<40} {:>10.3} ms",
                    "█".repeat(bar),
                    dur as f64 / 1e6
                );
            }
        }
        None => println!("\n(timeline incomplete — no client byte crossed the new head yet)"),
    }

    println!("\n── redundancy restoration ──");
    match (
        tb.tracker.reprovision_ns(),
        tb.tracker.catchup_ns(),
        tb.tracker.total_ns(),
    ) {
        (Some(rep), Some(cat), Some(total)) => {
            let widest = rep.max(cat).max(1);
            for (name, dur) in [("reprovision", rep), ("catchup", cat)] {
                let bar = (dur * 40).div_ceil(widest) as usize;
                println!(
                    "{name:<18} {:<40} {:>10.3} ms",
                    "█".repeat(bar),
                    dur as f64 / 1e6
                );
            }
            println!(
                "{:<18} {:<40} {:>10.3} ms",
                "restored",
                "",
                total as f64 / 1e6
            );
        }
        _ => println!("(not restored within the rehearsal window)"),
    }

    let records = hub.trace.records();
    println!(
        "\n── control-plane spans (replica 1, the promoted backup; {} retained, {} dropped) ──",
        records.len(),
        hub.trace.dropped()
    );
    for r in records.iter().rev().take(24).rev() {
        println!("{}", r.summary());
    }

    let waterfall = tcpfo_telemetry::waterfall_records(&hub);
    let chrome = hub.trace.chrome_trace(&waterfall);
    match std::fs::write(&out, &chrome) {
        Ok(()) => println!(
            "\nwrote {out} ({} bytes, {} synthetic waterfall spans) — load in Perfetto or chrome://tracing",
            chrome.len(),
            waterfall.len()
        ),
        Err(e) => {
            eprintln!("tcpfo-inspect: write to {out} failed: {e}");
            return 1;
        }
    }

    exit_code(tb.audit_violations())
}

/// Exit status of a run whose auditors recorded `violations`.
fn exit_code(violations: u64) -> i32 {
    if violations > 0 {
        eprintln!("tcpfo-inspect: {violations} invariant violation(s) recorded");
        1
    } else {
        0
    }
}

/// Pretty-prints a flight-recorder bundle directory: the rule ledger
/// and violations, the tail of the trace ring, a per-packet summary of
/// the capture, and the timeline, if present.
fn bundle(dir: &str) -> i32 {
    let dir = std::path::Path::new(dir);
    let ledger = dir.join("ledger.txt");
    if !ledger.exists() {
        eprintln!(
            "tcpfo-inspect: {} does not look like a bundle (no ledger.txt)",
            dir.display()
        );
        return 2;
    }
    println!("=== rule ledger + violations ===");
    match std::fs::read_to_string(&ledger) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("ledger.txt: {e}"),
    }
    println!("=== trace ring (last 40) ===");
    match std::fs::read_to_string(dir.join("trace_ring.txt")) {
        Ok(s) => {
            let lines: Vec<&str> = s.lines().collect();
            for line in lines.iter().skip(lines.len().saturating_sub(40)) {
                println!("{line}");
            }
        }
        Err(e) => eprintln!("trace_ring.txt: {e}"),
    }
    println!("\n=== capture.pcapng ===");
    match std::fs::read(dir.join("capture.pcapng")) {
        Ok(bytes) => match read_packets(&bytes) {
            Ok(pkts) => {
                println!("{} packet(s)", pkts.len());
                for p in &pkts {
                    println!(
                        "  {:>12} ns  {:>5} B  {}",
                        p.ts_ns,
                        p.frame.len(),
                        tcp_line(&p.frame)
                    );
                }
            }
            Err(e) => eprintln!("capture.pcapng does not parse: {e}"),
        },
        Err(e) => eprintln!("capture.pcapng: {e}"),
    }
    let timeline = dir.join("timeline.json");
    if let Ok(s) = std::fs::read_to_string(&timeline) {
        println!("\n=== timeline.json ===\n{s}");
    }
    // PR 10: the failover span dump, when the bundle's hub had tracing
    // armed. The sibling trace.chrome.json loads in Perfetto as-is.
    if let Ok(s) = std::fs::read_to_string(dir.join("spans.json")) {
        println!("\n=== spans.json ===\n{s}");
        if dir.join("trace.chrome.json").exists() {
            println!(
                "(trace.chrome.json present — load {} in Perfetto or chrome://tracing)",
                dir.join("trace.chrome.json").display()
            );
        }
    }
    0
}

/// One-line Ethernet/IPv4/TCP summary of a captured frame.
fn tcp_line(frame: &[u8]) -> String {
    let Ok(eth) = EthernetFrame::decode(frame) else {
        return "non-ethernet".into();
    };
    if eth.ethertype != EtherType::Ipv4 {
        return format!("{:?}", eth.ethertype);
    }
    let Ok(ip) = Ipv4Packet::decode_shared(&eth.payload) else {
        return "bad ipv4".into();
    };
    match TcpView::new(&ip.payload) {
        Ok(v) => format!(
            "{}:{} → {}:{} seq={} ack={} len={} [{}]",
            ip.src,
            v.src_port(),
            ip.dst,
            v.dst_port(),
            v.seq(),
            v.ack(),
            v.payload().len(),
            v.flags()
        ),
        Err(_) => format!("ip {} → {} proto={}", ip.src, ip.dst, ip.protocol),
    }
}
