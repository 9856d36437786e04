//! `tcpfo-inspect`: one view of a run, read from each telemetry hub's
//! registry and journal; a traced failover's Chrome trace; bundles.
//!
//! ```text
//! run [--failover] [--prom]   the canned audited download (primary killed
//!                             mid-way with --failover): connection table,
//!                             auditor reports, ring drops, then the view
//! watch <pair|degrade|chain> [--failover] [--replicas N] [--frames N]
//!       [--plain] [--prom]    the view after each 250 ms of a scene
//! trace [--replicas N] [--out FILE]   traced chain failover, Chrome trace
//! bundle <dir>                pretty-print a flight-recorder bundle
//! ```
//!
//! `--prom` prints every hub's Prometheus exposition (alone for
//! `run`); `--plain` stacks the frames. Every scene is deterministic.

use std::collections::BTreeSet;

use tcpfo_apps::chain_ops;
use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::table::two_columns;
use tcpfo_telemetry::{Event, InvariantAuditor, MetricsSnapshot, MttrBreakdown, Telemetry};
use tcpfo_wire::eth::{EtherType, EthernetFrame, ETH_HEADER_LEN};
use tcpfo_wire::ipv4::Ipv4Packet;
use tcpfo_wire::pcapng::read_packets;
use tcpfo_wire::tcp::TcpView;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match (args.first().map(String::as_str), args.get(1)) {
        (Some("run"), _) => run(switch(&args, "--failover"), switch(&args, "--prom")),
        (Some("watch"), _) => watch(&args[1..]),
        (Some("trace"), _) => trace(&args[1..]),
        (Some("bundle"), Some(dir)) => bundle(dir),
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!("usage: tcpfo-inspect run | watch <pair|degrade|chain> | trace | bundle <dir>");
    2
}

/// The argument after `--name` in `args`, if any.
fn value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.get(args.iter().position(|a| a == name)? + 1)
}

/// The number after `--name` in `args`, or `default`.
fn flag(args: &[String], name: &str, default: usize) -> usize {
    let parsed = value(args, name).and_then(|v| v.parse().ok());
    parsed.unwrap_or(default)
}

/// Whether the bare switch `--name` is present in `args`.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The snapshot: the canned download with the auditors on (the primary
/// killed at 120 ms with `failover`), 20 s later, as the connection
/// table taken at 120 ms, the auditors' reports, the rings' drops and
/// the view — or, with `prom`, the Prometheus exposition alone.
fn run(failover: bool, prom: bool) -> i32 {
    let mut tb = pair_scene(true, false, 2_000_000);
    tb.run_for(SimDuration::from_millis(120));
    let rows = tb.with_primary_bridge(|b| b.connection_rows());
    if failover {
        tb.kill_primary();
    }
    tb.run_for(SimDuration::from_secs(20));
    if !prom {
        println!("=== connections (primary bridge, mid-transfer) ===");
        let head = "client                  port      delta    mss  send_next   pq_B   sq_B";
        println!("{head}    min_ack min_win  fin");
        for r in rows.unwrap_or_default() {
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
        print_audits(&mut tb);
    }
    match prom {
        true => prometheus(&hub_views(&mut tb)),
        false => render_frame("tcpfo-inspect run", &hub_views(&mut tb)),
    }
    exit_code(tb.audit_violations())
}

/// Every replica's auditor report, then one line of what every bounded
/// ring of the run evicted: the hubs' journals and span rings (with the
/// ends whose begin they lost), the packet trace and each auditor's two
/// rings.
fn print_audits(tb: &mut Testbed) {
    println!("\n=== invariant auditors ===");
    let sum = |ring: fn(&Telemetry) -> u64| tb.hubs.iter().map(ring).sum::<u64>();
    let journal = sum(|h| h.journal.dropped());
    let (spans, lost) = (sum(|h| h.trace.dropped()), sum(|h| h.trace.lost_ends()));
    let mut drops = format!("drops: journal {journal}, span ring {spans} ({lost} lost ends)");
    drops += &format!(", packet trace {}", tb.sim.trace_dropped());
    for i in 0..tb.replicas.len() {
        let audit = |a: &InvariantAuditor| (a.report(), a.label().to_string(), a.dropped());
        if let Some((report, who, (ring, segments))) = tb.with_audit(i, audit) {
            println!("{report}");
            drops += &format!(", {who} auditor ring {ring} / segments {segments}");
        }
    }
    println!("{drops}\n");
}

/// The pair testbed (latency observatory on, the auditor and the health
/// observatory on as asked) serving a `bytes` download from both
/// replicas.
fn pair_scene(audit: bool, health: bool, bytes: u64) -> Testbed {
    let mut cfg = TestbedConfig::default();
    (cfg.audit, cfg.health) = (audit.then_some(true), health.then_some(true));
    cfg.latency = Some(true);
    serving(cfg, bytes)
}

/// A depth-`replicas` chain (seed 0x1C, auditor and health observatory
/// on, span tracing per `span_trace`) serving a 16 MB download.
fn chain_scene(replicas: usize, span_trace: Option<bool>) -> Testbed {
    let mut cfg = TestbedConfig::default();
    (cfg.replicas, cfg.seed, cfg.span_trace) = (replicas, 0x1C, span_trace);
    (cfg.audit, cfg.health) = (Some(true), Some(true));
    serving(cfg, 16_000_000)
}

/// The testbed `cfg` builds, every replica serving the pattern source
/// on port 80 and the client asking it for `bytes`.
fn serving(cfg: TestbedConfig, bytes: u64) -> Testbed {
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SourceServer::new(80));
    add_client(&mut tb.sim, tb.client, bytes);
    tb
}

/// A client on `node` asking the service address for `bytes`.
fn add_client(sim: &mut Simulator, node: NodeId, bytes: u64) {
    let (vip, request) = (SocketAddr::new(addrs::A_P, 80), format!("SEND {bytes}\n"));
    let client = RequestReplyClient::new(vip, request.into_bytes(), bytes);
    sim.with::<Host, _>(node, |h, _| h.add_app(Box::new(client)));
}

/// The phases of the degradation script, by marks reached.
const DEGRADE_PHASES: [&str; 5] = [
    "healthy baseline",
    "degradation stage 1 (mild)",
    "degradation stage 2 (loss + latency)",
    "degradation stage 3 (heavy loss + jitter)",
    "primary KILLED — takeover",
];

/// The phases of the chain script, by marks reached.
const CHAIN_PHASES: [&str; 3] = [
    "healthy chain",
    "head KILLED — takeover",
    "standby reprovisioned — catch-up",
];

/// A scene the view reads: a testbed (one hub per replica) and its
/// script.
struct Scene {
    tb: Testbed,
    script: Script,
}

/// The pair on the canned download, failing over or not; the pair
/// degraded in stages; or a chain.
enum Script {
    Pair { failover: bool },
    Degrade,
    Chain,
}

/// One hub as a frame shows it: its label, with dead replicas marked,
/// and its registry's snapshot (a dead replica's counters frozen at the
/// kill; the simulator's and the client's series, on `hubs[0]`, live).
struct HubView {
    label: String,
    hub: Telemetry,
    snap: MetricsSnapshot,
}

impl Scene {
    /// The scene `name` as `args` configure it, with its frame count.
    fn new(name: &str, args: &[String]) -> Option<(Scene, usize)> {
        let frames = |default| flag(args, "--frames", default);
        let (tb, script, frames) = match name {
            "pair" => {
                let failover = switch(args, "--failover");
                let tb = pair_scene(true, false, 4_000_000);
                (tb, Script::Pair { failover }, frames(16).max(1))
            }
            "degrade" => {
                let tb = pair_scene(false, true, 4_000_000);
                (tb, Script::Degrade, frames(12).max(4))
            }
            "chain" => {
                let replicas = flag(args, "--replicas", 3).clamp(2, 8);
                (chain_scene(replicas, None), Script::Chain, frames(8).max(4))
            }
            _ => return None,
        };
        Some((Scene { tb, script }, frames))
    }

    /// Plays `frame` of `frames`: the script's action for it, then 250 ms
    /// of sim time. Returns the phase the frame shows. The pair's primary
    /// is killed after the first frame; the degraded primary's links
    /// worsen at a quarter, a half and five eighths, and it is killed at
    /// three quarters; the chain's head is killed at a quarter and a
    /// standby reprovisioned at half.
    fn play(&mut self, frame: usize, frames: usize) -> &'static str {
        // The phase is the number of the script's marks `frame` reached.
        let reached = |marks: &[usize]| marks.iter().filter(|&&m| m <= frame).count();
        let ms = SimDuration::from_millis;
        let tb = &mut self.tb;
        match self.script {
            Script::Pair { failover } => {
                if failover && frame == 1 {
                    tb.kill_primary();
                }
                tb.run_for(ms(250));
                ["transfer", "primary KILLED — takeover"][usize::from(failover && frame >= 1)]
            }
            Script::Degrade => {
                let marks = [frames / 4, frames * 2 / 4, frames * 5 / 8, frames * 3 / 4];
                // Loss, propagation and jitter (ms) of each stage.
                let stages = [(0.05, 2, 0), (0.15, 8, 4), (0.30, 12, 8)];
                match marks.iter().position(|&m| m == frame) {
                    Some(3) => tb.kill_primary(),
                    Some(i) => {
                        let (loss, propagation, jitter) = stages[i];
                        tb.reshape_links(tb.primary, |l| {
                            let l = l.with_loss(loss).with_propagation(ms(propagation));
                            l.with_jitter(ms(jitter))
                        })
                    }
                    None => {}
                }
                tb.run_for(ms(250));
                DEGRADE_PHASES[reached(&marks)]
            }
            Script::Chain => {
                let kill = (frames / 4).max(1);
                let marks = [kill, (frames / 2).max(kill + 1)];
                if frame == marks[0] {
                    tb.kill_replica(0);
                } else if frame == marks[1] {
                    chain_ops::reprovision_tail(tb);
                }
                tb.run_for(ms(250));
                tb.poll_reprovision();
                CHAIN_PHASES[reached(&marks)]
            }
        }
    }
}

/// Every replica's hub, each living bridge's latest state published
/// first.
fn hub_views(tb: &mut Testbed) -> Vec<HubView> {
    (0..tb.replicas.len())
        .map(|i| {
            let (addr, dead, hub) = (tb.replica_addrs[i], tb.is_dead(i), tb.hubs[i].clone());
            let label = format!("replica {i} ({addr}){}", if dead { " DEAD" } else { "" });
            let snap = tb.metrics_snapshot(i);
            HubView { label, hub, snap }
        })
        .collect()
}

/// The live view: plays the scene `args[0]` names, a frame at a time.
fn watch(args: &[String]) -> i32 {
    let name = args.first().map_or("", String::as_str);
    let Some((mut scene, frames)) = Scene::new(name, args) else {
        return usage();
    };
    for frame in 0..frames {
        let phase = scene.play(frame, frames);
        if !switch(args, "--plain") {
            print!("\x1b[2J\x1b[H");
        }
        let n = frame + 1;
        let title = format!("tcpfo-inspect watch {name} — {phase} — frame {n}/{frames}");
        render_frame(&title, &hub_views(&mut scene.tb));
    }
    if switch(args, "--prom") {
        prometheus(&hub_views(&mut scene.tb));
    }
    exit_code(scene.tb.audit_violations())
}

/// The bridge counters a frame shows (when non-zero), by name.
const HEADLINE: &str = "merged_segments merged_bytes empty_acks retransmissions_forwarded \
    acks_translated ingress_rewrites diverted_upstream unwitnessed_dropped drops";

/// One frame of the view. Per hub: the registry's stage histograms,
/// flow table, headline bridge counters, replication lag,
/// control-plane counters and peer health, then the §5 and redundancy
/// views. Then the control journal's last 12 entries, merged over every
/// hub.
fn render_frame(title: &str, views: &[HubView]) {
    let at_ns = views.first().map_or(0, |v| v.snap.at_ns);
    println!("{title} — sim t = {} ms", at_ns / 1_000_000);
    for v in views {
        println!("\n══ {} ══", v.label);
        let snap = &v.snap;
        let row = |(name, v): (&String, &u64)| (name.clone(), v.to_string());
        let lat = snap.histograms.iter().filter(|(n, _)| n.contains(".lat."));
        let lat = lat.map(|(name, h)| {
            let (n, p50, p99, p999, max) = (h.count(), h.p50(), h.p99(), h.p999(), h.max());
            let quantiles = format!("p50 {p50}  p99 {p99}  p999 {p999}  max {max}");
            (name.clone(), format!("n {n}  {quantiles}"))
        });
        section("stage latency (host ns)", lat);
        let gauges = snap.gauges.iter().map(|(n, g)| (n, &g.value));
        let table = gauges.clone().filter(|(n, _)| n.contains(".flow."));
        section("flow table", table.map(row));
        let counters = snap.counters.iter().filter(|(_, v)| **v > 0);
        let leaf = |n: &str| n.rsplit('.').next().unwrap_or_default().to_string();
        let headline = |(n, _): &(&String, &u64)| HEADLINE.split(' ').any(|h| h == leaf(n));
        let bridge = counters.clone().filter(headline).map(row);
        section("bridge counters", bridge);
        let lag = gauges.clone().chain(&snap.counters);
        let lag = lag.filter(|(n, _)| n.contains(".health.lag."));
        section("replication lag", lag.map(row));
        let control = |(n, _): &(&String, &u64)| n.starts_with("core.control.");
        let peer = |(n, _): &(&String, &u64)| matches!(leaf(n).as_str(), "score" | "state");
        let peers = gauges.filter(control).filter(peer);
        let title = "control plane (health state 0 ok, 1 warn, 2 critical)";
        section(title, counters.filter(control).chain(peers).map(row));
        print!("{}", v.hub.timeline.breakdown());
        print!("{}", v.hub.redundancy.breakdown());
    }

    let control = |e: &Event| {
        e.scope.starts_with("core.control.")
            || e.scope == "testbed"
            || e.kind.starts_with("reprovision.")
    };
    // Each hub's own order stands within an instant (the sort is stable).
    let mut seen = BTreeSet::new();
    let mut events: Vec<Event> = views.iter().flat_map(|v| v.hub.journal.events()).collect();
    events.retain(|e| control(e) && seen.insert(e.clone()));
    events.sort_by_key(|e| e.at_ns);
    let (n, tail) = (events.len(), events.len().min(12));
    println!("\n── control journal (last {tail} of {n}) ──");
    for e in &events[n - tail..] {
        println!("{}", e.summary());
    }
}

/// Prints `rows` under `title` in two aligned columns, or `(none)`.
fn section(title: &str, rows: impl Iterator<Item = (String, String)>) {
    let rows: Vec<_> = rows.collect();
    let header = format!("── {title} ──");
    if rows.is_empty() {
        println!("{header} (none)");
    } else {
        print!("{}", two_columns(&header, &rows));
    }
}

/// Each hub's Prometheus exposition, closed by a comment naming its
/// replica.
fn prometheus(views: &[HubView]) {
    for v in views {
        print!("{}", v.snap.to_prometheus());
        println!("# end of {}", v.label);
    }
}

/// A depth-N chain failover with span tracing armed: the promoted
/// backup's §5 waterfall, restoration clock and control-plane spans,
/// and the merged Chrome trace-event JSON written to `--out`.
fn trace(args: &[String]) -> i32 {
    let replicas = flag(args, "--replicas", 3).clamp(2, 8);
    let out = value(args, "--out").map_or("FAILOVER_TRACE.json", String::as_str);

    let mut tb = chain_scene(replicas, Some(true));
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
    let now = tb.sim.now().as_nanos() / 1_000_000;
    let depth = format!("depth-{replicas} chain, head killed at 200 ms");
    println!("tcpfo-inspect trace — {depth}, sim t = {now} ms");
    match hub.timeline.mttr() {
        Some(m) => {
            let mttr = m.total_ns as f64 / 1e6;
            println!("\n── §5 failover waterfall (MTTR {mttr:.3} ms) ──");
            let phases: Vec<_> = MttrBreakdown::PHASES.into_iter().zip(m.deltas()).collect();
            bars(&phases);
        }
        None => println!("\n(timeline incomplete — no client byte crossed the new head yet)"),
    }

    println!("\n── redundancy restoration ──");
    match hub.redundancy.restoration() {
        Some(r) => {
            bars(&[("reprovision", r.reprovision_ns), ("catchup", r.catchup_ns)]);
            let total = r.total_ns as f64 / 1e6;
            println!("{:<18} {:<40} {total:>10.3} ms", "restored", "");
        }
        None => println!("(not restored within the rehearsal window)"),
    }

    let records = hub.trace.records();
    let (kept, dropped) = (records.len(), hub.trace.dropped());
    let whose = "replica 1, the promoted backup";
    println!("\n── control-plane spans ({whose}; {kept} retained, {dropped} dropped) ──");
    for r in records.iter().rev().take(24).rev() {
        println!("{}", r.summary());
    }

    let waterfall = tcpfo_telemetry::waterfall_records(&hub);
    let chrome = hub.trace.chrome_trace(&waterfall);
    if let Err(e) = std::fs::write(out, &chrome) {
        eprintln!("tcpfo-inspect: write to {out} failed: {e}");
        return 1;
    }
    let (bytes, spans) = (chrome.len(), waterfall.len());
    let wrote = format!("wrote {out} ({bytes} bytes, {spans} synthetic waterfall spans)");
    println!("\n{wrote} — load in Perfetto or chrome://tracing");
    exit_code(tb.audit_violations())
}

/// One bar per `(name, ns)`, scaled to the widest, with its length in
/// milliseconds.
fn bars(rows: &[(&str, u64)]) {
    let widest = rows.iter().map(|r| r.1).max().unwrap_or(1).max(1);
    for &(name, ns) in rows {
        let bar = "█".repeat((ns * 40).div_ceil(widest) as usize);
        println!("{name:<18} {bar:<40} {:>10.3} ms", ns as f64 / 1e6);
    }
}

/// Exit status of a run whose auditors recorded `violations`.
fn exit_code(violations: u64) -> i32 {
    if violations > 0 {
        eprintln!("tcpfo-inspect: {violations} invariant violation(s) recorded");
    }
    i32::from(violations > 0)
}

/// Pretty-prints a flight-recorder bundle directory: the rule ledger
/// and violations, the tail of the trace ring, a per-packet summary of
/// the capture, and the timeline and span dump, if present.
fn bundle(dir: &str) -> i32 {
    let dir = std::path::Path::new(dir);
    let read = |name: &str| std::fs::read_to_string(dir.join(name));
    if !dir.join("ledger.txt").exists() {
        let dir = dir.display();
        eprintln!("tcpfo-inspect: {dir} does not look like a bundle (no ledger.txt)");
        return 2;
    }
    println!("=== rule ledger + violations ===");
    match read("ledger.txt") {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("ledger.txt: {e}"),
    }
    println!("=== trace ring (last 40) ===");
    match read("trace_ring.txt") {
        Ok(s) => {
            let skip = s.lines().count().saturating_sub(40);
            s.lines().skip(skip).for_each(|line| println!("{line}"));
        }
        Err(e) => eprintln!("trace_ring.txt: {e}"),
    }
    println!("\n=== capture.pcapng ===");
    match std::fs::read(dir.join("capture.pcapng")).map(|b| read_packets(&b)) {
        Ok(Ok(pkts)) => {
            println!("{} packet(s)", pkts.len());
            for p in &pkts {
                // The auditor snaps each packet after its headers; the
                // zeros past the snap length only restore the lengths,
                // up to the largest frame an IPv4 datagram makes.
                let mut frame = p.frame.clone();
                frame.resize(p.orig_len.min(ETH_HEADER_LEN + usize::from(u16::MAX)), 0);
                let (at, len, line) = (p.ts_ns, p.orig_len, tcp_line(&frame));
                println!("  {at:>12} ns  {len:>5} B  {line}");
            }
        }
        Ok(Err(e)) => eprintln!("capture.pcapng does not parse: {e}"),
        Err(e) => eprintln!("capture.pcapng: {e}"),
    }
    if let Ok(s) = read("timeline.json") {
        println!("\n=== timeline.json ===\n{s}");
    }
    // The failover span dump, when the bundle's hub had tracing armed.
    // The sibling trace.chrome.json loads in Perfetto as-is.
    if let Ok(s) = read("spans.json") {
        println!("\n=== spans.json ===\n{s}");
        let chrome = dir.join("trace.chrome.json");
        if chrome.exists() {
            let chrome = chrome.display();
            println!("(trace.chrome.json present — load {chrome} in Perfetto or chrome://tracing)");
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
    let Ok(ip) = Ipv4Packet::decode_shared(eth.payload) else {
        return "bad ipv4".into();
    };
    let Ok(v) = TcpView::new(&ip.payload) else {
        return format!("ip {} → {} proto={}", ip.src, ip.dst, ip.protocol);
    };
    let (src, sport, dst, dport) = (ip.src, v.src_port(), ip.dst, v.dst_port());
    let (seq, ack, len, flags) = (v.seq(), v.ack(), v.payload().len(), v.flags());
    format!("{src}:{sport} → {dst}:{dport} seq={seq} ack={ack} len={len} [{flags}]")
}
