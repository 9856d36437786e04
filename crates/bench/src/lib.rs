#![warn(missing_docs)]

//! Shared scenario runners for the evaluation harness (§9 of the
//! paper). Each `benches/` target regenerates one table or figure by
//! calling into here; everything is measured in **simulated** time on
//! the Figure-1 testbed.
//!
//! Calibration: `PROC_DELAY` models the per-segment CPU cost of the
//! paper's 566 MHz Pentium III servers. It is tuned so that the
//! standard-TCP baseline lands near the paper's absolute numbers
//! (≈300 µs connection setup, ≈8 MB/s stream rate over 100 Mb/s
//! Ethernet); all comparisons then report failover/standard *shape*.

use tcpfo_apps::driver::{
    duration_stats, BulkSendClient, ConnectProbeClient, DurationStats, RequestReplyClient,
};
use tcpfo_apps::ftp::{FtpClient, FtpOp, FtpRecord, FtpServer, FTP_CTRL_PORT, FTP_DATA_PORT};
use tcpfo_apps::stream::{SinkServer, SourceServer};
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_core::DetectorConfig;
use tcpfo_net::link::LinkParams;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

/// Send-side copy cost in nanoseconds per byte (the `send()` syscall
/// copying into the socket buffer on a 566 MHz P-III, ~400 MB/s). The
/// simulator charges CPU per *emitted segment*; the copy into the
/// buffer — which dominates the paper's Fig. 3 below the 64 KB send
/// buffer knee — is added to the reported send time here.
pub const COPY_NS_PER_BYTE: u64 = 3;

/// Which server configuration a measurement runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Single unreplicated server — the paper's "standard TCP".
    Standard,
    /// Replicated server with the failover bridges.
    Failover,
}

impl Mode {
    /// Both modes, in the paper's presentation order.
    pub const BOTH: [Mode; 2] = [Mode::Standard, Mode::Failover];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Standard => "standard TCP",
            Mode::Failover => "TCP Failover",
        }
    }
}

/// The calibrated testbed configuration for a mode.
pub fn paper_testbed(mode: Mode, seed: u64) -> TestbedConfig {
    let mut cfg = match mode {
        Mode::Standard => TestbedConfig::standard_tcp(),
        Mode::Failover => TestbedConfig::default(),
    };
    cfg.seed = seed;
    // ~35% positive OS-noise skew gives the median/max spread the
    // paper's tables show.
    cfg.cpu = tcpfo_tcp::host::CpuModel::server_2003().with_jitter(0.35);
    cfg.client_cpu = cfg.cpu.scaled(0.6);
    // Benchmarks disable Nagle (as measurement tools conventionally
    // do): the Nagle/delayed-ACK tail interaction would otherwise put
    // a flat 40 ms on every odd-segment-count message and swamp the
    // curves the paper reports. Nagle behaviour itself is covered by
    // the unit and integration tests.
    cfg.tcp.nagle = false;
    cfg
}

/// Runs `tb` until `done(tb)` or the deadline; returns whether it
/// finished.
pub fn run_until(
    tb: &mut Testbed,
    deadline: SimDuration,
    mut done: impl FnMut(&mut Testbed) -> bool,
) -> bool {
    let end = tb.sim.now() + deadline;
    while tb.sim.now() < end {
        tb.run_for(SimDuration::from_millis(20));
        if done(tb) {
            return true;
        }
    }
    done(tb)
}

// ---------------------------------------------------------------------
// E1: connection setup time
// ---------------------------------------------------------------------

/// Measures `n` sequential connection setups (warm ARP caches, as in
/// §9) and returns their statistics.
pub fn measure_conn_setup(mode: Mode, n: u32, seed: u64) -> DurationStats {
    let mut tb = Testbed::new(paper_testbed(mode, seed));
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(ConnectProbeClient::new(
            SocketAddr::new(addrs::A_P, 80),
            n,
            SimDuration::from_millis(5),
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(60), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<ConnectProbeClient>(0).is_done()
        })
    });
    assert!(ok, "connection probing did not finish");
    let samples = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<ConnectProbeClient>(0).samples.clone()
    });
    duration_stats(&samples)
}

// ---------------------------------------------------------------------
// Fig. 3: client→server send time vs message size
// ---------------------------------------------------------------------

/// One Fig. 3 measurement: the application-level send time (buffer
/// semantics, §9) and the fully-acknowledged time for one message.
pub fn measure_send_time(mode: Mode, bytes: u64, seed: u64) -> (SimDuration, SimDuration) {
    let mut tb = Testbed::new(paper_testbed(mode, seed));
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            bytes,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(240), |tb| {
        tb.sim
            .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done())
    });
    assert!(ok, "send of {bytes} bytes did not finish");
    let copy = SimDuration::from_nanos(bytes * COPY_NS_PER_BYTE);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<BulkSendClient>(0);
        (
            c.send_time().expect("buffered") + copy,
            c.acked_time().expect("acked") + copy,
        )
    })
}

// ---------------------------------------------------------------------
// Fig. 4: server→client transfer time vs reply size
// ---------------------------------------------------------------------

/// One Fig. 4 measurement: request → last reply byte.
pub fn measure_request_reply(mode: Mode, reply_bytes: u64, seed: u64) -> SimDuration {
    let mut tb = Testbed::new(paper_testbed(mode, seed));
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {reply_bytes}\n").into_bytes(),
            reply_bytes,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(240), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    });
    assert!(ok, "reply of {reply_bytes} bytes did not finish");
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert_eq!(c.mismatches, 0);
        c.transfer_time().expect("timed")
    })
}

// ---------------------------------------------------------------------
// Fig. 5: long-stream send/receive rates
// ---------------------------------------------------------------------

/// Fig. 5 send rate: client streams `bytes` to the server; KB/s until
/// fully acknowledged.
pub fn measure_send_rate(mode: Mode, bytes: u64, seed: u64) -> f64 {
    let (_buffered, acked) = measure_send_time(mode, bytes, seed);
    bytes as f64 / 1000.0 / acked.as_secs_f64()
}

/// Fig. 5 receive rate: client downloads `bytes`; KB/s to last byte.
pub fn measure_recv_rate(mode: Mode, bytes: u64, seed: u64) -> f64 {
    let d = measure_request_reply(mode, bytes, seed);
    bytes as f64 / 1000.0 / d.as_secs_f64()
}

// ---------------------------------------------------------------------
// Fig. 6: FTP over a WAN
// ---------------------------------------------------------------------

/// The paper's Fig. 6 file sizes, in bytes (0.2 KB … 1738.1 KB).
pub const FTP_FILE_SIZES: [u64; 5] = [200, 1_300, 18_200, 144_900, 1_738_100];

/// Builds the WAN variant of the testbed: the client reaches the
/// server segment over a long, lossy, bandwidth-limited path.
pub fn wan_testbed(mode: Mode, seed: u64) -> TestbedConfig {
    let mut cfg = paper_testbed(mode, seed);
    cfg.failover_ports = vec![FTP_CTRL_PORT, FTP_DATA_PORT];
    // ~23 ms RTT, ~2 Mb/s, light loss: matches the order of magnitude
    // of the paper's observed WAN rates (§9 notes they "vary widely").
    cfg.client_link = LinkParams::wan(2_000_000, SimDuration::from_millis(11), 0.002);
    cfg
}

/// Runs one FTP session over the WAN and returns its records.
pub fn run_ftp_wan(mode: Mode, ops: Vec<FtpOp>, seed: u64) -> Vec<FtpRecord> {
    let mut tb = Testbed::new(wan_testbed(mode, seed));
    tb.install_servers(FtpServer::new);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            ops,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(600), |tb| {
        tb.sim
            .with::<Host, _>(tb.client, |h, _| h.app_mut::<FtpClient>(0).is_done())
    });
    assert!(ok, "ftp session did not finish");
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<FtpClient>(0);
        assert_eq!(c.mismatches, 0);
        c.records.clone()
    })
}

// ---------------------------------------------------------------------
// E6: failover timing
// ---------------------------------------------------------------------

/// Outcome of one failover-timing run.
#[derive(Debug, Clone, Copy)]
pub struct FailoverTiming {
    /// Heartbeat timeout used.
    pub timeout: SimDuration,
    /// Kill → detector fired.
    pub detection: SimDuration,
    /// Longest gap in the client's byte arrivals around the failover
    /// (the client-visible service interruption).
    pub client_stall: SimDuration,
    /// Whether the transfer completed intact.
    pub completed: bool,
}

/// Kills the primary mid-download and measures detection latency and
/// the client-visible stall.
pub fn measure_failover_timing(timeout: SimDuration, seed: u64) -> FailoverTiming {
    let mut cfg = paper_testbed(Mode::Failover, seed);
    cfg.detector = DetectorConfig {
        interval: SimDuration::from_nanos(timeout.as_nanos() / 5).max(SimDuration::from_millis(1)),
        timeout,
    };
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SourceServer::new(80));
    let total: u64 = 4_000_000;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    // Sample progress every millisecond to find the stall.
    let mut last_progress_at = SimTime::ZERO;
    let mut last_bytes = 0u64;
    let mut max_gap = SimDuration::ZERO;
    let mut killed_at = None;
    let deadline = tb.sim.now() + SimDuration::from_secs(120);
    while tb.sim.now() < deadline {
        tb.run_for(SimDuration::from_millis(1));
        let bytes = tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).received_len()
        });
        if bytes > last_bytes {
            if killed_at.is_some() {
                let gap = tb.sim.now().duration_since(last_progress_at);
                if gap > max_gap {
                    max_gap = gap;
                }
            }
            last_bytes = bytes;
            last_progress_at = tb.sim.now();
        }
        if killed_at.is_none() && bytes > total / 4 {
            killed_at = Some(tb.sim.now());
            tb.kill_primary();
        }
        if bytes >= total {
            break;
        }
    }
    let killed_at = killed_at.expect("primary was killed");
    let detected = tb
        .failover_detected_at(tb.secondary.expect("replicated"))
        .expect("detector fired");
    let completed = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        c.is_done() && c.mismatches == 0
    });
    export_run_telemetry(&mut tb, &format!("failover_{}ms", timeout.as_millis()));
    FailoverTiming {
        timeout,
        detection: detected.duration_since(killed_at),
        client_stall: max_gap,
        completed,
    }
}

// ---------------------------------------------------------------------
// E7: goodput under loss
// ---------------------------------------------------------------------

/// Download goodput (KB/s) with the given loss applied to the client
/// link (full rate) and every server-segment attachment (half rate).
/// `None` when the transfer did not complete in time.
pub fn measure_goodput_under_loss(mode: Mode, loss: f64, bytes: u64, seed: u64) -> Option<f64> {
    let mut cfg = paper_testbed(mode, seed);
    cfg.client_link = LinkParams::fast_ethernet().with_loss(loss);
    cfg.attachment_loss = loss / 2.0;
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {bytes}\n").into_bytes(),
            bytes,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(300), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    });
    if !ok {
        return None;
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        c.transfer_time()
            .map(|d| bytes as f64 / 1000.0 / d.as_secs_f64())
    })
}

// ---------------------------------------------------------------------
// Telemetry export
// ---------------------------------------------------------------------

/// Destination for machine-readable telemetry exports: the value of a
/// `--telemetry <path>` command-line argument if present, else the
/// `TCPFO_TELEMETRY_JSON` environment variable. `None` disables export
/// (the default for plain `cargo bench` runs).
pub fn telemetry_export_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--telemetry" {
            return args.next().map(Into::into);
        }
    }
    std::env::var_os("TCPFO_TELEMETRY_JSON").map(Into::into)
}

/// Writes the testbed's full telemetry export (metrics registry, §5
/// failover timeline, event journal) as JSON when a destination is
/// configured — see [`telemetry_export_path`]. A destination ending in
/// `.json` is written directly; anything else is treated as a
/// directory receiving `<label>.json`.
pub fn export_run_telemetry(tb: &mut Testbed, label: &str) {
    let Some(path) = telemetry_export_path() else {
        return;
    };
    let path = if path.extension().is_some_and(|e| e == "json") {
        path
    } else {
        let _ = std::fs::create_dir_all(&path);
        path.join(format!("{label}.json"))
    };
    let doc = tb.export_telemetry_json();
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("telemetry written to {}", path.display()),
        Err(e) => eprintln!("telemetry export to {} failed: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// Table printing
// ---------------------------------------------------------------------

/// Prints a Markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a duration as microseconds.
pub fn us(d: SimDuration) -> String {
    format!("{}µs", d.as_micros())
}

/// Formats a KB/s rate like the paper's tables.
pub fn kbps(v: f64) -> String {
    format!("{v:.2}KB/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_setup_failover_slower_than_standard() {
        let std = measure_conn_setup(Mode::Standard, 5, 1);
        let fo = measure_conn_setup(Mode::Failover, 5, 1);
        assert!(
            fo.median > std.median,
            "failover {} vs standard {}",
            fo.median,
            std.median
        );
        // Order of magnitude: hundreds of microseconds.
        assert!(std.median.as_micros() > 50 && std.median.as_micros() < 2_000);
    }

    #[test]
    fn small_send_is_buffer_bound() {
        let (buffered, acked) = measure_send_time(Mode::Standard, 1_024, 2);
        // A 1 KB message vanishes into the 64 KB send buffer at once.
        assert!(buffered < SimDuration::from_millis(1), "{buffered}");
        assert!(acked > buffered);
    }

    #[test]
    fn recv_rate_failover_below_standard() {
        let std = measure_recv_rate(Mode::Standard, 2_000_000, 3);
        let fo = measure_recv_rate(Mode::Failover, 2_000_000, 3);
        assert!(fo < std, "failover {fo:.0} vs standard {std:.0} KB/s");
        // The shared segment carries every byte twice: expect roughly
        // half, as in Fig. 5 (8707 -> 3510 KB/s).
        assert!(fo / std < 0.75, "ratio {}", fo / std);
    }
}
