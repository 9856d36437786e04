//! Integration: §7.2 server-initiated connection establishment — the
//! replicated server acting as a TCP *client* — via FTP active-mode
//! data connections: both replicas SYN from port 20, the primary
//! bridge merges the handshake, and the unreplicated peer completes it.

use tcp_failover::apps::ftp::{FtpClient, FtpOp, FtpServer, FTP_CTRL_PORT, FTP_DATA_PORT};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn ftp_config() -> TestbedConfig {
    TestbedConfig {
        // Both the control port and the data port are failover ports
        // (§7 method 2): the same set on P and S.
        failover_ports: vec![FTP_CTRL_PORT, FTP_DATA_PORT],
        ..TestbedConfig::default()
    }
}

macro_rules! replicate {
    ($tb:expr, $mk:expr) => {{
        let tb: &mut Testbed = $tb;
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.add_app(Box::new($mk));
        });
        let s = tb.secondary.expect("replicated testbed");
        tb.sim.with::<Host, _>(s, |h, _| {
            h.add_app(Box::new($mk));
        });
    }};
}

fn run_ftp(mut tb: Testbed, script: Vec<FtpOp>, deadline: SimDuration) -> (Testbed, FtpClient) {
    replicate!(&mut tb, FtpServer::new());
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            script,
        )));
    });
    tb.run_for(deadline);
    let client = tb.sim.with::<Host, _>(tb.client, |h, _| {
        std::mem::replace(
            h.app_mut::<FtpClient>(0),
            FtpClient::new(SocketAddr::new(addrs::A_P, FTP_CTRL_PORT), Vec::new()),
        )
    });
    (tb, client)
}

#[test]
fn ftp_get_via_replicated_server() {
    let (mut tb, client) = run_ftp(
        Testbed::new(ftp_config()),
        vec![FtpOp::Get(100_000)],
        SimDuration::from_secs(30),
    );
    assert!(client.is_done(), "session incomplete: {:?}", client.records);
    assert_eq!(client.records.len(), 1);
    assert_eq!(client.records[0].bytes, 100_000);
    assert_eq!(client.mismatches, 0);
    // The data connection was truly replicated: the secondary diverted
    // its own copy of the file to the primary.
    let sstats = tb.secondary_stats();
    assert!(sstats.diverted_upstream > 50, "stats: {sstats:?}");
}

#[test]
fn ftp_put_via_replicated_server() {
    let (mut tb, client) = run_ftp(
        Testbed::new(ftp_config()),
        vec![FtpOp::Put(80_000)],
        SimDuration::from_secs(30),
    );
    assert!(client.is_done());
    // Both replicas' FTP servers swallowed the full upload.
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            let srv = h.app_mut::<FtpServer>(0);
            assert_eq!(srv.bytes_moved, 80_000, "replica missed upload bytes");
            assert_eq!(srv.transfers, 1);
        });
    }
}

#[test]
fn ftp_mixed_session() {
    let (_tb, client) = run_ftp(
        Testbed::new(ftp_config()),
        vec![
            FtpOp::Get(200),
            FtpOp::Put(1_300),
            FtpOp::Get(18_200),
            FtpOp::Put(18_200),
        ],
        SimDuration::from_secs(60),
    );
    assert!(client.is_done(), "records: {:?}", client.records);
    assert_eq!(client.records.len(), 4);
    assert_eq!(client.mismatches, 0);
}

/// Kill the primary in the middle of an FTP download: both the control
/// connection and the server-initiated data connection fail over.
#[test]
fn ftp_survives_primary_failure() {
    let mut tb = Testbed::new(ftp_config());
    replicate!(&mut tb, FtpServer::new());
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            vec![FtpOp::Get(2_000_000), FtpOp::Get(500)],
        )));
    });
    tb.run_for(SimDuration::from_millis(150));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(40));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<FtpClient>(0);
        assert!(c.is_done(), "ftp session died: {:?}", c.records);
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].bytes, 2_000_000);
        assert_eq!(c.mismatches, 0, "download corrupted across failover");
    });
}
