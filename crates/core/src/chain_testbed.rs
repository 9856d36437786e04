//! The chain testbed's names, kept for the standing benchmark: a chain
//! is a [`Testbed`] founded with more than two replicas, and
//! [`ChainConfig`] is the subset of [`TestbedConfig`] a chain sets.

use crate::detector::DetectorConfig;
use crate::testbed::{Testbed, TestbedConfig};
use tcpfo_net::link::LinkParams;
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::host::CpuModel;

/// A daisy chain is the one testbed.
pub type ChainTestbed = Testbed;

/// Parameters for a chained testbed; [`Testbed::new`] takes it as the
/// [`TestbedConfig`] it converts to.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Number of replicas (head + backups), ≥ 2.
    pub replicas: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Failover port set (§7 method 2), identical on every replica.
    pub failover_ports: Vec<u16>,
    /// Fault-detector parameters.
    pub detector: DetectorConfig,
    /// Client↔router link.
    pub client_link: LinkParams,
    /// Host CPU model for the replicas; the client's is 0.6× of it.
    pub cpu: CpuModel,
    /// Base TCP configuration (per-replica ISN seeds derived from
    /// `seed`).
    pub tcp: TcpConfig,
    /// Host stack tick.
    pub tick: SimDuration,
    /// [`TestbedConfig::audit`].
    pub audit: Option<bool>,
    /// [`TestbedConfig::latency`].
    pub latency: Option<bool>,
    /// [`TestbedConfig::health`].
    pub health: Option<bool>,
    /// [`TestbedConfig::span_trace`].
    pub span_trace: Option<bool>,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            replicas: 3,
            seed: 42,
            failover_ports: vec![80],
            detector: DetectorConfig::default(),
            client_link: LinkParams::fast_ethernet(),
            cpu: CpuModel::server_2003(),
            tcp: TcpConfig::default(),
            tick: SimDuration::from_millis(1),
            audit: None,
            latency: None,
            health: None,
            span_trace: None,
        }
    }
}

impl From<ChainConfig> for TestbedConfig {
    fn from(c: ChainConfig) -> Self {
        TestbedConfig {
            replicas: c.replicas,
            seed: c.seed,
            failover_ports: c.failover_ports,
            detector: c.detector,
            client_link: c.client_link,
            cpu: c.cpu,
            client_cpu: c.cpu.scaled(0.6),
            tcp: c.tcp,
            tick: c.tick,
            audit: c.audit,
            latency: c.latency,
            health: c.health,
            span_trace: c.span_trace,
            ..TestbedConfig::default()
        }
    }
}
