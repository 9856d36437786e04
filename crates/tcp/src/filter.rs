//! The segment-filter hook at the TCP/IP boundary.
//!
//! The paper's entire mechanism lives "in the primary and secondary
//! servers' network stack between the TCP layer and the IP layer"
//! (§1) — the authors call that sublayer the *bridge*. This module
//! defines the corresponding extension point of our stack: every
//! segment crossing the boundary, in either direction, is offered to
//! the host's [`SegmentFilter`]. The failover bridges in `tcpfo-core`
//! implement this trait; ordinary hosts use [`NoopFilter`].

use crate::types::{FourTuple, SocketAddr};
use bytes::Bytes;
use tcpfo_telemetry::audit::AuditKey;
use tcpfo_telemetry::{SpanContext, StageLatency};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::peek_ports;

pub use tcpfo_telemetry::audit::TraceId;

/// The canonical per-connection key used throughout the datapath: the
/// replicated server's TCP port plus the unreplicated peer's endpoint.
///
/// The server's *address* is deliberately absent — the primary keys
/// with `a_p`, the secondary with `a_s`, and diverted segments carry a
/// third view; the port + peer pair is the invariant all of them agree
/// on. A segment yields the same key no matter which direction it
/// travels, provided the right orientation constructor is used:
/// [`FlowKey::from_segment_ingress`] for peer → server segments and
/// [`FlowKey::from_segment_egress`] for server → peer segments. These
/// two constructors are the *only* places src/dst are swapped; the
/// bridges never hand-assemble a key from raw port fields.
///
/// # Example
///
/// ```
/// use tcpfo_tcp::filter::FlowKey;
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// let client = Ipv4Addr::new(192, 168, 0, 9);
/// // A client segment (client:5555 → server:80)…
/// let up = FlowKey::from_segment_ingress(client, 5555, 80);
/// // …and the server's reply (server:80 → client:5555)…
/// let down = FlowKey::from_segment_egress(client, 80, 5555);
/// // …map to the same flow.
/// assert_eq!(up, down);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The replicated server's TCP port (listening port, or the
    /// deterministic ephemeral port for server-initiated connections).
    pub server_port: u16,
    /// The unreplicated peer (client C, or back-end server T in §7.2).
    pub peer: SocketAddr,
}

impl FlowKey {
    /// Creates a key from its parts.
    pub fn new(server_port: u16, peer: SocketAddr) -> Self {
        FlowKey { server_port, peer }
    }

    /// Key for a segment travelling *peer → server* (ingress): the
    /// segment's source is the peer, its destination port the server.
    pub fn from_segment_ingress(peer_ip: Ipv4Addr, src_port: u16, dst_port: u16) -> Self {
        FlowKey {
            server_port: dst_port,
            peer: SocketAddr::new(peer_ip, src_port),
        }
    }

    /// Key for a segment travelling *server → peer* (egress): the
    /// segment's destination is the peer, its source port the server.
    pub fn from_segment_egress(peer_ip: Ipv4Addr, src_port: u16, dst_port: u16) -> Self {
        FlowKey {
            server_port: src_port,
            peer: SocketAddr::new(peer_ip, dst_port),
        }
    }

    /// Parses the key straight off an ingress (peer → server) segment's
    /// raw bytes. `None` when the buffer is too short for a TCP header.
    pub fn of_ingress(seg: &AddressedSegment) -> Option<Self> {
        let (src_port, dst_port) = peek_ports(&seg.bytes)?;
        Some(FlowKey::from_segment_ingress(seg.src, src_port, dst_port))
    }

    /// Parses the key straight off an egress (server → peer) segment's
    /// raw bytes. `None` when the buffer is too short for a TCP header.
    pub fn of_egress(seg: &AddressedSegment) -> Option<Self> {
        let (src_port, dst_port) = peek_ports(&seg.bytes)?;
        Some(FlowKey::from_segment_egress(seg.dst, src_port, dst_port))
    }

    /// Deterministic 64-bit hash of the key (SplitMix64 finalisation
    /// over the packed fields). Used for shard selection, so it must
    /// not depend on process-random state the way `std`'s default
    /// `HashMap` hasher does: a fixed seed must map every flow to the
    /// same shard in every run.
    pub fn hash64(&self) -> u64 {
        let packed = (u64::from(self.peer.ip.to_bits()) << 32)
            | (u64::from(self.peer.port) << 16)
            | u64::from(self.server_port);
        let mut z = packed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The shard this flow belongs to in a table of `shards` shards
    /// (must be a power of two).
    pub fn shard_of(&self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two());
        (self.hash64() & (shards as u64 - 1)) as usize
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, ":{}<->{}", self.server_port, self.peer)
    }
}

impl From<FlowKey> for AuditKey {
    fn from(k: FlowKey) -> AuditKey {
        AuditKey {
            peer_ip: k.peer.ip,
            peer_port: k.peer.port,
            server_port: k.server_port,
        }
    }
}

/// A raw TCP segment together with the IP addresses it travels between
/// (which its checksum covers).
///
/// The bytes are refcounted ([`Bytes`]), so an addressed segment can be
/// sliced apart — header inspected, payload queued — without copying.
///
/// Each segment also carries a causal [`TraceId`], stamped where it
/// enters the datapath (frame receive, stack outbox) and propagated by
/// the bridges through translation, queueing and release. The id is
/// observability metadata only: equality ignores it.
#[derive(Debug, Clone)]
pub struct AddressedSegment {
    /// IP source.
    pub src: Ipv4Addr,
    /// IP destination.
    pub dst: Ipv4Addr,
    /// Raw TCP segment bytes (header + payload).
    pub bytes: Bytes,
    /// Causal trace id ([`TraceId::NONE`] when never stamped).
    pub trace: TraceId,
}

impl PartialEq for AddressedSegment {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src && self.dst == other.dst && self.bytes == other.bytes
    }
}

impl Eq for AddressedSegment {}

impl AddressedSegment {
    /// Creates an addressed segment (not yet traced).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, bytes: impl Into<Bytes>) -> Self {
        AddressedSegment {
            src,
            dst,
            bytes: bytes.into(),
            trace: TraceId::NONE,
        }
    }

    /// Builder: tags the segment with a causal trace id.
    pub fn traced(mut self, trace: TraceId) -> Self {
        self.trace = trace;
        self
    }

    /// Stamps a fresh trace id if the segment has none yet.
    pub fn ensure_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = TraceId::fresh();
        }
    }
}

/// Which side of the TCP/IP boundary a segment in a batch came from,
/// for batch-processing bridges that accept mixed-direction batches
/// (e.g. `PrimaryBridge::process_batch` in `tcpfo-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDir {
    /// From the local TCP layer toward the wire.
    Outbound,
    /// From the wire toward the local TCP layer.
    Inbound,
}

/// What a filter decided to do with (and in response to) a segment.
///
/// The hot path reuses one `FilterOutput` per host ([`FilterOutput::clear`]
/// keeps the vector allocations), so steady-state filtering never
/// allocates for the output lists themselves.
#[derive(Debug, Default)]
pub struct FilterOutput {
    /// Segments to hand to the IP layer for transmission (bypassing the
    /// outbound filter — filters never re-filter their own output).
    pub to_wire: Vec<AddressedSegment>,
    /// Segments to deliver up to the local TCP layer. The host drops
    /// any whose destination is not a local address.
    pub to_tcp: Vec<AddressedSegment>,
}

impl FilterOutput {
    /// Nothing to emit or deliver.
    pub fn empty() -> Self {
        FilterOutput::default()
    }

    /// Pass a segment onward to the wire.
    pub fn wire(seg: AddressedSegment) -> Self {
        FilterOutput {
            to_wire: vec![seg],
            to_tcp: Vec::new(),
        }
    }

    /// Deliver a segment up to TCP.
    pub fn tcp(seg: AddressedSegment) -> Self {
        FilterOutput {
            to_wire: Vec::new(),
            to_tcp: vec![seg],
        }
    }

    /// Empties both lists, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        self.to_wire.clear();
        self.to_tcp.clear();
    }

    /// Whether both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.to_wire.is_empty() && self.to_tcp.is_empty()
    }

    /// Merges another output into this one.
    pub fn extend(&mut self, other: FilterOutput) {
        self.to_wire.extend(other.to_wire);
        self.to_tcp.extend(other.to_tcp);
    }
}

/// A rule designating connections as failover connections (§7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverRule {
    /// Method 2: every connection using this local server port.
    Port(u16),
    /// Method 1 (socket option): exactly this 4-tuple, registered when
    /// the application opens the socket.
    Tuple(FourTuple),
}

/// The bridge hook between the TCP and IP layers.
///
/// Outbound segments (local TCP → IP) pass through
/// [`SegmentFilter::on_outbound_into`]; inbound segments (IP → local
/// TCP, *including* segments snooped promiscuously whose destination is
/// not local) pass through [`SegmentFilter::on_inbound_into`]. The
/// filter decides what continues in each direction, appending to a
/// caller-owned [`FilterOutput`] so the host can reuse one output
/// across packets. The by-value [`SegmentFilter::on_outbound`] /
/// [`SegmentFilter::on_inbound`] wrappers are provided for tests and
/// cold paths.
pub trait SegmentFilter {
    /// Intercepts a segment the local TCP layer wants transmitted,
    /// appending results to `out`. `now_nanos` is the simulated clock.
    fn on_outbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput);

    /// Intercepts a segment arriving from the network before TCP
    /// demultiplexing, appending results to `out`.
    fn on_inbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput);

    /// Convenience wrapper returning a fresh [`FilterOutput`].
    fn on_outbound(&mut self, seg: AddressedSegment, now_nanos: u64) -> FilterOutput {
        let mut out = FilterOutput::empty();
        self.on_outbound_into(seg, now_nanos, &mut out);
        out
    }

    /// Convenience wrapper returning a fresh [`FilterOutput`].
    fn on_inbound(&mut self, seg: AddressedSegment, now_nanos: u64) -> FilterOutput {
        let mut out = FilterOutput::empty();
        self.on_inbound_into(seg, now_nanos, &mut out);
        out
    }

    /// Periodic housekeeping driven by the host's timer (telemetry
    /// publication and the like). Never called per packet.
    fn on_tick(&mut self, _now_nanos: u64) {}

    /// Registers a failover-connection designation (§7's socket option
    /// or port-set configuration). Filters that do not care ignore it.
    fn designate(&mut self, _rule: FailoverRule) {}

    /// The filter's accumulated per-stage latency histograms, when a
    /// latency observatory is attached. `None` — the default — for
    /// filters without one (or with it detached).
    fn latency_stages(&self) -> Option<&StageLatency> {
        None
    }

    /// The span context of the filter's most recent sampled hot-path
    /// batch, when a span sampler is attached and has sampled one.
    /// `None` — the default — for filters without one. A load driver
    /// can stamp it onto its own samples to link them to the trace.
    fn trace_context(&self) -> Option<SpanContext> {
        None
    }

    /// Downcast support so controllers can reconfigure a concrete
    /// bridge (failover procedures of §5/§6).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The identity filter used by ordinary (non-replicated) hosts.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopFilter;

impl SegmentFilter for NoopFilter {
    fn on_outbound_into(&mut self, seg: AddressedSegment, _now: u64, out: &mut FilterOutput) {
        out.to_wire.push(seg);
    }

    fn on_inbound_into(&mut self, seg: AddressedSegment, _now: u64, out: &mut FilterOutput) {
        out.to_tcp.push(seg);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> AddressedSegment {
        AddressedSegment::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            vec![0u8; 20],
        )
    }

    #[test]
    fn noop_passes_through() {
        let mut f = NoopFilter;
        let out = f.on_outbound(seg(), 0);
        assert_eq!(out.to_wire.len(), 1);
        assert!(out.to_tcp.is_empty());
        let inp = f.on_inbound(seg(), 0);
        assert_eq!(inp.to_tcp.len(), 1);
        assert!(inp.to_wire.is_empty());
    }

    #[test]
    fn output_extend_merges() {
        let mut a = FilterOutput::wire(seg());
        a.extend(FilterOutput::tcp(seg()));
        a.extend(FilterOutput::empty());
        assert_eq!(a.to_wire.len(), 1);
        assert_eq!(a.to_tcp.len(), 1);
    }

    #[test]
    fn output_clear_keeps_capacity() {
        let mut a = FilterOutput::wire(seg());
        a.extend(FilterOutput::tcp(seg()));
        let cap = a.to_wire.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.to_wire.capacity(), cap);
    }
}
