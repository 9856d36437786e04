#![warn(missing_docs)]

//! # tcpfo-wire
//!
//! Byte-exact wire formats for the *Transparent TCP Connection Failover*
//! (DSN 2003) reproduction.
//!
//! The paper's bridge sublayer edits TCP segments in flight — rewriting
//! addresses, adjusting sequence/acknowledgment numbers and patching the
//! checksum *incrementally* instead of recomputing it ("we subtract the
//! original bytes from the checksum, and add the new bytes", §3.1). To
//! exercise exactly that code path, every protocol layer here encodes to
//! and decodes from real bytes, and checksums are real Internet
//! checksums (RFC 1071) with an RFC 1624 incremental-update helper.
//!
//! Layers provided:
//!
//! * [`eth`] — Ethernet II frames and [`mac::MacAddr`]
//! * [`arp`] — ARP requests/replies (including gratuitous ARP, used by
//!   the paper's IP-takeover step)
//! * [`ipv4`] — IPv4 headers/packets
//! * [`heartbeat`] — the fault detector's heartbeat payload
//! * [`tcp`] — TCP segments with options, including the experimental
//!   *original destination* option the secondary bridge appends (§3.1)
//! * [`checksum`] — RFC 1071 ones-complement sums and RFC 1624
//!   incremental updates
//! * [`pcapng`] — pcapng capture files, so simulator traces open in
//!   Wireshark/tshark
//!
//! # Example
//!
//! ```
//! use tcpfo_wire::ipv4::Ipv4Addr;
//! use tcpfo_wire::tcp::{TcpSegment, TcpFlags};
//!
//! let src = Ipv4Addr::new(10, 0, 0, 1);
//! let dst = Ipv4Addr::new(10, 0, 0, 2);
//! let seg = TcpSegment::builder(4242, 80)
//!     .seq(1000)
//!     .flags(TcpFlags::SYN)
//!     .mss(1460)
//!     .build();
//! let bytes = seg.encode(src, dst);
//! let decoded = TcpSegment::decode(&bytes).expect("well-formed segment");
//! assert_eq!(decoded.seq, 1000);
//! assert!(decoded.verify_checksum(src, dst));
//! ```

pub mod arp;
pub mod checksum;
pub mod error;
pub mod eth;
pub mod heartbeat;
pub mod ipv4;
pub mod mac;
pub mod pcapng;
pub mod tcp;

pub use error::WireError;
