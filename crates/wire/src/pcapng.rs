//! pcapng (RFC draft-ietf-opsawg-pcapng) capture files.
//!
//! The simulator's frame trace is byte-exact Ethernet, so a capture of
//! a failover run can be examined with Wireshark or `tshark` just like
//! a capture from a real testbed. [`PcapngWriter`] emits a minimal
//! well-formed file: one Section Header Block, one Interface
//! Description Block (LINKTYPE_ETHERNET, nanosecond timestamps), then
//! one Enhanced Packet Block per frame. [`read_packets`] parses such a
//! file back for round-trip tests.
//!
//! Timestamps are simulated nanoseconds since simulation start; opened
//! in Wireshark they display as seconds since the epoch, which keeps
//! relative timings (the interesting part) intact.

use crate::error::WireError;

/// Section Header Block type.
const SHB_TYPE: u32 = 0x0A0D_0D0A;
/// Interface Description Block type.
const IDB_TYPE: u32 = 0x0000_0001;
/// Enhanced Packet Block type.
const EPB_TYPE: u32 = 0x0000_0006;
/// Byte-order magic written in the SHB.
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u16 = 1;
/// `opt_comment` option code.
const OPT_COMMENT: u16 = 1;
/// `if_tsresol` option code.
const OPT_IF_TSRESOL: u16 = 9;
/// `if_name` option code.
const OPT_IF_NAME: u16 = 2;

fn pad4(len: usize) -> usize {
    (4 - len % 4) % 4
}

fn push_option(body: &mut Vec<u8>, code: u16, value: &[u8]) {
    body.extend_from_slice(&code.to_le_bytes());
    body.extend_from_slice(&(value.len() as u16).to_le_bytes());
    body.extend_from_slice(value);
    body.extend(std::iter::repeat_n(0u8, pad4(value.len())));
}

fn push_end_of_options(body: &mut Vec<u8>) {
    body.extend_from_slice(&0u16.to_le_bytes());
    body.extend_from_slice(&0u16.to_le_bytes());
}

fn push_block(out: &mut Vec<u8>, block_type: u32, body: &[u8]) {
    let total = 12 + body.len() as u32;
    out.extend_from_slice(&block_type.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&total.to_le_bytes());
}

/// Streams Ethernet frames into an in-memory pcapng file.
#[derive(Debug)]
pub struct PcapngWriter {
    out: Vec<u8>,
}

impl PcapngWriter {
    /// Starts a capture: writes the section header and one Ethernet
    /// interface named `if_name` with nanosecond timestamp resolution.
    pub fn new(if_name: &str) -> Self {
        let mut out = Vec::with_capacity(256);

        // Section Header Block.
        let mut shb = Vec::new();
        shb.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes()); // major
        shb.extend_from_slice(&0u16.to_le_bytes()); // minor
        shb.extend_from_slice(&u64::MAX.to_le_bytes()); // section length: unknown
        push_block(&mut out, SHB_TYPE, &shb);

        // Interface Description Block.
        let mut idb = Vec::new();
        idb.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes()); // reserved
        idb.extend_from_slice(&0u32.to_le_bytes()); // snaplen: unlimited
        push_option(&mut idb, OPT_IF_NAME, if_name.as_bytes());
        push_option(&mut idb, OPT_IF_TSRESOL, &[9]); // 10^-9 s
        push_end_of_options(&mut idb);
        push_block(&mut out, IDB_TYPE, &idb);

        PcapngWriter { out }
    }

    /// Appends one frame captured at sim time `ts_ns`.
    pub fn packet(&mut self, ts_ns: u64, frame: &[u8]) {
        self.packet_with_comment(ts_ns, frame, None);
    }

    /// Appends one frame with an optional `opt_comment` (shown by
    /// Wireshark as a packet comment — handy for the trace's node and
    /// direction).
    pub fn packet_with_comment(&mut self, ts_ns: u64, frame: &[u8], comment: Option<&str>) {
        self.truncated_packet(ts_ns, frame, frame.len(), comment);
    }

    /// Appends the first bytes of a frame that was `orig_len` bytes on
    /// the wire, the way `tcpdump -s` snaps a packet: the block's
    /// captured length is `captured.len()`, its original length
    /// `orig_len`.
    pub fn truncated_packet(
        &mut self,
        ts_ns: u64,
        captured: &[u8],
        orig_len: usize,
        comment: Option<&str>,
    ) {
        debug_assert!(captured.len() <= orig_len, "captured past the frame's end");
        let mut epb = Vec::with_capacity(20 + captured.len() + 8);
        epb.extend_from_slice(&0u32.to_le_bytes()); // interface id
        epb.extend_from_slice(&((ts_ns >> 32) as u32).to_le_bytes());
        epb.extend_from_slice(&(ts_ns as u32).to_le_bytes());
        epb.extend_from_slice(&(captured.len() as u32).to_le_bytes());
        epb.extend_from_slice(&(orig_len as u32).to_le_bytes());
        epb.extend_from_slice(captured);
        epb.extend(std::iter::repeat_n(0u8, pad4(captured.len())));
        if let Some(c) = comment {
            push_option(&mut epb, OPT_COMMENT, c.as_bytes());
            push_end_of_options(&mut epb);
        }
        push_block(&mut self.out, EPB_TYPE, &epb);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written (never true: the header blocks
    /// are written up front).
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Returns the finished file contents.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// One packet parsed back out of a pcapng file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapngPacket {
    /// Timestamp in nanoseconds (scaled by the interface's
    /// `if_tsresol`).
    pub ts_ns: u64,
    /// Captured frame bytes.
    pub frame: Vec<u8>,
    /// Length of the frame on the wire: more than `frame.len()` when
    /// the capture was truncated ([`PcapngWriter::truncated_packet`]).
    pub orig_len: usize,
}

/// Parses a little-endian pcapng file, returning its packets with
/// timestamps normalised to nanoseconds. Supports the block layout
/// [`PcapngWriter`] produces (single section, single interface) plus
/// any power-of-ten `if_tsresol`; unknown block types are skipped.
pub fn read_packets(bytes: &[u8]) -> Result<Vec<PcapngPacket>, WireError> {
    let mut packets = Vec::new();
    let mut offset = 0usize;
    // Exponent n of the 10^-n timestamp resolution; pcapng default 6.
    let mut tsresol_exp: u32 = 6;

    let need = |offset: usize, n: usize, available: usize| -> Result<(), WireError> {
        if offset + n > available {
            Err(WireError::Truncated {
                layer: "pcapng",
                needed: offset + n,
                available,
            })
        } else {
            Ok(())
        }
    };
    let u32_at = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);

    let mut first = true;
    while offset < bytes.len() {
        need(offset, 12, bytes.len())?;
        let block_type = u32_at(bytes, offset);
        let total_len = u32_at(bytes, offset + 4) as usize;
        if total_len < 12 || !total_len.is_multiple_of(4) {
            return Err(WireError::BadLength {
                layer: "pcapng",
                what: "block total length",
            });
        }
        need(offset, total_len, bytes.len())?;
        let body = &bytes[offset + 8..offset + total_len - 4];
        let trailer = u32_at(bytes, offset + total_len - 4) as usize;
        if trailer != total_len {
            return Err(WireError::BadLength {
                layer: "pcapng",
                what: "block trailer length mismatch",
            });
        }
        if first {
            if block_type != SHB_TYPE {
                return Err(WireError::BadField {
                    layer: "pcapng",
                    field: "first block type",
                    value: block_type,
                });
            }
            if body.len() < 4 || u32_at(body, 0) != BYTE_ORDER_MAGIC {
                return Err(WireError::BadField {
                    layer: "pcapng",
                    field: "byte-order magic",
                    value: if body.len() >= 4 { u32_at(body, 0) } else { 0 },
                });
            }
            first = false;
        } else if block_type == IDB_TYPE {
            // Scan options for if_tsresol.
            let mut opt = 8usize;
            while opt + 4 <= body.len() {
                let code = u16::from_le_bytes([body[opt], body[opt + 1]]);
                let len = u16::from_le_bytes([body[opt + 2], body[opt + 3]]) as usize;
                if code == 0 {
                    break;
                }
                if opt + 4 + len > body.len() {
                    return Err(WireError::BadLength {
                        layer: "pcapng",
                        what: "IDB option length",
                    });
                }
                if code == OPT_IF_TSRESOL && len == 1 {
                    let raw = body[opt + 4];
                    if raw & 0x80 != 0 {
                        // Power-of-two resolutions are not produced by
                        // this crate's writer.
                        return Err(WireError::BadField {
                            layer: "pcapng",
                            field: "if_tsresol",
                            value: raw as u32,
                        });
                    }
                    tsresol_exp = raw as u32;
                }
                opt += 4 + len + pad4(len);
            }
        } else if block_type == EPB_TYPE {
            if body.len() < 20 {
                return Err(WireError::Truncated {
                    layer: "pcapng",
                    needed: 20,
                    available: body.len(),
                });
            }
            let ts = ((u32_at(body, 4) as u64) << 32) | u32_at(body, 8) as u64;
            let captured = u32_at(body, 12) as usize;
            if 20 + captured > body.len() {
                return Err(WireError::BadLength {
                    layer: "pcapng",
                    what: "EPB captured length",
                });
            }
            let orig_len = u32_at(body, 16) as usize;
            if orig_len < captured {
                return Err(WireError::BadLength {
                    layer: "pcapng",
                    what: "EPB original length shorter than captured",
                });
            }
            let ts_ns = if tsresol_exp <= 9 {
                ts.saturating_mul(10u64.pow(9 - tsresol_exp))
            } else {
                ts / 10u64.pow(tsresol_exp - 9)
            };
            packets.push(PcapngPacket {
                ts_ns,
                frame: body[20..20 + captured].to_vec(),
                orig_len,
            });
        }
        offset += total_len;
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_frames_and_nanosecond_timestamps() {
        let frames: Vec<(u64, Vec<u8>)> = vec![
            (0, vec![0xAA; 14]),
            (1_234_567_891_234, vec![1, 2, 3]), // > 32 bits of ns
            (u64::from(u32::MAX) + 7, vec![0; 61]), // odd padding
        ];
        let mut w = PcapngWriter::new("sim0");
        for (i, (ts, frame)) in frames.iter().enumerate() {
            if i == 0 {
                w.packet_with_comment(*ts, frame, Some("n1 Tx(port=0)"));
            } else {
                w.packet(*ts, frame);
            }
        }
        let file = w.finish();
        assert_eq!(&file[..4], &SHB_TYPE.to_le_bytes());
        let back = read_packets(&file).expect("well-formed");
        assert_eq!(back.len(), frames.len());
        for (p, (ts, frame)) in back.iter().zip(&frames) {
            assert_eq!(p.ts_ns, *ts);
            assert_eq!(&p.frame, frame);
            assert_eq!(p.orig_len, frame.len());
        }
    }

    #[test]
    fn truncated_packets_keep_their_original_length() {
        let mut w = PcapngWriter::new("snap");
        w.truncated_packet(5, &[7; 54], 1514, Some("release t1"));
        w.truncated_packet(6, &[8; 3], 3, None);
        let back = read_packets(&w.finish()).expect("well-formed");
        assert_eq!((back[0].frame.len(), back[0].orig_len), (54, 1514));
        assert_eq!((back[1].frame.len(), back[1].orig_len), (3, 3));
        // A block claiming less on the wire than it captured is refused.
        let mut file = PcapngWriter::new("bad").finish();
        let mut epb = Vec::new();
        for field in [0u32, 0, 1, 4, 2] {
            epb.extend_from_slice(&field.to_le_bytes());
        }
        epb.extend_from_slice(&[1, 2, 3, 4]);
        push_block(&mut file, EPB_TYPE, &epb);
        assert!(matches!(
            read_packets(&file),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn default_microsecond_resolution_is_scaled() {
        // Build an IDB without if_tsresol: timestamps are 10^-6 s.
        let mut file = Vec::new();
        let mut shb = Vec::new();
        shb.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&u64::MAX.to_le_bytes());
        push_block(&mut file, SHB_TYPE, &shb);
        let mut idb = Vec::new();
        idb.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes());
        push_block(&mut file, IDB_TYPE, &idb);
        let mut epb = Vec::new();
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&5u32.to_le_bytes()); // 5 µs
        epb.extend_from_slice(&4u32.to_le_bytes());
        epb.extend_from_slice(&4u32.to_le_bytes());
        epb.extend_from_slice(&[9, 9, 9, 9]);
        push_block(&mut file, EPB_TYPE, &epb);

        let back = read_packets(&file).expect("well-formed");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].ts_ns, 5_000);
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(matches!(
            read_packets(&[1, 2, 3]),
            Err(WireError::Truncated {
                layer: "pcapng",
                ..
            })
        ));
        // Wrong first block type.
        let mut file = Vec::new();
        push_block(&mut file, EPB_TYPE, &[0u8; 20]);
        assert!(matches!(
            read_packets(&file),
            Err(WireError::BadField {
                field: "first block type",
                ..
            })
        ));
        // Truncated mid-block.
        let mut w = PcapngWriter::new("sim0");
        w.packet(1, &[0; 9]);
        let file = w.finish();
        assert!(read_packets(&file[..file.len() - 2]).is_err());
    }
}
