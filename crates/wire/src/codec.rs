//! Binary encoding of [`AskPacket`]s.
//!
//! The encoding is compact enough that the serialized size never exceeds the
//! *nominal* wire size used for bandwidth accounting
//! ([`AskPacket::wire_bytes`]), so frames can carry real bytes while the
//! simulator charges the paper's 78-byte overhead model.
//!
//! Short and medium slots are encoded as fixed-width zero-padded key
//! segments (exactly what the switch's `kPart` registers store), which is
//! reversible because [`Key`](crate::key::Key)s never contain NUL bytes.
//!
//! Decoding has one validator: the body walk behind
//! [`FrameView::parse`]. [`decode_envelope`] and [`decode`] run it and then
//! build the owned packet from the validated view.

use crate::key::{KeyError, KPART_BYTES};
use crate::packet::{AskPacket, ControlMsg, FetchScope, KvTuple, PacketLayout};
use crate::view::{build_packet, parse_body, FrameView};
use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;

pub(crate) const KIND_DATA: u8 = 0;
pub(crate) const KIND_LONG_KV: u8 = 1;
pub(crate) const KIND_ACK: u8 = 2;
pub(crate) const KIND_FIN: u8 = 3;
pub(crate) const KIND_SWAP: u8 = 4;
pub(crate) const KIND_FETCH_REQ: u8 = 5;
pub(crate) const KIND_FETCH_REPLY: u8 = 6;
pub(crate) const KIND_CONTROL: u8 = 7;

pub(crate) const CTRL_REGION_REQUEST: u8 = 0;
pub(crate) const CTRL_REGION_GRANT: u8 = 1;
pub(crate) const CTRL_REGION_DENY: u8 = 2;
pub(crate) const CTRL_REGION_RELEASE: u8 = 3;
pub(crate) const CTRL_TASK_ANNOUNCE: u8 = 4;
pub(crate) const CTRL_EPOCH_NOTIFY: u8 = 5;

/// Envelope header length: checksum, source, destination, epoch, flags.
pub const ENVELOPE_HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 1;

/// Envelope flag bit: the carried data packet must not be aggregated by the
/// switch — relay it to the destination unchanged (degraded pass-through
/// while the switch is recovering from a crash).
pub const FLAG_NO_AGGREGATE: u8 = 0b1;

/// Error decoding a byte buffer into an [`AskPacket`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the packet was complete.
    Truncated,
    /// The envelope checksum did not match — the frame was corrupted in
    /// transit and must be treated as lost.
    ChecksumMismatch,
    /// Unknown packet kind byte.
    BadKind(u8),
    /// Unknown control-message kind byte.
    BadControlKind(u8),
    /// A decoded key failed validation.
    BadKey(KeyError),
    /// Bytes remained after a complete packet.
    TrailingBytes(usize),
    /// A data packet declared an impossible slot layout.
    BadLayout,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "packet truncated"),
            CodecError::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            CodecError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            CodecError::BadControlKind(k) => write!(f, "unknown control kind {k}"),
            CodecError::BadKey(e) => write!(f, "invalid key: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
            CodecError::BadLayout => write!(f, "invalid slot layout in data packet"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::BadKey(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<KeyError> for CodecError {
    fn from(e: KeyError) -> Self {
        CodecError::BadKey(e)
    }
}

/// Exact serialized size of `packet` under `layout`, used to reserve
/// encoding buffers up front so the hot path never reallocates mid-write.
pub fn encoded_size(packet: &AskPacket, layout: &PacketLayout) -> usize {
    fn entries_size(entries: &[KvTuple]) -> usize {
        4 + entries.iter().map(|t| 2 + t.key.len() + 4).sum::<usize>()
    }
    match packet {
        AskPacket::Data(d) => {
            let mut n = 1 + 4 + 4 + 8 + 3 + 16;
            for (i, slot) in d.slots.iter().enumerate() {
                if slot.is_some() {
                    let width = if layout.is_short_slot(i) {
                        KPART_BYTES
                    } else {
                        layout.medium_max_key_len()
                    };
                    n += width + 4;
                }
            }
            n
        }
        AskPacket::LongKv { entries, .. } => 1 + 4 + 4 + 8 + entries_size(entries),
        AskPacket::Ack { .. } => 1 + 4 + 8 + 1,
        AskPacket::Fin { .. } => 1 + 4 + 4 + 8,
        AskPacket::Swap { .. } => 1 + 4,
        AskPacket::FetchRequest { .. } => 1 + 4 + 1 + 4,
        AskPacket::FetchReply { entries, .. } => 1 + 4 + 4 + entries_size(entries),
        AskPacket::Control(msg) => match msg {
            ControlMsg::RegionRequest { .. } => 2 + 4 + 1,
            ControlMsg::RegionGrant { .. } => 2 + 4 + 8,
            ControlMsg::RegionDeny { .. } | ControlMsg::RegionRelease { .. } => 2 + 4,
            ControlMsg::TaskAnnounce { .. } => 2 + 4 + 4,
            ControlMsg::EpochNotify { .. } => 2 + 4,
        },
    }
}

/// Zero padding written after a key to fill its fixed-width slot.
fn put_zero_pad(buf: &mut BytesMut, mut n: usize) {
    const PAD: [u8; 64] = [0u8; 64];
    while n > 0 {
        let chunk = n.min(PAD.len());
        buf.put_slice(&PAD[..chunk]);
        n -= chunk;
    }
}

/// Serializes a packet. `layout` governs the slot widths of data packets.
///
/// # Panics
///
/// Panics if a [`DataPacket`]'s slot vector length differs from
/// `layout.slot_count()`, or a slot carries a key wider than its slot.
pub fn encode(packet: &AskPacket, layout: &PacketLayout) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(packet, layout));
    encode_into(&mut buf, packet, layout);
    buf.freeze()
}

/// Appends `packet`'s serialized form to `buf` — the scratch-buffer form of
/// [`encode`], letting callers compose an envelope (or any outer framing)
/// in one buffer without an intermediate body allocation and copy.
///
/// # Panics
///
/// Same conditions as [`encode`].
pub fn encode_into(buf: &mut BytesMut, packet: &AskPacket, layout: &PacketLayout) {
    match packet {
        AskPacket::Data(d) => {
            assert_eq!(
                d.slots.len(),
                layout.slot_count(),
                "slot vector must match layout"
            );
            buf.put_u8(KIND_DATA);
            buf.put_u32(d.task.0);
            buf.put_u32(d.channel.0);
            buf.put_u64(d.seq.0);
            buf.put_u8(layout.short_slots() as u8);
            buf.put_u8(layout.medium_groups() as u8);
            buf.put_u8(layout.medium_segments() as u8);
            buf.put_u128(d.bitmap());
            for (i, slot) in d.slots.iter().enumerate() {
                let Some(t) = slot else { continue };
                let width = if layout.is_short_slot(i) {
                    KPART_BYTES
                } else {
                    layout.medium_max_key_len()
                };
                assert!(
                    t.key.len() <= width,
                    "key {} too long for slot {i} (width {width})",
                    t.key
                );
                buf.put_slice(t.key.as_bytes());
                put_zero_pad(buf, width - t.key.len());
                buf.put_u32(t.value);
            }
        }
        AskPacket::LongKv {
            task,
            channel,
            seq,
            entries,
        } => {
            buf.put_u8(KIND_LONG_KV);
            buf.put_u32(task.0);
            buf.put_u32(channel.0);
            buf.put_u64(seq.0);
            put_entries(buf, entries);
        }
        AskPacket::Ack { channel, seq, ece } => {
            buf.put_u8(KIND_ACK);
            buf.put_u32(channel.0);
            buf.put_u64(seq.0);
            buf.put_u8(*ece as u8);
        }
        AskPacket::Fin { task, channel, seq } => {
            buf.put_u8(KIND_FIN);
            buf.put_u32(task.0);
            buf.put_u32(channel.0);
            buf.put_u64(seq.0);
        }
        AskPacket::Swap { task } => {
            buf.put_u8(KIND_SWAP);
            buf.put_u32(task.0);
        }
        AskPacket::FetchRequest {
            task,
            scope,
            fetch_seq,
        } => {
            buf.put_u8(KIND_FETCH_REQ);
            buf.put_u32(task.0);
            buf.put_u8(match scope {
                FetchScope::Inactive => 0,
                FetchScope::All => 1,
            });
            buf.put_u32(*fetch_seq);
        }
        AskPacket::FetchReply {
            task,
            fetch_seq,
            entries,
        } => {
            buf.put_u8(KIND_FETCH_REPLY);
            buf.put_u32(task.0);
            buf.put_u32(*fetch_seq);
            put_entries(buf, entries);
        }
        AskPacket::Control(msg) => {
            buf.put_u8(KIND_CONTROL);
            match msg {
                ControlMsg::RegionRequest { task, op } => {
                    buf.put_u8(CTRL_REGION_REQUEST);
                    buf.put_u32(task.0);
                    buf.put_u8(op.to_code());
                }
                ControlMsg::RegionGrant { task, region } => {
                    buf.put_u8(CTRL_REGION_GRANT);
                    buf.put_u32(task.0);
                    buf.put_u32(region.base);
                    buf.put_u32(region.aggregators);
                }
                ControlMsg::RegionDeny { task } => {
                    buf.put_u8(CTRL_REGION_DENY);
                    buf.put_u32(task.0);
                }
                ControlMsg::RegionRelease { task } => {
                    buf.put_u8(CTRL_REGION_RELEASE);
                    buf.put_u32(task.0);
                }
                ControlMsg::TaskAnnounce { task, receiver } => {
                    buf.put_u8(CTRL_TASK_ANNOUNCE);
                    buf.put_u32(task.0);
                    buf.put_u32(*receiver);
                }
                ControlMsg::EpochNotify { epoch } => {
                    buf.put_u8(CTRL_EPOCH_NOTIFY);
                    buf.put_u32(*epoch);
                }
            }
        }
    }
}

fn put_entries(buf: &mut BytesMut, entries: &[KvTuple]) {
    buf.put_u32(entries.len() as u32);
    for t in entries {
        buf.put_u16(t.key.len() as u16);
        buf.put_slice(t.key.as_bytes());
        buf.put_u32(t.value);
    }
}

/// Deserializes a packet body previously produced by [`encode`]: the
/// shared body walk ([`FrameView::parse`](crate::view::FrameView::parse)
/// minus the envelope header), then the owned-packet builder.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation, unknown kinds, invalid keys, an
/// impossible declared layout, or trailing bytes.
pub fn decode(buf: Bytes) -> Result<AskPacket, CodecError> {
    let packet = parse_body(&buf, 0)?;
    Ok(build_packet(&buf, 0, &packet, None))
}

/// An [`AskPacket`] wrapped with source/destination addressing, the unit a
/// host actually puts on the wire. The addresses stand in for the IP header
/// the paper's packets carry ("the sender streams the packets to the
/// receiver with the task ID and the destination IP address in the packet",
/// §3.1); they are raw simulator node indices here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Originating node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Switch epoch the frame was stamped with. Bumped by every
    /// switch crash-restart; frames from an older epoch are stale and must
    /// be dropped, not processed (their reliability state died with the
    /// crash). `0` is the boot epoch, so crash-free runs never see a
    /// mismatch.
    pub epoch: u32,
    /// Envelope flag bits (see [`FLAG_NO_AGGREGATE`]).
    pub flags: u8,
    /// The carried packet.
    pub packet: AskPacket,
}

impl Envelope {
    /// Convenience constructor (boot epoch, no flags).
    pub fn new(src: u32, dst: u32, packet: AskPacket) -> Self {
        Envelope {
            src,
            dst,
            epoch: 0,
            flags: 0,
            packet,
        }
    }

    /// Nominal wire bytes (addressing is part of the 78-byte overhead).
    pub fn wire_bytes(&self, layout: &PacketLayout) -> usize {
        self.packet.wire_bytes(layout)
    }
}

/// Lookup tables for slice-by-8 CRC-32: `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table for the reflected IEEE 802.3 polynomial; table `t`
/// advances a byte through `t` additional zero bytes, letting eight input
/// bytes fold into the CRC per step.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) over a byte slice — the envelope's
/// integrity check, standing in for the Ethernet FCS the simulator's
/// framing-overhead constant already accounts for. Slice-by-8 table
/// lookup; identical values to the bitwise definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC32_TABLES[7][(lo & 0xff) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xff) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Serializes an addressed packet, prepending a CRC-32 over the body so
/// in-transit corruption is detected at the next hop and the frame is
/// treated as lost (recovered by retransmission).
///
/// # Panics
///
/// Same conditions as [`encode`].
pub fn encode_envelope(envelope: &Envelope, layout: &PacketLayout) -> Bytes {
    encode_envelope_parts(
        envelope.src,
        envelope.dst,
        envelope.epoch,
        envelope.flags,
        &envelope.packet,
        layout,
    )
}

/// [`encode_envelope`] without requiring an [`Envelope`] to be built first,
/// so senders can serialize a packet they still own. The whole envelope is
/// written into a single exactly-sized buffer: the header first, the body
/// directly behind it, then the checksum patched in — no separate body
/// allocation or copy.
///
/// # Panics
///
/// Same conditions as [`encode`].
pub fn encode_envelope_parts(
    src: u32,
    dst: u32,
    epoch: u32,
    flags: u8,
    packet: &AskPacket,
    layout: &PacketLayout,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(ENVELOPE_HEADER_BYTES + encoded_size(packet, layout));
    buf.put_u32(0); // checksum placeholder
    buf.put_u32(src);
    buf.put_u32(dst);
    buf.put_u32(epoch);
    buf.put_u8(flags);
    encode_into(&mut buf, packet, layout);
    let sum = crc32(&buf[4..]);
    buf[0..4].copy_from_slice(&sum.to_be_bytes());
    buf.freeze()
}

/// The addressing fields of a validated envelope header, read by
/// [`crate::view::FrameView::parse`] in the same pass that checks the CRC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvelopeHeader {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) epoch: u32,
    pub(crate) flags: u8,
}

/// Verifies the envelope checksum and reads the addressing header.
pub(crate) fn check_envelope_header(bytes: &[u8]) -> Result<EnvelopeHeader, CodecError> {
    if bytes.len() < ENVELOPE_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let expected = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if crc32(&bytes[4..]) != expected {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(EnvelopeHeader {
        src: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        dst: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        epoch: u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
        flags: bytes[16],
    })
}

/// Deserializes an addressed packet produced by [`encode_envelope`]:
/// [`FrameView::parse`] followed by [`FrameView::materialize`].
///
/// # Errors
///
/// [`CodecError::ChecksumMismatch`] for corrupted frames; otherwise the
/// same conditions as [`decode`].
pub fn decode_envelope(bytes: Bytes) -> Result<Envelope, CodecError> {
    Ok(FrameView::parse(bytes)?.materialize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::packet::{AaRegion, AggregateOp, ChannelId, DataPacket, SeqNo, TaskId};
    use std::sync::Arc;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn roundtrip(p: &AskPacket, layout: &PacketLayout) {
        let bytes = encode(p, layout);
        let back = decode(bytes).expect("decode");
        assert_eq!(&back, p);
    }

    #[test]
    fn data_packet_roundtrips() {
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[3] = Some(kv("wxyz", 1));
        slots[16] = Some(kv("mediumk", 42)); // 7-byte medium key
        let p = AskPacket::Data(DataPacket {
            task: TaskId(5),
            channel: ChannelId(2),
            seq: SeqNo(99),
            slots,
        });
        roundtrip(&p, &layout);
    }

    #[test]
    fn encoded_size_never_exceeds_nominal_wire_size() {
        let layout = PacketLayout::paper_default();
        let mut slots = Vec::new();
        for i in 0..layout.slot_count() {
            let name = format!("k{i:06}");
            let s = if layout.is_short_slot(i) {
                "abcd"
            } else {
                &name
            };
            slots.push(Some(kv(s, i as u32)));
        }
        let p = AskPacket::Data(DataPacket {
            task: TaskId(0),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots,
        });
        let encoded = encode(&p, &layout);
        assert!(
            encoded.len() <= p.wire_bytes(&layout),
            "{} > {}",
            encoded.len(),
            p.wire_bytes(&layout)
        );
    }

    #[test]
    fn all_header_packets_roundtrip() {
        let layout = PacketLayout::paper_default();
        let packets = vec![
            AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(u64::MAX),
                ece: true,
            },
            AskPacket::Fin {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
            },
            AskPacket::Swap { task: TaskId(9) },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::Inactive,
                fetch_seq: 1,
            },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::All,
                fetch_seq: 2,
            },
            AskPacket::Control(ControlMsg::RegionRequest {
                task: TaskId(7),
                op: AggregateOp::Max,
            }),
            AskPacket::Control(ControlMsg::RegionGrant {
                task: TaskId(7),
                region: AaRegion {
                    base: 64,
                    aggregators: 1024,
                },
            }),
            AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(7) }),
            AskPacket::Control(ControlMsg::RegionRelease { task: TaskId(7) }),
            AskPacket::Control(ControlMsg::TaskAnnounce {
                task: TaskId(7),
                receiver: 3,
            }),
            AskPacket::Control(ControlMsg::EpochNotify { epoch: 42 }),
        ];
        for p in &packets {
            roundtrip(p, &layout);
        }
    }

    #[test]
    fn long_kv_and_fetch_reply_roundtrip() {
        let layout = PacketLayout::paper_default();
        roundtrip(
            &AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(1),
                seq: SeqNo(12),
                entries: vec![kv("a-very-long-key-beyond-eight", 5), kv("another1234", 6)],
            },
            &layout,
        );
        roundtrip(
            &AskPacket::FetchReply {
                task: TaskId(1),
                fetch_seq: 3,
                entries: Arc::new(vec![kv("x", 1)]),
            },
            &layout,
        );
    }

    #[test]
    fn encoded_size_is_exact() {
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[17] = Some(kv("mediumk", 42));
        let packets = vec![
            AskPacket::Data(DataPacket {
                task: TaskId(5),
                channel: ChannelId(2),
                seq: SeqNo(99),
                slots,
            }),
            AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(1),
                seq: SeqNo(12),
                entries: vec![kv("a-very-long-key", 5)],
            },
            AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(2),
                ece: true,
            },
            AskPacket::Fin {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
            },
            AskPacket::Swap { task: TaskId(9) },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::All,
                fetch_seq: 2,
            },
            AskPacket::FetchReply {
                task: TaskId(1),
                fetch_seq: 3,
                entries: Arc::new(vec![kv("x", 1), kv("yy", 2)]),
            },
            AskPacket::Control(ControlMsg::TaskAnnounce {
                task: TaskId(7),
                receiver: 3,
            }),
            AskPacket::Control(ControlMsg::EpochNotify { epoch: 9 }),
        ];
        for p in &packets {
            assert_eq!(
                encode(p, &layout).len(),
                encoded_size(p, &layout),
                "size mismatch for {p}"
            );
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let layout = PacketLayout::paper_default();
        let bytes = encode(
            &AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(2),
                ece: false,
            },
            &layout,
        );
        for cut in 0..bytes.len() {
            let err = decode(bytes.slice(0..cut)).unwrap_err();
            assert_eq!(err, CodecError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let layout = PacketLayout::paper_default();
        let mut v = encode(&AskPacket::Swap { task: TaskId(1) }, &layout).to_vec();
        v.push(0xAA);
        assert_eq!(
            decode(Bytes::from(v)).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(
            decode(Bytes::from_static(&[200])).unwrap_err(),
            CodecError::BadKind(200)
        );
    }

    #[test]
    fn bad_layout_rejected() {
        // Hand-craft a data packet header declaring zero slots.
        let mut buf = BytesMut::new();
        buf.put_u8(KIND_DATA);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u64(0);
        buf.put_u8(0); // short
        buf.put_u8(0); // medium groups
        buf.put_u8(2); // m
        buf.put_u128(0);
        assert_eq!(decode(buf.freeze()).unwrap_err(), CodecError::BadLayout);
    }

    #[test]
    fn bitmap_beyond_slots_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(KIND_DATA);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u64(0);
        buf.put_u8(2); // 2 short slots
        buf.put_u8(0);
        buf.put_u8(2);
        buf.put_u128(0b100); // bit 2 set but only slots 0..2 exist
        assert_eq!(decode(buf.freeze()).unwrap_err(), CodecError::BadLayout);
    }

    #[test]
    fn envelope_roundtrips_with_checksum() {
        let layout = PacketLayout::paper_default();
        let env = Envelope::new(3, 9, AskPacket::Swap { task: TaskId(5) });
        let bytes = encode_envelope(&env, &layout);
        assert_eq!(decode_envelope(bytes).unwrap(), env);
    }

    #[test]
    fn envelope_epoch_and_flags_roundtrip() {
        let layout = PacketLayout::paper_default();
        let mut env = Envelope::new(1, 2, AskPacket::Swap { task: TaskId(5) });
        env.epoch = 3;
        env.flags = FLAG_NO_AGGREGATE;
        let bytes = encode_envelope(&env, &layout);
        let back = decode_envelope(bytes).unwrap();
        assert_eq!(back.epoch, 3);
        assert_eq!(back.flags & FLAG_NO_AGGREGATE, FLAG_NO_AGGREGATE);
        assert_eq!(back, env);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let layout = PacketLayout::paper_default();
        let env = Envelope::new(
            1,
            2,
            AskPacket::Fin {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
            },
        );
        let bytes = encode_envelope(&env, &layout);
        for byte_ix in 0..bytes.len() {
            for bit in 0..8 {
                let mut v = bytes.to_vec();
                v[byte_ix] ^= 1 << bit;
                let got = decode_envelope(Bytes::from(v));
                assert!(
                    got != Ok(env.clone()),
                    "flip at {byte_ix}.{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CodecError::Truncated,
            CodecError::ChecksumMismatch,
            CodecError::BadKind(1),
            CodecError::BadControlKind(1),
            CodecError::BadKey(KeyError::Empty),
            CodecError::TrailingBytes(2),
            CodecError::BadLayout,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
