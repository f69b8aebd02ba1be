//! Borrowed, zero-materialization views over encoded frames — and the wire
//! format's one validator.
//!
//! [`FrameView::parse`] checks an envelope once — CRC, header, then every
//! body field, slot and key — and builds **no** owned packet: no
//! `Vec<Option<KvTuple>>`, no per-slot `Key` values.
//! Header fields and slot (key, value) pairs are typed reads over the raw
//! frame bytes, which is how the paper's Tofino pipeline consumes packets
//! (the ASIC never "decodes"; it reads fields in place). Every other
//! decoder in the crate goes through the same body walk:
//! [`decode_envelope`](crate::codec::decode_envelope) is `parse` followed
//! by [`FrameView::materialize`], and the bare-body
//! [`decode`](crate::codec::decode) runs the walk at offset 0.
//!
//! Both receive paths consume views and nothing else. The switch
//! aggregates straight out of the slot bytes and, when a packet is only
//! partially absorbed, rewrites the frame with
//! [`DataPacketView::residual_frame`], which copies the surviving slots and
//! patches the bitmap and CRC in one exact-size buffer. A host merges data
//! slots and long-kv or fetch-reply entries ([`FrameView::entries`]) into
//! its residual table straight from the frame bytes. A view reads slot
//! widths from the frame's own declared layout, so data in any layout is
//! readable in place.

use crate::codec::{
    check_envelope_header, crc32, encode_envelope_parts, CodecError, Envelope, CTRL_EPOCH_NOTIFY,
    CTRL_REGION_DENY, CTRL_REGION_GRANT, CTRL_REGION_RELEASE, CTRL_REGION_REQUEST,
    CTRL_TASK_ANNOUNCE, ENVELOPE_HEADER_BYTES, KIND_ACK, KIND_CONTROL, KIND_DATA, KIND_FETCH_REPLY,
    KIND_FETCH_REQ, KIND_FIN, KIND_LONG_KV, KIND_SWAP,
};
use crate::key::{fnv1a, Key, KeyError, KPART_BYTES};
use crate::packet::{
    AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
    PacketLayout, SeqNo, TaskId,
};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::Arc;

/// Offset of the bitmap within a data-packet body: kind byte,
/// task/channel/seq, and the three declared-layout bytes.
pub(crate) const DATA_BITMAP: usize = 1 + 4 + 4 + 8 + 3;

/// Offset of the first slot's bytes within a data-packet body.
pub(crate) const DATA_SLOTS: usize = DATA_BITMAP + 16;

#[inline]
fn need(total: usize, pos: usize, n: usize) -> Result<(), CodecError> {
    if total - pos < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

#[inline]
fn rd_u32(b: &[u8], pos: usize) -> u32 {
    u32::from_be_bytes([b[pos], b[pos + 1], b[pos + 2], b[pos + 3]])
}

#[inline]
fn rd_u64(b: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[pos..pos + 8]);
    u64::from_be_bytes(w)
}

#[inline]
fn rd_u128(b: &[u8], pos: usize) -> u128 {
    let mut w = [0u8; 16];
    w.copy_from_slice(&b[pos..pos + 16]);
    u128::from_be_bytes(w)
}

/// A validated envelope whose packet body is still raw bytes.
///
/// Produced by [`FrameView::parse`]; the frame buffer is held by reference
/// count, so cloning a view (or the [`DataPacketView`] inside it) never
/// copies frame bytes.
#[derive(Debug, Clone)]
pub struct FrameView {
    bytes: Bytes,
    src: u32,
    dst: u32,
    epoch: u32,
    flags: u8,
    packet: PacketView,
}

/// The kind-discriminated body of a [`FrameView`].
///
/// Small fixed-size packets (acks, fins, control) are decoded outright —
/// they carry no slot payload, so there is nothing to borrow. Data packets
/// stay borrowed as a [`DataPacketView`]; long-kv and fetch-reply bodies
/// are *validated* (every entry length and key checked) but not
/// materialized, since the switch only relays them.
#[derive(Debug, Clone)]
pub enum PacketView {
    /// A slotted data packet, readable in place.
    Data(DataPacketView),
    /// A long-key bypass packet; entries validated, not materialized.
    LongKv {
        /// Aggregation task.
        task: TaskId,
        /// Data channel.
        channel: ChannelId,
        /// Channel sequence number.
        seq: SeqNo,
        /// Number of (key, value) entries in the body.
        entry_count: u32,
    },
    /// Per-channel cumulative acknowledgement.
    Ack {
        /// Acknowledged channel.
        channel: ChannelId,
        /// Acknowledged sequence number.
        seq: SeqNo,
        /// Explicit congestion notification echo.
        ece: bool,
    },
    /// End-of-stream marker.
    Fin {
        /// Aggregation task.
        task: TaskId,
        /// Data channel.
        channel: ChannelId,
        /// Final sequence number.
        seq: SeqNo,
    },
    /// Shadow-copy swap command.
    Swap {
        /// Aggregation task.
        task: TaskId,
    },
    /// Receiver-driven fetch of switch aggregator state.
    FetchRequest {
        /// Aggregation task.
        task: TaskId,
        /// Which aggregators to drain.
        scope: FetchScope,
        /// Fetch sequence number (idempotency token).
        fetch_seq: u32,
    },
    /// Reply to a fetch; entries validated, not materialized.
    FetchReply {
        /// Aggregation task.
        task: TaskId,
        /// Echoed fetch sequence number.
        fetch_seq: u32,
        /// Number of (key, value) entries in the body.
        entry_count: u32,
    },
    /// Control-plane message, decoded outright (no payload to borrow).
    Control(ControlMsg),
}

/// A data packet readable directly from frame bytes.
///
/// Header fields are pre-decoded at parse time (they are read on every
/// path); slot bytes stay in place and are walked by
/// [`slots`](DataPacketView::slots). All slots were validated during
/// [`FrameView::parse`], so accessors never fail.
#[derive(Debug, Clone)]
pub struct DataPacketView {
    bytes: Bytes,
    /// Where the packet body starts in `bytes`: past the envelope header
    /// for a parsed frame, 0 for a bare body being decoded.
    body: u8,
    task: TaskId,
    channel: ChannelId,
    seq: SeqNo,
    short_slots: u8,
    medium_groups: u8,
    medium_segments: u8,
    bitmap: u128,
}

/// One occupied slot of a [`DataPacketView`]: the zero-padded key bytes
/// exactly as stored on the wire (and in the switch's `kPart` registers),
/// plus the value.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    index: usize,
    padded: &'a [u8],
    key_len: usize,
    value: u32,
}

/// Iterator over the occupied slots of a [`DataPacketView`], in slot-index
/// order (the wire order).
#[derive(Debug)]
pub struct SlotViews<'a> {
    view: &'a DataPacketView,
    index: usize,
    offset: usize,
}

/// One `(key, value)` entry of a long-kv or fetch-reply body, read in place
/// from frame bytes. Produced by [`FrameView::entries`]; the bytes were
/// validated during [`FrameView::parse`], so accessors never fail.
#[derive(Debug, Clone, Copy)]
pub struct EntryView<'a> {
    key: &'a [u8],
    /// Offset of `key` in the frame bytes, so a materialized long key can
    /// share the frame buffer instead of copying.
    at: usize,
    value: u32,
}

/// Iterator over the validated entries of a long-kv or fetch-reply body, in
/// wire order. See [`FrameView::entries`].
#[derive(Debug)]
pub struct EntryViews<'a> {
    bytes: &'a [u8],
    offset: usize,
    remaining: u32,
}

impl FrameView {
    /// Parses and fully validates an encoded envelope without materializing
    /// the packet: the checksum and header first, then the body walk every
    /// decoder in the crate shares.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] for a frame shorter than the envelope
    /// header, [`CodecError::ChecksumMismatch`] for a corrupted one, then
    /// whatever the body walk rejects: truncation, unknown kinds, invalid
    /// keys, an impossible declared layout, or trailing bytes.
    pub fn parse(bytes: Bytes) -> Result<FrameView, CodecError> {
        let h = check_envelope_header(&bytes)?;
        let packet = parse_body(&bytes, ENVELOPE_HEADER_BYTES)?;
        Ok(FrameView {
            bytes,
            src: h.src,
            dst: h.dst,
            epoch: h.epoch,
            flags: h.flags,
            packet,
        })
    }

    /// Originating node index.
    pub fn src(&self) -> u32 {
        self.src
    }

    /// Destination node index.
    pub fn dst(&self) -> u32 {
        self.dst
    }

    /// Switch epoch the frame was stamped with.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Envelope flag bits.
    pub fn flags(&self) -> u8 {
        self.flags
    }

    /// The still-borrowed packet body.
    pub fn packet(&self) -> &PacketView {
        &self.packet
    }

    /// Consumes the view, keeping only the packet body.
    pub fn into_packet(self) -> PacketView {
        self.packet
    }

    /// The underlying frame bytes (envelope header included).
    pub fn frame_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Iterates the `(key, value)` entries of a long-kv or fetch-reply body
    /// straight off the frame bytes — the host daemon's zero-materialization
    /// fetch-merge path. Entries were validated during [`FrameView::parse`];
    /// `None` for packet kinds that carry no entry list.
    pub fn entries(&self) -> Option<EntryViews<'_>> {
        entry_views(&self.bytes, ENVELOPE_HEADER_BYTES, &self.packet)
    }

    /// Builds the full owned [`Envelope`] without re-checksumming — the
    /// parse already validated the CRC and every field, so this cannot fail.
    pub fn materialize(&self) -> Envelope {
        Envelope {
            src: self.src,
            dst: self.dst,
            epoch: self.epoch,
            flags: self.flags,
            packet: build_packet(&self.bytes, ENVELOPE_HEADER_BYTES, &self.packet),
        }
    }
}

/// The body walk: validates the packet body at `bytes[body..]` through to
/// the last byte and returns its typed view. The only code in the crate
/// that rejects a body — [`FrameView::parse`] runs it behind the envelope
/// header, [`decode`](crate::codec::decode) at offset 0.
pub(crate) fn parse_body(bytes: &Bytes, body: usize) -> Result<PacketView, CodecError> {
    let b: &[u8] = bytes;
    let total = b.len();
    let mut pos = body;
    need(total, pos, 1)?;
    let kind = b[pos];
    pos += 1;
    let packet = match kind {
        KIND_DATA => {
            need(total, pos, 4 + 4 + 8 + 3 + 16)?;
            let task = TaskId(rd_u32(b, pos));
            let channel = ChannelId(rd_u32(b, pos + 4));
            let seq = SeqNo(rd_u64(b, pos + 8));
            let short_slots = b[pos + 16] as usize;
            let medium_groups = b[pos + 17] as usize;
            let medium_segments = b[pos + 18] as usize;
            let slots_total = short_slots + medium_groups;
            if slots_total == 0 || slots_total > 128 || (medium_groups > 0 && medium_segments < 2) {
                return Err(CodecError::BadLayout);
            }
            let bitmap = rd_u128(b, pos + 19);
            if slots_total < 128 && bitmap >> slots_total != 0 {
                return Err(CodecError::BadLayout);
            }
            pos += 4 + 4 + 8 + 3 + 16;
            for i in 0..slots_total {
                if bitmap & (1 << i) == 0 {
                    continue;
                }
                let width = if i < short_slots {
                    KPART_BYTES
                } else {
                    KPART_BYTES * medium_segments
                };
                need(total, pos, width + 4)?;
                // Keys never contain NUL, so the zero padding is
                // reversible: the key is everything up to the last
                // non-zero byte.
                let raw = &b[pos..pos + width];
                let key_len = raw.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1);
                if key_len == 0 {
                    return Err(KeyError::Empty.into());
                }
                if raw[..key_len].contains(&0) {
                    return Err(KeyError::ContainsNul.into());
                }
                pos += width + 4;
            }
            PacketView::Data(DataPacketView {
                bytes: bytes.clone(),
                body: body as u8,
                task,
                channel,
                seq,
                short_slots: short_slots as u8,
                medium_groups: medium_groups as u8,
                medium_segments: medium_segments as u8,
                bitmap,
            })
        }
        KIND_LONG_KV => {
            need(total, pos, 4 + 4 + 8)?;
            let task = TaskId(rd_u32(b, pos));
            let channel = ChannelId(rd_u32(b, pos + 4));
            let seq = SeqNo(rd_u64(b, pos + 8));
            pos += 16;
            let entry_count = validate_entries(b, total, &mut pos)?;
            PacketView::LongKv {
                task,
                channel,
                seq,
                entry_count,
            }
        }
        KIND_ACK => {
            need(total, pos, 4 + 8 + 1)?;
            let v = PacketView::Ack {
                channel: ChannelId(rd_u32(b, pos)),
                seq: SeqNo(rd_u64(b, pos + 4)),
                ece: b[pos + 12] != 0,
            };
            pos += 13;
            v
        }
        KIND_FIN => {
            need(total, pos, 4 + 4 + 8)?;
            let v = PacketView::Fin {
                task: TaskId(rd_u32(b, pos)),
                channel: ChannelId(rd_u32(b, pos + 4)),
                seq: SeqNo(rd_u64(b, pos + 8)),
            };
            pos += 16;
            v
        }
        KIND_SWAP => {
            need(total, pos, 4)?;
            let v = PacketView::Swap {
                task: TaskId(rd_u32(b, pos)),
            };
            pos += 4;
            v
        }
        KIND_FETCH_REQ => {
            need(total, pos, 9)?;
            let task = TaskId(rd_u32(b, pos));
            let scope = match b[pos + 4] {
                0 => FetchScope::Inactive,
                _ => FetchScope::All,
            };
            let fetch_seq = rd_u32(b, pos + 5);
            pos += 9;
            PacketView::FetchRequest {
                task,
                scope,
                fetch_seq,
            }
        }
        KIND_FETCH_REPLY => {
            need(total, pos, 8)?;
            let task = TaskId(rd_u32(b, pos));
            let fetch_seq = rd_u32(b, pos + 4);
            pos += 8;
            let entry_count = validate_entries(b, total, &mut pos)?;
            PacketView::FetchReply {
                task,
                fetch_seq,
                entry_count,
            }
        }
        KIND_CONTROL => {
            need(total, pos, 1)?;
            let ctrl = b[pos];
            pos += 1;
            let (msg, len) = match ctrl {
                CTRL_REGION_REQUEST => {
                    need(total, pos, 5)?;
                    let m = ControlMsg::RegionRequest {
                        task: TaskId(rd_u32(b, pos)),
                        op: AggregateOp::from_code(b[pos + 4]),
                    };
                    (m, 5)
                }
                CTRL_REGION_GRANT => {
                    need(total, pos, 12)?;
                    let m = ControlMsg::RegionGrant {
                        task: TaskId(rd_u32(b, pos)),
                        region: AaRegion {
                            base: rd_u32(b, pos + 4),
                            aggregators: rd_u32(b, pos + 8),
                        },
                    };
                    (m, 12)
                }
                CTRL_REGION_DENY => {
                    need(total, pos, 4)?;
                    let m = ControlMsg::RegionDeny {
                        task: TaskId(rd_u32(b, pos)),
                    };
                    (m, 4)
                }
                CTRL_REGION_RELEASE => {
                    need(total, pos, 4)?;
                    let m = ControlMsg::RegionRelease {
                        task: TaskId(rd_u32(b, pos)),
                    };
                    (m, 4)
                }
                CTRL_TASK_ANNOUNCE => {
                    need(total, pos, 8)?;
                    let m = ControlMsg::TaskAnnounce {
                        task: TaskId(rd_u32(b, pos)),
                        receiver: rd_u32(b, pos + 4),
                    };
                    (m, 8)
                }
                CTRL_EPOCH_NOTIFY => {
                    need(total, pos, 4)?;
                    let m = ControlMsg::EpochNotify {
                        epoch: rd_u32(b, pos),
                    };
                    (m, 4)
                }
                other => return Err(CodecError::BadControlKind(other)),
            };
            pos += len;
            PacketView::Control(msg)
        }
        other => return Err(CodecError::BadKind(other)),
    };
    if pos != total {
        return Err(CodecError::TrailingBytes(total - pos));
    }
    Ok(packet)
}

/// The entry list of a long-kv or fetch-reply body at `bytes[body..]`.
fn entry_views<'a>(bytes: &'a [u8], body: usize, packet: &PacketView) -> Option<EntryViews<'a>> {
    // Body layout after the kind byte:
    // long-kv     task(4) channel(4) seq(8)  count(4) entries…
    // fetch-reply task(4) fetch_seq(4)       count(4) entries…
    let (offset, remaining) = match *packet {
        PacketView::LongKv { entry_count, .. } => (body + 1 + 16 + 4, entry_count),
        PacketView::FetchReply { entry_count, .. } => (body + 1 + 8 + 4, entry_count),
        _ => return None,
    };
    Some(EntryViews {
        bytes,
        offset,
        remaining,
    })
}

/// Builds the owned packet for a body [`parse_body`] already validated at
/// `bytes[body..]`; cannot fail. Entry keys longer than
/// [`INLINE_KEY_CAP`](crate::key::INLINE_KEY_CAP) become slices of
/// `bytes` rather than copies, so a long-kv body costs no allocation per
/// key.
pub(crate) fn build_packet(bytes: &Bytes, body: usize, packet: &PacketView) -> AskPacket {
    match *packet {
        PacketView::Data(ref d) => {
            let n = d.short_slots() + d.medium_groups();
            let mut slots = Vec::with_capacity(n);
            for s in d.slots() {
                slots.resize(s.index(), None);
                slots.push(Some(KvTuple::new(s.key(), s.value())));
            }
            slots.resize(n, None);
            AskPacket::Data(DataPacket {
                task: d.task,
                channel: d.channel,
                seq: d.seq,
                slots,
            })
        }
        PacketView::LongKv {
            task, channel, seq, ..
        } => AskPacket::LongKv {
            task,
            channel,
            seq,
            entries: build_entries(bytes, body, packet),
        },
        PacketView::Ack { channel, seq, ece } => AskPacket::Ack { channel, seq, ece },
        PacketView::Fin { task, channel, seq } => AskPacket::Fin { task, channel, seq },
        PacketView::Swap { task } => AskPacket::Swap { task },
        PacketView::FetchRequest {
            task,
            scope,
            fetch_seq,
        } => AskPacket::FetchRequest {
            task,
            scope,
            fetch_seq,
        },
        PacketView::FetchReply {
            task, fetch_seq, ..
        } => AskPacket::FetchReply {
            task,
            fetch_seq,
            entries: Arc::new(build_entries(bytes, body, packet)),
        },
        PacketView::Control(ref msg) => AskPacket::Control(msg.clone()),
    }
}

/// The owned entry list of a validated long-kv or fetch-reply body.
fn build_entries(bytes: &Bytes, body: usize, packet: &PacketView) -> Vec<KvTuple> {
    let views = entry_views(bytes, body, packet).expect("entry-bearing kind");
    // The count was validated against the body length, so it is safe to
    // reserve exactly.
    let mut out = Vec::with_capacity(views.len());
    for e in views {
        let key = Key::from_validated_bytes(bytes.slice(e.at..e.at + e.key.len()));
        out.push(KvTuple::new(key, e.value));
    }
    out
}

/// Walks and validates a long-kv / fetch-reply entry list without
/// building tuples. Returns the declared entry count.
fn validate_entries(b: &[u8], total: usize, pos: &mut usize) -> Result<u32, CodecError> {
    need(total, *pos, 4)?;
    let count = rd_u32(b, *pos);
    *pos += 4;
    for _ in 0..count {
        need(total, *pos, 2)?;
        let len = u16::from_be_bytes([b[*pos], b[*pos + 1]]) as usize;
        *pos += 2;
        need(total, *pos, len + 4)?;
        let key = &b[*pos..*pos + len];
        if key.is_empty() {
            return Err(KeyError::Empty.into());
        }
        if key.contains(&0) {
            return Err(KeyError::ContainsNul.into());
        }
        *pos += len + 4;
    }
    Ok(count)
}

impl DataPacketView {
    /// Encodes `packet` in `layout` as a frame from node 0 to node 0
    /// (epoch 0, no flags) and parses it back: the view a switch would
    /// aggregate, for tests and benchmarks that start from an owned packet.
    ///
    /// # Panics
    ///
    /// Panics where [`encode`](crate::codec::encode) does: a slot vector
    /// that does not fit `layout`.
    pub fn from_packet(packet: &DataPacket, layout: &PacketLayout) -> DataPacketView {
        let bytes = encode_envelope_parts(0, 0, 0, 0, &AskPacket::Data(packet.clone()), layout);
        match FrameView::parse(bytes).map(FrameView::into_packet) {
            Ok(PacketView::Data(d)) => d,
            other => unreachable!("an encoded data packet parses to a data view: {other:?}"),
        }
    }

    /// Aggregation task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Data channel.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Channel sequence number.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// Occupancy bitmap over logical slots.
    pub fn bitmap(&self) -> u128 {
        self.bitmap
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.bitmap.count_ones() as usize
    }

    /// Declared short-slot count.
    pub fn short_slots(&self) -> usize {
        self.short_slots as usize
    }

    /// Declared medium-group count.
    pub fn medium_groups(&self) -> usize {
        self.medium_groups as usize
    }

    /// Declared aggregator arrays per medium group (`m`).
    pub fn medium_segments(&self) -> usize {
        self.medium_segments as usize
    }

    /// True when the frame's declared slot layout equals `layout` — the
    /// precondition for aggregating in place and for
    /// [`DataPacketView::residual_frame`] matching a re-encode of the
    /// materialized residual byte for byte.
    pub fn matches_layout(&self, layout: &PacketLayout) -> bool {
        self.short_slots as usize == layout.short_slots()
            && self.medium_groups as usize == layout.medium_groups()
            && (self.medium_groups == 0
                || self.medium_segments as usize == layout.medium_segments())
    }

    /// Wire width (bytes) of logical slot `i`'s key field.
    fn slot_key_width(&self, i: usize) -> usize {
        if i < self.short_slots as usize {
            KPART_BYTES
        } else {
            KPART_BYTES * self.medium_segments as usize
        }
    }

    /// Iterates the occupied slots in slot-index order.
    pub fn slots(&self) -> SlotViews<'_> {
        SlotViews {
            view: self,
            index: 0,
            offset: self.body as usize + DATA_SLOTS,
        }
    }

    /// Re-frames this packet keeping only the slots in `residual`,
    /// copying header and surviving slot bytes verbatim and patching the
    /// bitmap and CRC — the view path's partial-absorb rewrite. When the
    /// declared layout matches the encoder's, the result is byte-identical
    /// to decoding, clearing the absorbed slots, and re-encoding.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `residual` only keeps slots this packet carries.
    pub fn residual_frame(&self, residual: u128) -> Bytes {
        debug_assert_eq!(
            residual & !self.bitmap,
            0,
            "residual must shrink the bitmap"
        );
        debug_assert_eq!(
            self.body as usize, ENVELOPE_HEADER_BYTES,
            "views of parsed frames only"
        );
        const SLOTS_OFFSET: usize = ENVELOPE_HEADER_BYTES + DATA_SLOTS;
        let slot_count = self.short_slots as usize + self.medium_groups as usize;
        let mut size = SLOTS_OFFSET;
        for i in 0..slot_count {
            if residual & (1 << i) != 0 {
                size += self.slot_key_width(i) + 4;
            }
        }
        let mut buf = BytesMut::with_capacity(size);
        buf.put_u32(0); // checksum placeholder
        buf.put_slice(&self.bytes[4..ENVELOPE_HEADER_BYTES + DATA_BITMAP]);
        buf.put_u128(residual);
        let mut offset = SLOTS_OFFSET;
        for i in 0..slot_count {
            if self.bitmap & (1 << i) == 0 {
                continue;
            }
            let w = self.slot_key_width(i) + 4;
            if residual & (1 << i) != 0 {
                buf.put_slice(&self.bytes[offset..offset + w]);
            }
            offset += w;
        }
        let sum = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&sum.to_be_bytes());
        buf.freeze()
    }
}

impl<'a> Iterator for SlotViews<'a> {
    type Item = SlotView<'a>;

    fn next(&mut self) -> Option<SlotView<'a>> {
        let v = self.view;
        let slot_count = v.short_slots as usize + v.medium_groups as usize;
        while self.index < slot_count {
            let i = self.index;
            self.index += 1;
            if v.bitmap & (1 << i) == 0 {
                continue;
            }
            let width = v.slot_key_width(i);
            let padded = &v.bytes[self.offset..self.offset + width];
            let value = rd_u32(&v.bytes, self.offset + width);
            self.offset += width + 4;
            let key_len = padded.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1);
            return Some(SlotView {
                index: i,
                padded,
                key_len,
                value,
            });
        }
        None
    }
}

impl SlotView<'_> {
    /// Logical slot index in the packet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The key bytes zero-padded to the slot width, exactly as on the wire.
    pub fn padded(&self) -> &[u8] {
        self.padded
    }

    /// Length of the key without padding.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The key bytes without padding — exactly [`Key::as_bytes`] of the
    /// materialized key.
    pub fn key_bytes(&self) -> &'_ [u8] {
        &self.padded[..self.key_len]
    }

    /// The slot's value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The key's stable 64-bit hash — identical to
    /// [`Key::hash64`] of the materialized key, computed without building
    /// a `Key`.
    pub fn hash64(&self) -> u64 {
        fnv1a(&self.padded[..self.key_len])
    }

    /// Packed `kPart` segment `j`, read straight from the padded wire
    /// bytes — identical to [`Key::segment`] of the materialized key.
    pub fn segment(&self, j: usize) -> u32 {
        rd_u32(self.padded, j * KPART_BYTES)
    }

    /// Materializes the key (the owning decoders and tests).
    pub fn key(&self) -> Key {
        Key::from_validated_slice(&self.padded[..self.key_len])
    }
}

impl<'a> Iterator for EntryViews<'a> {
    type Item = EntryView<'a>;

    fn next(&mut self) -> Option<EntryView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let b = self.bytes;
        let len = u16::from_be_bytes([b[self.offset], b[self.offset + 1]]) as usize;
        let at = self.offset + 2;
        let key = &b[at..at + len];
        let value = rd_u32(b, at + len);
        self.offset = at + len + 4;
        Some(EntryView { key, at, value })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for EntryViews<'_> {}

impl<'a> EntryView<'a> {
    /// The entry's key bytes, exactly as on the wire (no padding).
    pub fn key_bytes(&self) -> &'a [u8] {
        self.key
    }

    /// The entry's value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The key's stable 64-bit hash — identical to [`Key::hash64`] of the
    /// materialized key.
    pub fn hash64(&self) -> u64 {
        fnv1a(self.key)
    }

    /// Materializes the key (the owning decoders and tests).
    pub fn key(&self) -> Key {
        Key::from_validated_slice(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode_envelope_parts};

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn sample_data(layout: &PacketLayout) -> AskPacket {
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[2] = Some(kv("wxyz", 1));
        if layout.medium_groups() > 0 {
            slots[layout.short_slots()] = Some(kv("mediumk", 42));
        }
        AskPacket::Data(DataPacket {
            task: TaskId(5),
            channel: ChannelId(2),
            seq: SeqNo(99),
            slots,
        })
    }

    #[test]
    fn view_reads_every_data_field() {
        let layout = PacketLayout::paper_default();
        let pkt = sample_data(&layout);
        let bytes = encode_envelope_parts(3, 9, 4, 0, &pkt, &layout);
        let view = FrameView::parse(bytes).unwrap();
        assert_eq!((view.src(), view.dst(), view.epoch(), view.flags()), (3, 9, 4, 0));
        let PacketView::Data(d) = view.packet() else {
            panic!("expected data view");
        };
        let AskPacket::Data(ref p) = pkt else {
            unreachable!()
        };
        assert_eq!(d.task(), p.task);
        assert_eq!(d.channel(), p.channel);
        assert_eq!(d.seq(), p.seq);
        assert_eq!(d.bitmap(), p.bitmap());
        assert!(d.matches_layout(&layout));
        let got: Vec<(usize, Key, u32)> =
            d.slots().map(|s| (s.index(), s.key(), s.value())).collect();
        let want: Vec<(usize, Key, u32)> = p
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i, t.key.clone(), t.value)))
            .collect();
        assert_eq!(got, want);
        for s in d.slots() {
            assert_eq!(s.hash64(), s.key().hash64());
            for j in 0..s.padded().len() / KPART_BYTES {
                assert_eq!(s.segment(j), s.key().segment(j));
            }
        }
        assert_eq!(view.materialize().packet, pkt);
    }

    #[test]
    fn residual_frame_matches_scalar_reencode() {
        let layout = PacketLayout::paper_default();
        let pkt = sample_data(&layout);
        let bytes = encode_envelope_parts(1, 2, 7, 0, &pkt, &layout);
        let view = FrameView::parse(bytes).unwrap();
        let PacketView::Data(d) = view.into_packet() else {
            panic!("expected data view");
        };
        let AskPacket::Data(p) = pkt else {
            unreachable!()
        };
        // Drop slot 0, keep the rest — the same bytes as materializing,
        // clearing the slot, and re-encoding.
        let residual = p.bitmap() & !1u128;
        let mut rewritten = p.clone();
        rewritten.slots[0] = None;
        let want = encode_envelope_parts(1, 2, 7, 0, &AskPacket::Data(rewritten), &layout);
        assert_eq!(d.residual_frame(residual), want);
        // Keeping everything reproduces the original frame.
        assert_eq!(d.residual_frame(p.bitmap()), encode_envelope_parts(
            1, 2, 7, 0, &AskPacket::Data(p), &layout
        ));
    }

    #[test]
    fn nondata_kinds_agree_with_decode() {
        let layout = PacketLayout::paper_default();
        let packets = vec![
            AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: vec![kv("a-very-long-key-beyond-eight", 5)],
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
                entries: std::sync::Arc::new(vec![kv("x", 1)]),
            },
            AskPacket::Control(ControlMsg::EpochNotify { epoch: 42 }),
        ];
        for p in packets {
            let bytes = encode_envelope_parts(1, 0, 0, 0, &p, &layout);
            let view = FrameView::parse(bytes.clone()).unwrap();
            assert_eq!(view.materialize(), Envelope::new(1, 0, p.clone()));
            // The bare-body decoder runs the same walk from offset 0.
            assert_eq!(decode(bytes.slice(ENVELOPE_HEADER_BYTES..)).unwrap(), p);
        }
    }

    #[test]
    fn entry_views_match_materialized_entries() {
        let layout = PacketLayout::paper_default();
        let entries = vec![
            kv("a", 1),
            kv("a-very-long-key-beyond-the-inline-cap-entirely", 7),
            kv("mid", u32::MAX),
        ];
        let packets = vec![
            AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: entries.clone(),
            },
            AskPacket::FetchReply {
                task: TaskId(4),
                fetch_seq: 5,
                entries: std::sync::Arc::new(entries.clone()),
            },
        ];
        for p in packets {
            let bytes = encode_envelope_parts(1, 0, 0, 0, &p, &layout);
            let view = FrameView::parse(bytes).unwrap();
            let it = view.entries().expect("entry-bearing packet");
            assert_eq!(it.len(), entries.len());
            for (e, want) in it.zip(entries.iter()) {
                assert_eq!(e.key_bytes(), want.key.as_bytes());
                assert_eq!(e.value(), want.value);
                assert_eq!(e.hash64(), want.key.hash64());
                assert_eq!(e.key(), want.key);
            }
        }
        // Entry-less kinds expose no iterator.
        let ack = AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(2),
            ece: false,
        };
        let bytes = encode_envelope_parts(1, 0, 0, 0, &ack, &layout);
        assert!(FrameView::parse(bytes).unwrap().entries().is_none());
    }

    #[test]
    fn corrupt_and_truncated_frames_are_rejected() {
        let layout = PacketLayout::paper_default();
        let pkt = sample_data(&layout);
        let bytes = encode_envelope_parts(1, 2, 0, 0, &pkt, &layout);
        for cut in 0..bytes.len() {
            let want = if cut < ENVELOPE_HEADER_BYTES {
                CodecError::Truncated
            } else {
                CodecError::ChecksumMismatch
            };
            let got = FrameView::parse(bytes.slice(0..cut)).err();
            assert_eq!(got, Some(want), "cut at {cut}");
        }
        for byte_ix in 0..bytes.len() {
            let mut v = bytes.to_vec();
            v[byte_ix] ^= 0x40;
            let got = FrameView::parse(Bytes::from(v)).err();
            assert_eq!(got, Some(CodecError::ChecksumMismatch), "flip at {byte_ix}");
        }
        // Past the checksum, the body walk still catches a frame whose
        // declared layout lies about its length.
        let body = encode_envelope_parts(1, 2, 0, 0, &pkt, &layout).slice(ENVELOPE_HEADER_BYTES..);
        for cut in 0..body.len() {
            assert_eq!(
                decode(body.slice(0..cut)),
                Err(CodecError::Truncated),
                "body cut at {cut}"
            );
        }
    }
}
