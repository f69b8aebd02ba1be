//! Direct frame writing — the mirror of [`FrameView`](crate::view::FrameView).
//!
//! A [`FrameBuilder`] writes a data or long-kv frame straight into its
//! final buffer in one pass: envelope header, body header, occupancy
//! bitmap, zero-padded slots (or length-prefixed entries), then the CRC.
//! The sender never builds an [`AskPacket`](crate::packet::AskPacket) for
//! these frames; the tuples are borrowed from wherever the caller keeps
//! them. Output is byte-identical to
//! [`encode_envelope_parts`](crate::codec::encode_envelope_parts) over the
//! equivalent packet.
//!
//! Where that encoder panics on a key wider than its slot, the builder
//! checks every bound before it allocates and returns a [`BuildError`]:
//! a frame it emits always parses.

use crate::codec::{crc32, ENVELOPE_HEADER_BYTES, KIND_DATA, KIND_LONG_KV};
use crate::constants::PACKET_OVERHEAD;
use crate::key::{KPART_BYTES, MAX_KEY_LEN};
use crate::packet::{ChannelId, KvTuple, PacketLayout, SeqNo, TaskId};
use crate::view::{DATA_BITMAP, DATA_SLOTS};
use bytes::Bytes;
use core::fmt;

/// Offset of the envelope flags byte (the last header byte).
const FLAGS_AT: usize = ENVELOPE_HEADER_BYTES - 1;

/// Offset of the entry list within a long-kv body: kind byte and
/// task/channel/seq.
const LONG_ENTRIES: usize = 1 + 4 + 4 + 8;

/// Why a frame could not be built. Nothing is emitted on error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// A key is longer than its slot's key field, or than a long-kv
    /// entry's 16-bit length field.
    KeyTooLong {
        /// The key's length in bytes.
        len: usize,
        /// The most the field can carry.
        max: usize,
    },
    /// A slot index outside the layout, or not after the previous slot.
    BadSlot(usize),
    /// More entries than a long-kv frame's 32-bit count field holds.
    TooManyEntries(usize),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::KeyTooLong { len, max } => {
                write!(f, "key of {len} bytes exceeds its {max}-byte field")
            }
            BuildError::BadSlot(i) => write!(f, "slot {i} is out of range or out of order"),
            BuildError::TooManyEntries(n) => write!(f, "{n} entries exceed the count field"),
        }
    }
}

impl std::error::Error for BuildError {}

/// An encoded frame and its nominal size.
#[derive(Debug, Clone)]
pub struct BuiltFrame {
    /// The envelope exactly as it goes on the wire.
    pub bytes: Bytes,
    /// Nominal wire bytes (§5.3 accounting): what
    /// [`AskPacket::wire_bytes`](crate::packet::AskPacket::wire_bytes)
    /// reports for the same packet.
    pub wire: usize,
}

/// Writes data and long-kv frames from one source to one destination
/// under a fixed epoch and slot layout.
#[derive(Debug, Clone, Copy)]
pub struct FrameBuilder {
    src: u32,
    dst: u32,
    epoch: u32,
    layout: PacketLayout,
}

impl FrameBuilder {
    /// A builder for frames `src → dst` stamped with `epoch`; `layout`
    /// governs data-frame slot widths.
    pub fn new(src: u32, dst: u32, epoch: u32, layout: PacketLayout) -> Self {
        FrameBuilder {
            src,
            dst,
            epoch,
            layout,
        }
    }

    fn key_width(&self, slot: usize) -> usize {
        if self.layout.is_short_slot(slot) {
            KPART_BYTES
        } else {
            self.layout.medium_max_key_len()
        }
    }

    /// A zeroed buffer of `len` bytes with the envelope header written
    /// (checksum left for [`seal`]).
    fn start(&self, len: usize, flags: u8) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        buf[4..8].copy_from_slice(&self.src.to_be_bytes());
        buf[8..12].copy_from_slice(&self.dst.to_be_bytes());
        buf[12..16].copy_from_slice(&self.epoch.to_be_bytes());
        buf[FLAGS_AT] = flags;
        buf
    }

    /// Builds a data frame carrying `slots`: `(slot index, tuple)` pairs in
    /// increasing slot order. Each key is written zero-padded to its slot's
    /// width, so blank slots cost nothing and the bitmap is derived from
    /// the indices.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadSlot`] for an index outside the layout or not
    /// after its predecessor, [`BuildError::KeyTooLong`] for a key wider
    /// than its slot.
    pub fn data<'a, I>(
        &self,
        flags: u8,
        task: TaskId,
        channel: ChannelId,
        seq: SeqNo,
        slots: I,
    ) -> Result<BuiltFrame, BuildError>
    where
        I: IntoIterator<Item = (usize, &'a KvTuple)>,
        I::IntoIter: Clone,
    {
        let slots = slots.into_iter();
        let slot_count = self.layout.slot_count();
        let mut bitmap = 0u128;
        let mut payload = 0;
        let mut next = 0;
        for (i, t) in slots.clone() {
            if i < next || i >= slot_count {
                return Err(BuildError::BadSlot(i));
            }
            let width = self.key_width(i);
            if t.key.len() > width {
                return Err(BuildError::KeyTooLong {
                    len: t.key.len(),
                    max: width,
                });
            }
            bitmap |= 1 << i;
            payload += width + 4;
            next = i + 1;
        }
        let body = ENVELOPE_HEADER_BYTES;
        let mut buf = self.start(body + DATA_SLOTS + payload, flags);
        buf[body] = KIND_DATA;
        buf[body + 1..body + 5].copy_from_slice(&task.0.to_be_bytes());
        buf[body + 5..body + 9].copy_from_slice(&channel.0.to_be_bytes());
        buf[body + 9..body + 17].copy_from_slice(&seq.0.to_be_bytes());
        buf[body + 17] = self.layout.short_slots() as u8;
        buf[body + 18] = self.layout.medium_groups() as u8;
        buf[body + 19] = self.layout.medium_segments() as u8;
        buf[body + DATA_BITMAP..body + DATA_SLOTS].copy_from_slice(&bitmap.to_be_bytes());
        let mut at = body + DATA_SLOTS;
        for (i, t) in slots {
            let width = self.key_width(i);
            let key = t.key.as_bytes();
            buf[at..at + key.len()].copy_from_slice(key);
            buf[at + width..at + width + 4].copy_from_slice(&t.value.to_be_bytes());
            at += width + 4;
        }
        Ok(BuiltFrame {
            bytes: seal(buf),
            wire: PACKET_OVERHEAD + payload,
        })
    }

    /// Builds a long-kv bypass frame carrying `entries` in order. Long-kv
    /// frames are never aggregated, so they carry no envelope flags.
    ///
    /// # Errors
    ///
    /// [`BuildError::KeyTooLong`] for a key over [`MAX_KEY_LEN`] bytes,
    /// [`BuildError::TooManyEntries`] past `u32::MAX` entries.
    pub fn long_kv<'a, I>(
        &self,
        task: TaskId,
        channel: ChannelId,
        seq: SeqNo,
        entries: I,
    ) -> Result<BuiltFrame, BuildError>
    where
        I: IntoIterator<Item = &'a KvTuple>,
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        let mut count = 0usize;
        let mut payload = 0;
        for t in entries.clone() {
            if t.key.len() > MAX_KEY_LEN {
                return Err(BuildError::KeyTooLong {
                    len: t.key.len(),
                    max: MAX_KEY_LEN,
                });
            }
            payload += 2 + t.key.len() + 4;
            count += 1;
        }
        let count32 = u32::try_from(count).map_err(|_| BuildError::TooManyEntries(count))?;
        let body = ENVELOPE_HEADER_BYTES;
        let mut buf = self.start(body + LONG_ENTRIES + 4 + payload, 0);
        buf[body] = KIND_LONG_KV;
        buf[body + 1..body + 5].copy_from_slice(&task.0.to_be_bytes());
        buf[body + 5..body + 9].copy_from_slice(&channel.0.to_be_bytes());
        buf[body + 9..body + 17].copy_from_slice(&seq.0.to_be_bytes());
        let mut at = body + LONG_ENTRIES;
        buf[at..at + 4].copy_from_slice(&count32.to_be_bytes());
        at += 4;
        for t in entries {
            let key = t.key.as_bytes();
            // In range: every key was checked against MAX_KEY_LEN above.
            buf[at..at + 2].copy_from_slice(&(key.len() as u16).to_be_bytes());
            at += 2;
            buf[at..at + key.len()].copy_from_slice(key);
            at += key.len();
            buf[at..at + 4].copy_from_slice(&t.value.to_be_bytes());
            at += 4;
        }
        Ok(BuiltFrame {
            bytes: seal(buf),
            wire: PACKET_OVERHEAD + payload,
        })
    }
}

/// Writes the checksum over everything after it and freezes the frame.
fn seal(mut buf: Vec<u8>) -> Bytes {
    let sum = crc32(&buf[4..]);
    buf[0..4].copy_from_slice(&sum.to_be_bytes());
    Bytes::from(buf)
}

/// A copy of `frame` with its envelope flags replaced by `flags` and the
/// checksum recomputed — a sender's escalation of an in-flight data frame
/// to no-aggregate pass-through, equal byte for byte to re-encoding the
/// packet with the new flags.
///
/// # Panics
///
/// Panics if `frame` is shorter than an envelope header.
pub fn with_flags(frame: &[u8], flags: u8) -> Bytes {
    assert!(
        frame.len() >= ENVELOPE_HEADER_BYTES,
        "frame shorter than its envelope header"
    );
    let mut buf = frame.to_vec();
    buf[FLAGS_AT] = flags;
    seal(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_envelope_parts, FLAG_NO_AGGREGATE};
    use crate::key::Key;
    use crate::packet::{AskPacket, DataPacket};
    use crate::view::FrameView;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn builder() -> FrameBuilder {
        FrameBuilder::new(3, 9, 2, PacketLayout::paper_default())
    }

    #[test]
    fn data_frame_matches_the_packet_encoder() {
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[15] = Some(kv("wxyz", 1));
        slots[16] = Some(kv("mediumk", 42));
        slots[23] = Some(kv("abcdefgh", 9));
        let pkt = AskPacket::Data(DataPacket {
            task: TaskId(5),
            channel: ChannelId(2),
            seq: SeqNo(99),
            slots: slots.clone(),
        });
        let pairs = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i, t)));
        for flags in [0, FLAG_NO_AGGREGATE] {
            let built = builder()
                .data(flags, TaskId(5), ChannelId(2), SeqNo(99), pairs.clone())
                .unwrap();
            assert_eq!(
                built.bytes,
                encode_envelope_parts(3, 9, 2, flags, &pkt, &layout)
            );
            assert_eq!(built.wire, pkt.wire_bytes(&layout));
        }
    }

    #[test]
    fn long_kv_frame_matches_the_packet_encoder() {
        let layout = PacketLayout::paper_default();
        let entries = vec![kv("a-very-long-key-beyond-eight", 5), kv("another1234", 6)];
        let pkt = AskPacket::LongKv {
            task: TaskId(1),
            channel: ChannelId(1),
            seq: SeqNo(12),
            entries: entries.clone(),
        };
        let built = builder()
            .long_kv(TaskId(1), ChannelId(1), SeqNo(12), &entries)
            .unwrap();
        assert_eq!(
            built.bytes,
            encode_envelope_parts(3, 9, 2, 0, &pkt, &layout)
        );
        assert_eq!(built.wire, pkt.wire_bytes(&layout));
    }

    #[test]
    fn bad_slots_and_wide_keys_are_rejected() {
        let b = builder();
        let (t, c, s) = (TaskId(1), ChannelId(1), SeqNo(0));
        let short = kv("abc", 1);
        let medium = kv("abcdefg", 1);
        assert_eq!(
            b.data(0, t, c, s, [(24, &short)]).unwrap_err(),
            BuildError::BadSlot(24)
        );
        assert_eq!(
            b.data(0, t, c, s, [(3, &short), (3, &short)]).unwrap_err(),
            BuildError::BadSlot(3)
        );
        assert_eq!(
            b.data(0, t, c, s, [(0, &medium)]).unwrap_err(),
            BuildError::KeyTooLong { len: 7, max: 4 }
        );
        assert!(b.data(0, t, c, s, [(16, &medium)]).is_ok());
    }

    #[test]
    fn fail_building_if_a_long_key_exceeds_the_length_field() {
        // `Key` itself refuses such keys; build them past validation to
        // show the builder checks on its own rather than truncating.
        let key = |len: usize| Key::from_validated_slice(&vec![b'k'; len]);
        let (t, c, s) = (TaskId(1), ChannelId(1), SeqNo(0));

        let under = KvTuple::new(key(MAX_KEY_LEN - 1), 1);
        assert!(builder().long_kv(t, c, s, [&under]).is_ok());

        let max = KvTuple::new(key(MAX_KEY_LEN), 7);
        let built = builder().long_kv(t, c, s, [&max]).unwrap();
        let view = FrameView::parse(built.bytes).expect("a 65,535-byte key parses");
        let entry = view.entries().unwrap().next().unwrap();
        assert_eq!((entry.key_bytes().len(), entry.value()), (MAX_KEY_LEN, 7));

        for len in [MAX_KEY_LEN + 1, MAX_KEY_LEN + 2] {
            let over = KvTuple::new(key(len), 1);
            assert_eq!(
                builder().long_kv(t, c, s, [&max, &over]).unwrap_err(),
                BuildError::KeyTooLong {
                    len,
                    max: MAX_KEY_LEN
                }
            );
        }
    }

    #[test]
    fn with_flags_equals_reencoding_with_the_flag() {
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[4] = Some(kv("cat", 3));
        let pkt = AskPacket::Data(DataPacket {
            task: TaskId(1),
            channel: ChannelId(7),
            seq: SeqNo(40),
            slots,
        });
        let plain = encode_envelope_parts(3, 9, 2, 0, &pkt, &layout);
        let patched = with_flags(&plain, FLAG_NO_AGGREGATE);
        assert_eq!(
            patched,
            encode_envelope_parts(3, 9, 2, FLAG_NO_AGGREGATE, &pkt, &layout)
        );
        assert_eq!(
            FrameView::parse(patched).unwrap().flags(),
            FLAG_NO_AGGREGATE
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            BuildError::KeyTooLong { len: 9, max: 8 },
            BuildError::BadSlot(3),
            BuildError::TooManyEntries(1 << 33),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
