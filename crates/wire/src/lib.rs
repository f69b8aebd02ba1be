//! # ask-wire — ASK's packet formats and codecs
//!
//! The on-the-wire vocabulary of the ASK protocol: [`key::Key`]s with their
//! short/medium/long classification (§3.2.3 of the paper), the slotted
//! [`packet::DataPacket`] whose bitmap the switch rewrites as it consumes
//! tuples (Figure 5), control-plane messages for task setup and switch
//! memory management, a compact binary [`codec`], and the sender's
//! [`builder::FrameBuilder`], which writes data and long-kv frames straight
//! from borrowed tuples.
//!
//! Size accounting follows the paper's §5.3 model: every packet costs
//! [`constants::PACKET_OVERHEAD`] = 78 bytes of framing/headers plus its
//! nominal payload, so goodput math in the benchmarks reproduces
//! Figure 8(a)'s `8x / (8x + 78)` curve exactly.
//!
//! ```
//! use ask_wire::prelude::*;
//!
//! let layout = PacketLayout::paper_default();
//! let mut slots = vec![None; layout.slot_count()];
//! slots[0] = Some(KvTuple::new(Key::from_str("cat")?, 2));
//! let pkt = AskPacket::Data(DataPacket {
//!     task: TaskId(1), channel: ChannelId(0), seq: SeqNo(0), slots,
//! });
//! let bytes = encode(&pkt, &layout);
//! assert_eq!(decode(bytes)?, pkt);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod codec;
pub mod constants;
pub mod key;
pub mod packet;
pub mod view;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::builder::{BuildError, BuiltFrame, FrameBuilder};
    pub use crate::codec::{
        crc32, decode, decode_envelope, encode, encode_envelope, CodecError, Envelope,
    };
    pub use crate::constants::PACKET_OVERHEAD;
    pub use crate::key::{Key, KeyClass, KeyError};
    pub use crate::packet::{
        AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
        PacketLayout, SeqNo, TaskId,
    };
    pub use crate::view::{DataPacketView, FrameView, PacketView, SlotView};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = Key> {
        proptest::collection::vec(1u8..=255, 1..20)
            .prop_map(|v| Key::new(Bytes::from(v)).expect("no NUL, non-empty"))
    }

    fn arb_short_key() -> impl Strategy<Value = Key> {
        proptest::collection::vec(1u8..=255, 1..=4)
            .prop_map(|v| Key::new(Bytes::from(v)).expect("no NUL, non-empty"))
    }

    proptest! {
        /// Any data packet round-trips through the codec.
        #[test]
        fn data_roundtrip(
            task in any::<u32>(),
            channel in any::<u32>(),
            seq in any::<u64>(),
            present in proptest::collection::vec(proptest::option::of((arb_short_key(), any::<u32>())), 1..=16),
        ) {
            let layout = PacketLayout::short_only(present.len());
            let slots: Vec<Option<KvTuple>> = present
                .into_iter()
                .map(|o| o.map(|(k, v)| KvTuple::new(k, v)))
                .collect();
            let p = AskPacket::Data(DataPacket {
                task: TaskId(task),
                channel: ChannelId(channel),
                seq: SeqNo(seq),
                slots,
            });
            let bytes = encode(&p, &layout);
            prop_assert!(bytes.len() <= p.wire_bytes(&layout));
            prop_assert_eq!(decode(bytes).unwrap(), p);
        }

        /// Long-kv packets round-trip for arbitrary key lengths.
        #[test]
        fn long_kv_roundtrip(
            entries in proptest::collection::vec((arb_key(), any::<u32>()), 0..20),
        ) {
            let layout = PacketLayout::paper_default();
            let p = AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: entries.into_iter().map(|(k, v)| KvTuple::new(k, v)).collect(),
            };
            let bytes = encode(&p, &layout);
            prop_assert_eq!(decode(bytes).unwrap(), p);
        }

        /// Data packets round-trip across the paper-default, short-only,
        /// and fully custom layouts (mixed short/medium slots).
        #[test]
        fn data_roundtrip_across_layouts(
            pick in 0u8..3,
            short in 1usize..=32,
            groups in 1usize..=4,
            segments in 2usize..=4,
            task in any::<u32>(),
            channel in any::<u32>(),
            seq in any::<u64>(),
            raw in proptest::collection::vec(
                proptest::option::of((
                    proptest::collection::vec(1u8..=255, 1..=16),
                    any::<u32>(),
                )),
                1..=40,
            ),
        ) {
            let layout = match pick {
                0 => PacketLayout::paper_default(),
                1 => PacketLayout::short_only(short),
                _ => PacketLayout::custom(short.min(8), groups, segments),
            };
            let n = layout.slot_count();
            let mut raw = raw;
            raw.resize(n, None);
            raw.truncate(n);
            let slots: Vec<Option<KvTuple>> = raw
                .into_iter()
                .enumerate()
                .map(|(i, o)| {
                    o.map(|(mut k, v)| {
                        // Clamp the key to what the slot class can carry.
                        let max = if layout.is_short_slot(i) {
                            4
                        } else {
                            layout.medium_max_key_len()
                        };
                        k.truncate(max);
                        KvTuple::new(Key::new(Bytes::from(k)).expect("no NUL, non-empty"), v)
                    })
                })
                .collect();
            let p = AskPacket::Data(DataPacket {
                task: TaskId(task),
                channel: ChannelId(channel),
                seq: SeqNo(seq),
                slots,
            });
            let bytes = encode(&p, &layout);
            prop_assert_eq!(decode(bytes).unwrap(), p);
        }

        /// Decoding arbitrary garbage never panics.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode(Bytes::from(bytes));
        }

        /// Key segmentation round-trips for every valid key.
        #[test]
        fn key_segments_roundtrip(key in arb_key()) {
            let segs: Vec<u32> = (0..key.segments()).map(|i| key.segment(i)).collect();
            prop_assert_eq!(Key::from_segments(&segs).unwrap(), key);
        }
    }
}
