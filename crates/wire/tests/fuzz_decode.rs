//! Fuzz corpus for the wire format's one parser.
//!
//! Every packet kind is encoded under several layouts, then attacked with
//! systematic truncation and single-bit flips; finally the parser eats
//! seeded random byte soup. The contract under test: every encoder-produced
//! frame round-trips; a hostile or mangled buffer produces
//! `Err(CodecError)` (or, for raw bit flips that land on value bytes, a
//! different valid packet) — never a panic, and never an `Ok` from a
//! corrupted envelope, whose CRC must catch every flip.

use ask_wire::codec::{
    crc32, decode, decode_envelope, encode, encode_envelope, CodecError, Envelope,
    ENVELOPE_HEADER_BYTES,
};
use ask_wire::key::Key;
use ask_wire::packet::{
    AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
    PacketLayout, SeqNo, TaskId,
};
use ask_wire::view::{FrameView, PacketView};
use bytes::Bytes;
use std::sync::Arc;

/// Every read a receiver can make of a parsed frame agrees with the
/// envelope that was encoded: the addressing fields, the data header and
/// each `(key, value)` slot read straight off the wire bytes, every entry
/// of a long-kv or fetch-reply body, and the materialized envelope.
fn assert_view_reads(view: &FrameView, env: &Envelope) {
    assert_eq!(view.src(), env.src);
    assert_eq!(view.dst(), env.dst);
    assert_eq!(view.epoch(), env.epoch);
    assert_eq!(view.flags(), env.flags);
    match (view.packet(), &env.packet) {
        (PacketView::Data(d), AskPacket::Data(p)) => {
            assert_eq!(d.task(), p.task);
            assert_eq!(d.channel(), p.channel);
            assert_eq!(d.seq(), p.seq);
            assert_eq!(d.bitmap(), p.bitmap());
            assert_eq!(d.occupied(), p.occupied());
            let mut seen = 0usize;
            for slot in d.slots() {
                let tuple = p.slots[slot.index()]
                    .as_ref()
                    .expect("view yields only occupied slots");
                assert_eq!(slot.key(), tuple.key, "slot {} key", slot.index());
                assert_eq!(slot.key_bytes(), tuple.key.as_bytes());
                assert_eq!(slot.hash64(), tuple.key.hash64());
                assert_eq!(slot.value(), tuple.value, "slot {} value", slot.index());
                seen += 1;
            }
            assert_eq!(seen, p.occupied(), "view must visit every occupied slot");
        }
        (_, AskPacket::LongKv { entries, .. }) => {
            let got: Vec<KvTuple> = view
                .entries()
                .expect("long-kv bodies carry entries")
                .map(|e| KvTuple::new(e.key(), e.value()))
                .collect();
            assert_eq!(&got, entries);
        }
        (_, AskPacket::FetchReply { entries, .. }) => {
            let got: Vec<KvTuple> = view
                .entries()
                .expect("fetch replies carry entries")
                .map(|e| KvTuple::new(e.key(), e.value()))
                .collect();
            assert_eq!(&got, entries.as_ref());
        }
        _ => assert!(view.entries().is_none()),
    }
    assert_eq!(&view.materialize(), env, "materialized view diverges");
}

/// Tiny deterministic PRNG (splitmix64) so the corpus needs no rand dep.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn layouts() -> Vec<PacketLayout> {
    vec![
        PacketLayout::paper_default(),
        PacketLayout::custom(4, 2, 2),
        PacketLayout::custom(2, 2, 3),
        PacketLayout::custom(1, 0, 2),
    ]
}

fn tuple(key: &str, value: u32) -> KvTuple {
    KvTuple::new(Key::from_str(key).unwrap(), value)
}

/// Every packet kind, with empty/sparse/full payload variants.
fn corpus(layout: &PacketLayout) -> Vec<AskPacket> {
    let slots = layout.slot_count();
    let full: Vec<Option<KvTuple>> = (0..slots)
        .map(|i| Some(tuple(&format!("k{i}"), i as u32 + 1)))
        .collect();
    let sparse: Vec<Option<KvTuple>> = (0..slots)
        .map(|i| (i % 2 == 0).then(|| tuple(&format!("s{i}"), 7)))
        .collect();
    let empty: Vec<Option<KvTuple>> = vec![None; slots];
    let data = |slots: Vec<Option<KvTuple>>| {
        AskPacket::Data(DataPacket {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(u64::MAX - 1),
            slots,
        })
    };
    vec![
        data(full),
        data(sparse),
        data(empty),
        AskPacket::LongKv {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(0),
            entries: vec![tuple("a-very-long-key-indeed", 9), tuple("another-one", 1)],
        },
        AskPacket::LongKv {
            task: TaskId(3),
            channel: ChannelId(0),
            seq: SeqNo(5),
            entries: vec![],
        },
        AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(42),
            ece: true,
        },
        AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(43),
            ece: false,
        },
        AskPacket::Fin {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(1000),
        },
        AskPacket::Swap { task: TaskId(3) },
        AskPacket::FetchRequest {
            task: TaskId(3),
            scope: FetchScope::Inactive,
            fetch_seq: 1,
        },
        AskPacket::FetchRequest {
            task: TaskId(3),
            scope: FetchScope::All,
            fetch_seq: 2,
        },
        AskPacket::FetchReply {
            task: TaskId(3),
            fetch_seq: 2,
            entries: Arc::new(vec![tuple("fetched", 77)]),
        },
        AskPacket::Control(ControlMsg::RegionRequest {
            task: TaskId(3),
            op: AggregateOp::Max,
        }),
        AskPacket::Control(ControlMsg::RegionGrant {
            task: TaskId(3),
            region: AaRegion {
                base: 64,
                aggregators: 32,
            },
        }),
        AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(3) }),
        AskPacket::Control(ControlMsg::RegionRelease { task: TaskId(3) }),
        AskPacket::Control(ControlMsg::TaskAnnounce {
            task: TaskId(3),
            receiver: 5,
        }),
    ]
}

#[test]
fn every_truncation_of_every_packet_is_an_error_not_a_panic() {
    for layout in layouts() {
        for packet in corpus(&layout) {
            let bytes = encode(&packet, &layout);
            assert_eq!(decode(bytes.clone()), Ok(packet.clone()), "{packet}");
            for cut in 0..bytes.len() {
                let truncated = bytes.slice(..cut);
                assert!(
                    decode(truncated).is_err(),
                    "truncating {packet} to {cut} of {} bytes must fail",
                    bytes.len(),
                );
            }
        }
    }
}

#[test]
fn every_envelope_truncation_is_an_error() {
    let layout = PacketLayout::paper_default();
    for packet in corpus(&layout) {
        let env = Envelope::new(2, 7, packet);
        let bytes = encode_envelope(&env, &layout);
        assert_eq!(decode_envelope(bytes.clone()), Ok(env));
        for cut in 0..bytes.len() {
            let err = FrameView::parse(bytes.slice(..cut)).expect_err("truncated frame");
            if cut < ENVELOPE_HEADER_BYTES {
                assert_eq!(err, CodecError::Truncated, "cut at {cut}");
            }
        }
    }
}

#[test]
fn every_single_bit_flip_in_an_envelope_is_caught_by_the_crc() {
    let layout = PacketLayout::custom(4, 2, 2);
    for packet in corpus(&layout) {
        let bytes = encode_envelope(&Envelope::new(2, 7, packet.clone()), &layout);
        for byte_ix in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte_ix] ^= 1 << bit;
                assert_eq!(
                    FrameView::parse(Bytes::from(flipped)).err(),
                    Some(CodecError::ChecksumMismatch),
                    "flipping bit {bit} of byte {byte_ix} in {packet} must be rejected",
                );
            }
        }
    }
}

#[test]
fn view_accessors_agree_with_decode_on_every_valid_frame() {
    for layout in layouts() {
        for packet in corpus(&layout) {
            let mut env = Envelope::new(2, 7, packet);
            env.epoch = 3;
            let bytes = encode_envelope(&env, &layout);
            let view = FrameView::parse(bytes.clone()).expect("encoder output parses");
            assert_view_reads(&view, &env);
            assert_eq!(decode_envelope(bytes), Ok(env));
        }
    }
}

#[test]
fn raw_decode_survives_single_bit_flips() {
    // Without the envelope CRC a flipped value byte may legitimately decode
    // to a different valid packet; the contract is only "no panic, and
    // errors are typed".
    let layout = PacketLayout::paper_default();
    for packet in corpus(&layout) {
        let bytes = encode(&packet, &layout);
        for byte_ix in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte_ix] ^= 1 << bit;
                match decode(Bytes::from(flipped)) {
                    Ok(_) => {}
                    Err(
                        CodecError::Truncated
                        | CodecError::ChecksumMismatch
                        | CodecError::BadKind(_)
                        | CodecError::BadControlKind(_)
                        | CodecError::BadKey(_)
                        | CodecError::TrailingBytes(_)
                        | CodecError::BadLayout,
                    ) => {}
                }
            }
        }
    }
}

#[test]
fn random_byte_soup_never_panics_either_decoder() {
    let mut rng = Mix(0xF00D);
    for case in 0..4000 {
        let len = (rng.next() % 192) as usize;
        let mut buf = Vec::with_capacity(len);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next().to_le_bytes());
        }
        buf.truncate(len);
        // Bias some cases toward plausible kind bytes so the fuzz reaches
        // deep into each variant's field parsing instead of bouncing off
        // BadKind immediately.
        if case % 2 == 0 && !buf.is_empty() {
            buf[0] = (rng.next() % 12) as u8;
        }
        let _ = decode(Bytes::from(buf.clone()));
        // Wrap the same soup in an envelope with a valid checksum, so the
        // parser's body walk sees it instead of stopping at the CRC.
        let mut frame = vec![0u8; ENVELOPE_HEADER_BYTES];
        frame[4..12].copy_from_slice(&rng.next().to_le_bytes()); // src, dst
        frame.extend_from_slice(&buf);
        let sum = crc32(&frame[4..]);
        frame[..4].copy_from_slice(&sum.to_be_bytes());
        for bytes in [Bytes::from(buf), Bytes::from(frame)] {
            // Whatever the parser accepts must be fully readable.
            if let Ok(view) = FrameView::parse(bytes) {
                let env = view.materialize();
                assert_view_reads(&view, &env);
            }
        }
    }
}
