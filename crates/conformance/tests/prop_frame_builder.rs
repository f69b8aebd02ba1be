//! Property: the sender's direct-to-wire path — classify a stream once by
//! index, then write each frame with `FrameBuilder` — emits exactly the
//! frames the packet encoder produces over `Packetizer::packetize`: same
//! order (data frames, then long-kv batches), same seqs, same flags, byte
//! for byte, with the same nominal wire size. `packetize` itself must match
//! the per-slot queue model the classifier replaced, and the no-aggregate
//! escalation patch must equal a re-encode with `FLAG_NO_AGGREGATE`.

use ask::host::{PacketizedStream, Packetizer, StreamFrame};
use ask_wire::builder::{with_flags, FrameBuilder};
use ask_wire::codec::{encode_envelope_parts, FLAG_NO_AGGREGATE};
use ask_wire::key::Key;
use ask_wire::packet::{AskPacket, ChannelId, DataPacket, KvTuple, PacketLayout, SeqNo, TaskId};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;

const SRC: u32 = 3;
const DST: u32 = 1;
const EPOCH: u32 = 2;
const TASK: TaskId = TaskId(7);
const CHANNEL: ChannelId = ChannelId(3 * 256 + 1);

fn layout(pick: u8, short: usize, groups: usize, segments: usize) -> PacketLayout {
    match pick {
        0 => PacketLayout::paper_default(),
        1 => PacketLayout::short_only(short),
        _ => PacketLayout::custom(short.min(8), groups, segments),
    }
}

/// Keys drawn from a small pool so slots collide and skew shows up as
/// blank slots: short (1–4 bytes), medium (5–12) and long (13–40).
fn arb_tuple() -> impl Strategy<Value = KvTuple> {
    let key = prop_oneof![
        proptest::collection::vec(1u8..=8, 1..=4),
        proptest::collection::vec(1u8..=8, 5..=12),
        proptest::collection::vec(1u8..=255, 13..=40),
    ];
    (key, any::<u32>()).prop_map(|(k, v)| KvTuple::new(Key::from_slice(&k).expect("no NUL"), v))
}

/// The per-slot FIFO packetizer the index classifier replaced.
fn queue_model(p: &Packetizer, batch: usize, tuples: &[KvTuple]) -> PacketizedStream {
    let mut queues = vec![VecDeque::new(); p.layout().slot_count()];
    let mut long = Vec::new();
    for t in tuples {
        match p.slot_for(t) {
            Some(s) => queues[s].push_back(t.clone()),
            None => long.push(t.clone()),
        }
    }
    let mut out = PacketizedStream::default();
    while queues.iter().any(|q| !q.is_empty()) {
        out.data_payloads
            .push(queues.iter_mut().map(VecDeque::pop_front).collect());
    }
    out.long_batches = long.chunks(batch).map(<[_]>::to_vec).collect();
    out
}

/// `packetize` output as packets, seqs in send order (data, then long-kv).
fn reference_packets(out: PacketizedStream) -> Vec<AskPacket> {
    let mut packets = Vec::with_capacity(out.packet_count());
    for slots in out.data_payloads {
        let seq = SeqNo(packets.len() as u64);
        packets.push(AskPacket::Data(DataPacket {
            task: TASK,
            channel: CHANNEL,
            seq,
            slots,
        }));
    }
    for entries in out.long_batches {
        let seq = SeqNo(packets.len() as u64);
        packets.push(AskPacket::LongKv {
            task: TASK,
            channel: CHANNEL,
            seq,
            entries,
        });
    }
    packets
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn direct_frames_equal_encoded_packetize_output(
        pick in 0u8..3,
        short in 1usize..=32,
        groups in 1usize..=4,
        segments in 2usize..=4,
        batch in 1usize..=16,
        degraded in any::<bool>(),
        tuples in proptest::collection::vec(arb_tuple(), 0..300),
    ) {
        let layout = layout(pick, short, groups, segments);
        let p = Packetizer::new(layout, batch);
        let flags = if degraded { FLAG_NO_AGGREGATE } else { 0 };

        let eager = p.packetize(tuples.clone());
        let model = queue_model(&p, batch, &tuples);
        prop_assert_eq!(&eager.data_payloads, &model.data_payloads);
        prop_assert_eq!(&eager.long_batches, &model.long_batches);

        let packets = reference_packets(eager);
        let builder = FrameBuilder::new(SRC, DST, EPOCH, layout);
        let mut stream = p.classify(Rc::new(tuples));
        let mut seq = 0u64;
        while let Some(frame) = stream.next_frame() {
            let packet = &packets[seq as usize];
            let (built, want_flags) = match frame {
                StreamFrame::Data(slots) => {
                    (builder.data(flags, TASK, CHANNEL, SeqNo(seq), slots), flags)
                }
                StreamFrame::LongKv(entries) => {
                    (builder.long_kv(TASK, CHANNEL, SeqNo(seq), entries), 0)
                }
            };
            let built = built.expect("classified tuples fit their slots");
            let want = encode_envelope_parts(SRC, DST, EPOCH, want_flags, packet, &layout);
            prop_assert_eq!(&built.bytes, &want, "frame {} ({})", seq, packet);
            prop_assert_eq!(built.wire, packet.wire_bytes(&layout));
            if let AskPacket::Data(_) = packet {
                let escalated =
                    encode_envelope_parts(SRC, DST, EPOCH, FLAG_NO_AGGREGATE, packet, &layout);
                prop_assert_eq!(with_flags(&built.bytes, FLAG_NO_AGGREGATE), escalated);
            }
            seq += 1;
        }
        prop_assert_eq!(seq as usize, packets.len(), "same frame count");
    }
}
