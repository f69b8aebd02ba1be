//! Property: the switch engine's burst ingest (`process_batch_views`) is
//! observationally identical to one-at-a-time `process_data` on the
//! materialized packets — same verdicts in the same order, same per-task
//! counters, same pipeline passes, same fetchable switch memory, and
//! residual frames byte-identical to re-encoding the reference's residual
//! packets — for arbitrary channel-interleaved bursts including the
//! duplicates and reorderings a chaotic network produces.

use ask::config::AskConfig;
use ask::switch::aggregator::AggregatorEngine;
use ask::switch::{DataVerdict, ViewVerdict};
use ask_wire::codec::{decode_envelope, encode_envelope_parts};
use ask_wire::key::Key;
use ask_wire::packet::{
    AskPacket, ChannelId, DataPacket, FetchScope, KvTuple, PacketLayout, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use proptest::prelude::*;

const SLOTS: usize = 8;
const TASKS: u32 = 2;

/// One packet's worth of generated `(key, value)` slot fills.
type Fill = Vec<(u64, u32)>;
/// One task's generated traffic: `[channel][packet] -> slot fills`.
type ChannelPackets = Vec<Vec<Fill>>;
/// An in-order per-(task, channel) send queue with its next sequence number.
type SendQueue = (TaskId, ChannelId, u64, std::collections::VecDeque<Fill>);

fn engine() -> AggregatorEngine {
    let mut cfg = AskConfig::paper_default();
    cfg.layout = PacketLayout::short_only(SLOTS);
    cfg.aggregators_per_aa = 16 * TASKS as usize;
    cfg.region_aggregators = 16;
    cfg.max_channels = 8;
    cfg.swap_threshold = 0;
    cfg.absorption_audit = true;
    let mut e = AggregatorEngine::new(cfg);
    for t in 0..TASKS {
        e.register_task(TaskId(t), t).expect("region fits");
    }
    e
}

/// Builds the packet stream: per-(task, channel) in-order sequences, merged
/// by an arbitrary interleaving, with some packets re-injected later as
/// retransmission duplicates.
fn build_stream(
    per_channel: &[ChannelPackets],
    interleave: &[usize],
    dup_from: &[(usize, usize)],
) -> Vec<DataPacket> {
    let mut queues: Vec<SendQueue> = Vec::new();
    for (t, channels) in per_channel.iter().enumerate() {
        for (c, fills) in channels.iter().enumerate() {
            queues.push((
                TaskId(t as u32),
                ChannelId((t * channels.len() + c) as u32),
                0,
                fills.iter().cloned().collect(),
            ));
        }
    }
    let mut out = Vec::new();
    for &pick in interleave {
        let n = queues.len();
        let q = &mut queues[pick % n];
        let Some(fill) = q.3.pop_front() else {
            continue;
        };
        let mut slots = vec![None; SLOTS];
        for &(key, value) in &fill {
            let ix = (key % SLOTS as u64) as usize;
            slots[ix] = Some(KvTuple::new(Key::from_u64(key), value));
        }
        out.push(DataPacket {
            task: q.0,
            channel: q.1,
            seq: SeqNo(q.2),
            slots,
        });
        q.2 += 1;
    }
    // Re-inject earlier packets as duplicates/stale arrivals at arbitrary
    // later positions (a retransmit that raced its ACK).
    for &(src, at) in dup_from {
        if out.is_empty() {
            break;
        }
        let copy = out[src % out.len()].clone();
        let at = at % (out.len() + 1);
        out.insert(at, copy);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batch_ingest_matches_sequential(
        per_channel in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0u64..32, 1u32..100), 0..SLOTS),
                    0..12,
                ),
                1..3, // channels per task
            ),
            TASKS as usize..=TASKS as usize,
        ),
        interleave in proptest::collection::vec(0usize..64, 0..64),
        dup_from in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        burst_sizes in proptest::collection::vec(1usize..9, 1..64),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let stream = build_stream(&per_channel, &interleave, &dup_from);
        let layout = PacketLayout::short_only(SLOTS);
        let frame_of = |p: &DataPacket| {
            encode_envelope_parts(src, dst, 0, 0, &AskPacket::Data(p.clone()), &layout)
        };
        let views: Vec<DataPacketView> = stream
            .iter()
            .map(|p| match FrameView::parse(frame_of(p)).expect("valid").into_packet() {
                PacketView::Data(d) => d,
                _ => unreachable!("data frames parse to data views"),
            })
            .collect();

        // Sequential reference over the materialized packets.
        let mut seq_engine = engine();
        let seq_verdicts: Vec<DataVerdict> =
            stream.iter().cloned().map(|p| seq_engine.process_data(p)).collect();

        // View batches over arbitrary burst boundaries.
        let mut bat_engine = engine();
        let mut bat_verdicts = Vec::new();
        let mut cursor = 0usize;
        let mut sizes = burst_sizes.iter().cycle();
        while cursor < views.len() {
            let n = (*sizes.next().expect("cycled")).min(views.len() - cursor);
            let mut verdicts = Vec::new();
            bat_engine.process_batch_views(&views[cursor..cursor + n], &mut verdicts);
            prop_assert_eq!(verdicts.len(), n, "one verdict per packet");
            bat_verdicts.extend(verdicts);
            cursor += n;
        }

        prop_assert_eq!(seq_verdicts.len(), bat_verdicts.len());
        for (at, (s, v)) in seq_verdicts.iter().zip(&bat_verdicts).enumerate() {
            match (s, v) {
                (DataVerdict::Stale, ViewVerdict::Stale) => {}
                (DataVerdict::FullyAggregated, ViewVerdict::FullyAggregated) => {}
                (DataVerdict::Forward(p), ViewVerdict::Forward { residual }) => {
                    prop_assert_eq!(p.bitmap(), *residual, "surviving slot sets diverge");
                    prop_assert_eq!(
                        frame_of(p),
                        views[at].residual_frame(*residual),
                        "re-framed residual is not byte-identical at packet {}", at
                    );
                }
                other => panic!("verdicts diverge at packet {at}: {other:?}"),
            }
        }
        prop_assert_eq!(seq_engine.passes_executed(), bat_engine.passes_executed());
        prop_assert_eq!(
            seq_engine.constraint_violations(),
            bat_engine.constraint_violations()
        );

        for t in 0..TASKS {
            let task = TaskId(t);
            let mut s = seq_engine.task_stats(task).expect("registered");
            let mut b = bat_engine.task_stats(task).expect("registered");
            // The burst histogram is the one intentionally batch-only
            // observable; every protocol counter must match exactly.
            s.burst_len = Default::default();
            b.burst_len = Default::default();
            prop_assert_eq!(s, b);

            // Switch memory is identical: a full fetch drains the same
            // key-value set from both engines.
            let sf = seq_engine.fetch(task, FetchScope::All, 1);
            let bf = bat_engine.fetch(task, FetchScope::All, 1);
            prop_assert_eq!(sf, bf);
        }
    }

    /// The zero-materialization view batch (`process_batch_views`) over
    /// parsed frames is observationally identical to materializing every
    /// frame with `decode_envelope` and ingesting the owned packets over the
    /// same burst boundaries: the materialized packets are the ones that
    /// were sent, verdicts and counters match, fetchable memory matches, and
    /// every partial absorb re-frames to the *byte-identical* wire frame that
    /// re-encoding the materialized residual (with the decoded envelope's
    /// addressing) produces.
    #[test]
    fn view_batch_matches_materializing_batch(
        per_channel in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0u64..32, 1u32..100), 0..SLOTS),
                    0..12,
                ),
                1..3, // channels per task
            ),
            TASKS as usize..=TASKS as usize,
        ),
        interleave in proptest::collection::vec(0usize..64, 0..64),
        dup_from in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        burst_sizes in proptest::collection::vec(1usize..9, 1..64),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let stream = build_stream(&per_channel, &interleave, &dup_from);
        let layout = PacketLayout::short_only(SLOTS);
        let frames: Vec<_> = stream
            .iter()
            .map(|p| encode_envelope_parts(src, dst, 0, 0, &AskPacket::Data(p.clone()), &layout))
            .collect();
        let views: Vec<DataPacketView> = frames
            .iter()
            .map(|f| match FrameView::parse(f.clone()).expect("valid").into_packet() {
                PacketView::Data(d) => d,
                _ => unreachable!("data frames parse to data views"),
            })
            .collect();

        let mut mat_engine = engine();
        let mut view_engine = engine();
        let mut cursor = 0usize;
        let mut sizes = burst_sizes.iter().cycle();
        while cursor < frames.len() {
            let n = (*sizes.next().expect("cycled")).min(frames.len() - cursor);
            let burst = cursor..cursor + n;
            let mut mat_verdicts = Vec::new();
            for (f, sent) in frames[burst.clone()].iter().zip(&stream[burst.clone()]) {
                let env = decode_envelope(f.clone()).expect("valid");
                prop_assert_eq!((env.src, env.dst), (src, dst));
                let AskPacket::Data(p) = env.packet else {
                    unreachable!("data frames decode to data packets")
                };
                prop_assert_eq!(&p, sent, "materialized packet differs from the sent one");
                mat_verdicts.push((env.src, env.dst, mat_engine.process_data(p)));
            }
            let mut view_verdicts = Vec::new();
            view_engine.process_batch_views(&views[burst.clone()], &mut view_verdicts);
            prop_assert_eq!(mat_verdicts.len(), view_verdicts.len());
            for (i, ((s, d, m), v)) in mat_verdicts.iter().zip(&view_verdicts).enumerate() {
                let at = cursor + i;
                match (m, v) {
                    (DataVerdict::Stale, ViewVerdict::Stale) => {}
                    (DataVerdict::FullyAggregated, ViewVerdict::FullyAggregated) => {}
                    (DataVerdict::Forward(p), ViewVerdict::Forward { residual }) => {
                        prop_assert_eq!(p.bitmap(), *residual, "surviving slot sets diverge");
                        let reencoded = encode_envelope_parts(
                            *s, *d, 0, 0, &AskPacket::Data(p.clone()), &layout,
                        );
                        let reframed = views[at].residual_frame(*residual);
                        prop_assert_eq!(
                            reencoded, reframed,
                            "re-framed residual is not byte-identical at packet {}", at
                        );
                    }
                    other => panic!("verdicts diverge at packet {at}: {other:?}"),
                }
            }
            cursor += n;
        }

        for t in 0..TASKS {
            let task = TaskId(t);
            let mut m = mat_engine.task_stats(task).expect("registered");
            let mut v = view_engine.task_stats(task).expect("registered");
            // The burst histogram is the one intentionally batch-only
            // observable; every protocol counter must match exactly.
            m.burst_len = Default::default();
            v.burst_len = Default::default();
            prop_assert_eq!(m, v);
            prop_assert_eq!(
                mat_engine.fetch(task, FetchScope::All, 1),
                view_engine.fetch(task, FetchScope::All, 1)
            );
        }
    }
}
