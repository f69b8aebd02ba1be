//! Properties of the switch engine's view kernel that need no second,
//! materializing kernel as a reference, for arbitrary channel-interleaved
//! bursts including the duplicates and reorderings a chaotic network
//! produces:
//!
//! - burst ingest (`process_batch_views`) over arbitrary burst boundaries
//!   is observationally identical to one `process_view` call per packet —
//!   same verdicts in the same order, same per-task counters, same
//!   pipeline passes, same fetchable switch memory;
//! - every residual frame is byte-identical to encoding the sent packet
//!   with its absorbed slots blanked;
//! - per task, switch memory plus the first forward of every distinct
//!   `(channel, seq)` is exactly the reference aggregate of the distinct
//!   packets sent: nothing lost, nothing absorbed twice.

use ask::config::AskConfig;
use ask::service::reference_aggregate;
use ask::switch::aggregator::AggregatorEngine;
use ask::switch::ViewVerdict;
use ask_wire::codec::encode_envelope_parts;
use ask_wire::key::Key;
use ask_wire::packet::{
    AskPacket, ChannelId, DataPacket, FetchScope, KvTuple, PacketLayout, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

/// Parses every packet's frame from `src` to `dst` into the view the
/// switch ingests.
fn views_of(stream: &[DataPacket], src: u32, dst: u32) -> Vec<DataPacketView> {
    let layout = PacketLayout::short_only(SLOTS);
    stream
        .iter()
        .map(|p| {
            let frame = encode_envelope_parts(src, dst, 0, 0, &AskPacket::Data(p.clone()), &layout);
            match FrameView::parse(frame).expect("valid").into_packet() {
                PacketView::Data(d) => d,
                _ => unreachable!("data frames parse to data views"),
            }
        })
        .collect()
}

/// Runs `views` through `engine` in bursts whose sizes cycle through
/// `burst_sizes`, returning one verdict per view.
fn ingest_in_bursts(
    engine: &mut AggregatorEngine,
    views: &[DataPacketView],
    burst_sizes: &[usize],
) -> Vec<ViewVerdict> {
    let mut out = Vec::with_capacity(views.len());
    let mut cursor = 0usize;
    let mut sizes = burst_sizes.iter().cycle();
    while cursor < views.len() {
        let n = (*sizes.next().expect("cycled")).min(views.len() - cursor);
        let before = out.len();
        engine.process_batch_views(&views[cursor..cursor + n], &mut out);
        assert_eq!(out.len() - before, n, "one verdict per packet");
        cursor += n;
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
        let views = views_of(&stream, src, dst);

        // One view per call.
        let mut seq_engine = engine();
        let seq_verdicts: Vec<ViewVerdict> =
            views.iter().map(|v| seq_engine.process_view(v)).collect();

        // View batches over arbitrary burst boundaries.
        let mut bat_engine = engine();
        let bat_verdicts = ingest_in_bursts(&mut bat_engine, &views, &burst_sizes);

        prop_assert_eq!(seq_verdicts, bat_verdicts);
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

    /// Every partial absorb re-frames to the byte-identical frame of the
    /// sent packet with its absorbed slots blanked, and per task the switch
    /// memory plus the first forward of each distinct `(channel, seq)`
    /// equals the reference aggregate of the distinct packets.
    #[test]
    fn residual_frames_and_memory_match_the_reference(
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
        let views = views_of(&stream, src, dst);
        let layout = PacketLayout::short_only(SLOTS);
        let frame_of = |p: &DataPacket| {
            encode_envelope_parts(src, dst, 0, 0, &AskPacket::Data(p.clone()), &layout)
        };
        let mut engine = engine();
        let verdicts = ingest_in_bursts(&mut engine, &views, &burst_sizes);

        let mut first_seen: HashSet<(ChannelId, SeqNo)> = HashSet::new();
        let mut sent: HashMap<TaskId, Vec<KvTuple>> = HashMap::new();
        let mut forwarded: HashMap<TaskId, Vec<KvTuple>> = HashMap::new();
        for (at, (p, v)) in stream.iter().zip(&verdicts).enumerate() {
            let first = first_seen.insert((p.channel, p.seq));
            if first {
                sent.entry(p.task).or_default().extend(p.slots.iter().flatten().cloned());
            }
            match *v {
                ViewVerdict::Stale => prop_assert!(!first, "a first arrival went stale at {}", at),
                ViewVerdict::FullyAggregated => {}
                ViewVerdict::Forward { residual } => {
                    prop_assert_eq!(residual & !p.bitmap(), 0, "forward grew the bitmap");
                    let mut kept = p.clone();
                    for (i, slot) in kept.slots.iter_mut().enumerate() {
                        if residual & (1 << i) == 0 {
                            *slot = None;
                        }
                    }
                    prop_assert_eq!(
                        views[at].residual_frame(residual),
                        frame_of(&kept),
                        "re-framed residual is not byte-identical at packet {}", at
                    );
                    if first {
                        forwarded.entry(p.task).or_default().extend(kept.slots.into_iter().flatten());
                    }
                }
            }
        }

        for t in 0..TASKS {
            let task = TaskId(t);
            let fetched = engine.fetch(task, FetchScope::All, 1);
            let got = reference_aggregate(
                fetched
                    .iter()
                    .cloned()
                    .chain(forwarded.remove(&task).unwrap_or_default()),
            );
            let want = reference_aggregate(sent.remove(&task).unwrap_or_default());
            prop_assert_eq!(got, want, "task {} lost or double-counted tuples", t);
        }
        prop_assert_eq!(engine.duplicate_absorptions(), 0);
        prop_assert_eq!(engine.constraint_violations(), 0);
    }
}
