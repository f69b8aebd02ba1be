//! Criterion microbenchmarks of ASK's hot paths and design-choice
//! ablations: packetization, the switch pipeline pass (vectorized vs
//! single-key), the compact dedup window, the codec, and shadow-copy
//! swap/fetch.

use ask::prelude::*;
use ask::switch::AggregatorEngine;
use ask_wire::codec::{decode, encode};
use ask_wire::packet::{AskPacket, ChannelId, DataPacket, FetchScope, SeqNo, TaskId};
use ask_wire::view::DataPacketView;
use ask_workloads::text::uniform_stream;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn engine_with(layout: PacketLayout) -> (AggregatorEngine, Packetizer) {
    let mut cfg = AskConfig::paper_default();
    cfg.layout = layout;
    let packetizer = Packetizer::new(cfg.layout, 64);
    let mut engine = AggregatorEngine::new(cfg);
    engine.register_task(TaskId(1), 0).expect("region");
    (engine, packetizer)
}

fn payloads(packetizer: &Packetizer, tuples: u64) -> Vec<Vec<Option<KvTuple>>> {
    packetizer
        .packetize(uniform_stream(5, tuples / 4, tuples))
        .data_payloads
}

/// Pre-packetized data packets of task 1 on channel 0, handed out as wire
/// views in rotation, each encoded with a fresh sequence number so the
/// dedup window always classifies it First.
struct FreshFrames {
    layout: PacketLayout,
    pkts: Vec<DataPacket>,
    next: usize,
    seq: u64,
}

impl FreshFrames {
    fn new(packetizer: &Packetizer, layout: PacketLayout, tuples: u64) -> Self {
        let pkts: Vec<DataPacket> = payloads(packetizer, tuples)
            .into_iter()
            .map(|slots| DataPacket {
                task: TaskId(1),
                channel: ChannelId(0),
                seq: SeqNo(0),
                slots,
            })
            .collect();
        FreshFrames {
            layout,
            pkts,
            next: 0,
            seq: 0,
        }
    }

    /// Mean slot tuples per packet, rounded: the elements one iteration
    /// (one packet pass) processes.
    fn tuples_per_packet(&self) -> u64 {
        let total: usize = self.pkts.iter().map(|p| p.occupied()).sum();
        (total as f64 / self.pkts.len() as f64).round() as u64
    }

    fn next_view(&mut self) -> DataPacketView {
        let mut p = self.pkts[self.next % self.pkts.len()].clone();
        p.seq = SeqNo(self.seq);
        self.next += 1;
        self.seq += 1;
        DataPacketView::from_packet(&p, &self.layout)
    }
}

/// One full switch pass per packet, paper layout (24 slots). Frame
/// encoding happens in the untimed setup.
fn bench_switch_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("switch_pass");
    for (name, layout) in [
        ("vectorized_24slot", PacketLayout::paper_default()),
        ("single_key_ablation", PacketLayout::short_only(1)),
    ] {
        let (mut engine, packetizer) = engine_with(layout);
        let mut frames = FreshFrames::new(&packetizer, layout, 24_000);
        group.throughput(Throughput::Elements(frames.tuples_per_packet()));
        group.bench_function(name, |b| {
            b.iter_batched(
                || frames.next_view(),
                |v| engine.process_view(&v),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Sender-side packetization of a uniform stream.
fn bench_packetizer(c: &mut Criterion) {
    let packetizer = Packetizer::new(PacketLayout::paper_default(), 64);
    let stream = uniform_stream(5, 10_000, 50_000);
    let mut group = c.benchmark_group("packetizer");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("uniform_50k", |b| {
        b.iter_batched(
            || stream.clone(),
            |s| packetizer.packetize(s),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The compact seen-window dedup gate.
fn bench_dedup_window(c: &mut Criterion) {
    let (mut engine, _) = engine_with(PacketLayout::paper_default());
    let mut seq = 0u64;
    c.bench_function("dedup_observe_bypass", |b| {
        b.iter(|| {
            seq += 1;
            engine.observe_bypass(ChannelId(0), SeqNo(seq))
        });
    });
}

/// Wire codec round-trip of a full data packet.
fn bench_codec(c: &mut Criterion) {
    let layout = PacketLayout::paper_default();
    let packetizer = Packetizer::new(layout, 64);
    let slots = payloads(&packetizer, 2_400).remove(0);
    let pkt = AskPacket::Data(DataPacket {
        task: TaskId(1),
        channel: ChannelId(0),
        seq: SeqNo(1),
        slots,
    });
    c.bench_function("codec_encode", |b| b.iter(|| encode(&pkt, &layout)));
    let bytes = encode(&pkt, &layout);
    c.bench_function("codec_decode", |b| {
        b.iter(|| decode(bytes.clone()).expect("valid"))
    });
    c.bench_function("codec_roundtrip", |b| {
        b.iter(|| decode(encode(&pkt, &layout)).expect("valid"))
    });
}

/// One data-packet pass straight from the frame bytes: aggregation reads
/// keys and values in place, nothing is materialized.
fn bench_aggregator_ingest(c: &mut Criterion) {
    let layout = PacketLayout::paper_default();
    let (mut engine, packetizer) = engine_with(layout);
    let mut frames = FreshFrames::new(&packetizer, layout, 24_000);
    let mut group = c.benchmark_group("aggregator_ingest");
    group.throughput(Throughput::Elements(frames.tuples_per_packet()));
    group.bench_function("single_pass_24slot", |b| {
        b.iter_batched(
            || frames.next_view(),
            |v| engine.process_view(&v),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Switch burst ingest: parse → columnar pre-hash → per-lane aggregation,
/// at burst sizes 1, 8, and 64. Frame encoding happens in the untimed
/// setup; the timed region is exactly what the switch does per delivery
/// burst.
fn bench_batch_view_ingest(c: &mut Criterion) {
    use ask::switch::ViewVerdict;
    use ask_wire::codec::encode_envelope_parts;
    use ask_wire::view::{DataPacketView, FrameView, PacketView};
    use bytes::Bytes;

    let layout = PacketLayout::paper_default();
    let (mut view_engine, packetizer) = engine_with(layout);
    let slots = payloads(&packetizer, 96_000);
    let mut group = c.benchmark_group("batch_view_ingest");
    for n in [1usize, 8, 64] {
        group.throughput(Throughput::Elements(n as u64));
        let mut seq = 0u64;
        let mut ix = 0usize;
        let build = |seq: &mut u64, ix: &mut usize| -> Vec<Bytes> {
            (0..n)
                .map(|_| {
                    let p = AskPacket::Data(DataPacket {
                        task: TaskId(1),
                        channel: ChannelId(0),
                        seq: SeqNo(*seq),
                        slots: slots[*ix % slots.len()].clone(),
                    });
                    *seq += 1;
                    *ix += 1;
                    encode_envelope_parts(1, 0, 0, 0, &p, &layout)
                })
                .collect()
        };
        let mut views: Vec<DataPacketView> = Vec::new();
        let mut view_verdicts: Vec<ViewVerdict> = Vec::new();
        group.bench_function(&format!("view_burst{n}"), |b| {
            b.iter_batched(
                || build(&mut seq, &mut ix),
                |frames| {
                    views.clear();
                    for f in frames {
                        let v = FrameView::parse(f).expect("valid frame");
                        if let PacketView::Data(d) = v.into_packet() {
                            views.push(d);
                        }
                    }
                    view_verdicts.clear();
                    view_engine.process_batch_views(&views, &mut view_verdicts);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Shadow-copy swap + inactive-copy harvest.
fn bench_shadow_swap(c: &mut Criterion) {
    let layout = PacketLayout::paper_default();
    let (mut engine, packetizer) = engine_with(layout);
    let mut frames = FreshFrames::new(&packetizer, layout, 48_000);
    for _ in 0..frames.pkts.len() {
        engine.process_view(&frames.next_view());
    }
    let mut fetch_seq = 0u32;
    c.bench_function("shadow_swap_and_fetch", |b| {
        b.iter(|| {
            engine.swap(TaskId(1));
            fetch_seq += 1;
            engine.fetch(TaskId(1), FetchScope::Inactive, fetch_seq)
        });
    });
}

/// CRC-32 integrity check over a full-size data packet.
fn bench_checksum(c: &mut Criterion) {
    use ask_wire::codec::crc32;
    let layout = PacketLayout::paper_default();
    let packetizer = Packetizer::new(layout, 64);
    let slots = payloads(&packetizer, 2_400).remove(0);
    let bytes = encode(
        &AskPacket::Data(DataPacket {
            task: TaskId(1),
            channel: ChannelId(0),
            seq: SeqNo(1),
            slots,
        }),
        &layout,
    );
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("crc32_data_packet", |b| b.iter(|| crc32(&bytes)));
    group.finish();
}

/// The per-task ALU operators: the op selection must not cost anything.
fn bench_aggregate_ops(c: &mut Criterion) {
    use ask_wire::packet::AggregateOp;
    let mut group = c.benchmark_group("aggregate_op");
    for (name, op) in [
        ("sum", AggregateOp::Sum),
        ("max", AggregateOp::Max),
        ("min", AggregateOp::Min),
    ] {
        let mut cfg = AskConfig::paper_default();
        cfg.layout = PacketLayout::paper_default();
        let packetizer = Packetizer::new(cfg.layout, 64);
        let mut frames = FreshFrames::new(&packetizer, cfg.layout, 12_000);
        let mut engine = AggregatorEngine::new(cfg);
        engine
            .register_task_with_op(TaskId(1), 0, op)
            .expect("region");
        group.bench_function(name, |b| {
            b.iter_batched(
                || frames.next_view(),
                |v| engine.process_view(&v),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_switch_pass,
    bench_packetizer,
    bench_dedup_window,
    bench_codec,
    bench_aggregator_ingest,
    bench_batch_view_ingest,
    bench_shadow_swap,
    bench_checksum,
    bench_aggregate_ops
);
criterion_main!(benches);
