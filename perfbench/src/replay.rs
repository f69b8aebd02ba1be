//! Layer replays: each layer's public entry point timed directly, on the
//! frames and streams of one of the workload's own jobs.

use crate::alloc;
use crate::workload::{splitmix64, JobInput, Workload, TASKS};
use ask::prelude::*;
use ask_simnet::bench_api::BenchEventQueue;
use ask_simnet::prelude::*;
use ask_wire::codec::encode_envelope_parts;
use ask_wire::packet::{AskPacket, ChannelId, ControlMsg, DataPacket, SeqNo, CHANNEL_STRIDE};
use ask_wire::view::{FrameView, PacketView};
use bytes::Bytes;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per replay; each reported figure is the median.
const REPS: usize = 7;
/// Node indices of the replayed star after the switch (node 0): the
/// receiver, then the senders, in `AskServiceBuilder` order.
const RECEIVER: u32 = 1;
const FIRST_SENDER: u32 = 2;

/// Per-layer figures measured by replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// `Packetizer::packetize` over every stream of one job, in ms.
    pub packetize_ms: f64,
    /// `encode_envelope_parts`, ns per frame.
    pub encode_ns: f64,
    /// `FrameView::parse`, ns per frame.
    pub parse_ns: f64,
    /// Allocation calls per `FrameView::parse`.
    pub allocs_per_parse: f64,
    /// `AggregatorEngine::process_batch_views`, ns per data frame.
    pub switch_ns_per_frame: f64,
    /// PISA pipeline passes per data frame in the switch replay.
    pub passes_per_frame: f64,
    /// `AskDaemon::on_frames` on a host-only receive task, ns per frame.
    pub recv_ns_per_frame: f64,
    /// One push plus one pop on the simulator's event queue, in ns.
    pub ns_per_event: f64,
}

/// Replays every layer over `input`; `events` sizes the event-queue replay.
pub fn run(workload: Workload, input: &JobInput, events: u64, seed: u64) -> Replay {
    let cfg = workload.config();
    let packetizer = Packetizer::new(cfg.layout, cfg.long_kv_batch);

    let packetize_ms = median(|| {
        let chunks: Vec<Vec<KvTuple>> = input.chunks.iter().flatten().cloned().collect();
        let start = Instant::now();
        for chunk in chunks {
            black_box(packetizer.packetize(chunk));
        }
        start.elapsed().as_nanos() as f64 / 1e6
    });

    let packets = sender_packets(input, &packetizer);
    let encode =
        |(src, p): &(u32, AskPacket)| encode_envelope_parts(*src, RECEIVER, 0, 0, p, &cfg.layout);
    let encode_ns = median(|| {
        let start = Instant::now();
        for p in &packets {
            black_box(encode(p));
        }
        per_item(start, packets.len())
    });
    let frames: Vec<Bytes> = packets.iter().map(encode).collect();

    let mut parse_allocs = 0;
    let parse_ns = median(|| {
        let batch = frames.clone();
        let allocs = alloc::count();
        let start = Instant::now();
        for f in batch {
            let _ = black_box(FrameView::parse(f));
        }
        let ns = per_item(start, frames.len());
        parse_allocs = alloc::count() - allocs;
        ns
    });

    let views: Vec<_> = frames
        .iter()
        .filter_map(
            |f| match FrameView::parse(f.clone()).map(FrameView::into_packet) {
                Ok(PacketView::Data(v)) => Some(v),
                _ => None,
            },
        )
        .collect();
    let mut passes = 0;
    let switch_ns_per_frame = median(|| {
        let mut engine = AggregatorEngine::new(cfg.clone());
        for t in 0..TASKS as u32 {
            engine
                .register_task(TaskId(t), RECEIVER)
                .expect("the switch has a region for every task");
        }
        let mut verdicts = Vec::with_capacity(1);
        let start = Instant::now();
        for v in &views {
            engine.process_batch_views(std::slice::from_ref(v), &mut verdicts);
            verdicts.clear();
        }
        let ns = per_item(start, views.len());
        passes = engine.passes_executed();
        ns
    });

    let recv_ns_per_frame = median(|| {
        let mut h = ReceiveHarness::new(cfg.clone());
        let batch = frames.clone();
        let start = Instant::now();
        for f in batch {
            h.deliver(f);
        }
        let ns = per_item(start, frames.len());
        h.net.run_to_idle();
        ns
    });

    let ns_per_event = median(|| event_queue_ns(events.max(1), seed));

    Replay {
        packetize_ms,
        encode_ns,
        parse_ns,
        allocs_per_parse: parse_allocs as f64 / frames.len().max(1) as f64,
        switch_ns_per_frame,
        passes_per_frame: passes as f64 / views.len().max(1) as f64,
        recv_ns_per_frame,
        ns_per_event,
    }
}

/// Every sender's packets for one job with their source node, each
/// channel's packets in send order (data, then long-key batches) and the
/// channels interleaved round-robin, as the senders' pumps put them on the
/// wire.
fn sender_packets(input: &JobInput, packetizer: &Packetizer) -> Vec<(u32, AskPacket)> {
    let mut per_channel = Vec::new();
    for (s, per_task) in input.chunks.iter().enumerate() {
        let src = FIRST_SENDER + s as u32;
        for (t, chunk) in per_task.iter().enumerate() {
            let task = TaskId(t as u32);
            let channel = ChannelId(src * CHANNEL_STRIDE + t as u32);
            let out = packetizer.packetize(chunk.iter().cloned());
            let mut packets = Vec::with_capacity(out.packet_count());
            for slots in out.data_payloads {
                let seq = SeqNo(packets.len() as u64);
                let p = DataPacket {
                    task,
                    channel,
                    seq,
                    slots,
                };
                packets.push((src, AskPacket::Data(p)));
            }
            for entries in out.long_batches {
                let seq = SeqNo(packets.len() as u64);
                let p = AskPacket::LongKv {
                    task,
                    channel,
                    seq,
                    entries,
                };
                packets.push((src, p));
            }
            per_channel.push(packets.into_iter());
        }
    }
    let mut out = Vec::new();
    loop {
        let before = out.len();
        out.extend(per_channel.iter_mut().filter_map(Iterator::next));
        if out.len() == before {
            return out;
        }
    }
}

/// The switch stand-in of the receive replay: swallows the daemon's ACKs.
struct Sink;

impl Node for Sink {
    fn on_frame(&mut self, _from: NodeId, _frame: Frame, _ctx: &mut Context<'_>) {}
}

/// A receiver daemon wired to a sink, with every task denied switch
/// memory, so each delivered tuple takes the host's residual-merge path.
struct ReceiveHarness {
    net: Network,
    daemon: NodeId,
    sink: NodeId,
    burst: Vec<(NodeId, Frame)>,
}

impl ReceiveHarness {
    fn new(cfg: AskConfig) -> Self {
        let layout = cfg.layout;
        let mut b = NetworkBuilder::new(1);
        let sink = b.add_node(Sink);
        let daemon = b.add_node(AskDaemon::new(cfg, sink));
        b.connect(
            sink,
            daemon,
            LinkConfig::new(100e9, SimDuration::from_micros(1)),
        );
        let mut net = b.build();
        for t in 0..TASKS as u32 {
            let task = TaskId(t);
            net.with_node::<AskDaemon, _>(daemon, |d, ctx| d.submit_receive_task(task, &[], ctx));
            let deny = AskPacket::Control(ControlMsg::RegionDeny { task });
            let deny = encode_envelope_parts(
                sink.index() as u32,
                daemon.index() as u32,
                0,
                0,
                &deny,
                &layout,
            );
            net.with_node::<AskDaemon, _>(daemon, |d, ctx| d.on_frame(sink, Frame::new(deny), ctx));
        }
        net.run_to_idle();
        ReceiveHarness {
            net,
            daemon,
            sink,
            burst: Vec::with_capacity(1),
        }
    }

    /// Hands the daemon one frame as a delivery burst of length one.
    fn deliver(&mut self, frame: Bytes) {
        self.burst.push((self.sink, Frame::new(frame)));
        let burst = &mut self.burst;
        self.net
            .with_node::<AskDaemon, _>(self.daemon, |d, ctx| d.on_frames(burst, ctx));
    }
}

/// Steady-state scheduler cost: a queue 64 deep, each step popping the
/// head and pushing a timer 0–2 µs ahead (95%) or 0–200 µs ahead (5%, the
/// retransmit timers), for `events` steps. Returns ns per push+pop.
fn event_queue_ns(events: u64, seed: u64) -> f64 {
    let mut q = BenchEventQueue::new();
    let mut x = seed;
    let mut next = move || {
        x = splitmix64(x);
        x
    };
    for i in 0..64 {
        q.push_timer(next() % 2048, i);
    }
    let start = Instant::now();
    for i in 0..events {
        let (now, _) = q.pop().expect("the queue never drains");
        let r = next();
        let delta = if r % 20 == 0 { r % 200_000 } else { r % 2048 };
        q.push_timer(now + delta, i);
    }
    per_item(start, events as usize)
}

fn per_item(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn median(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    crate::stats::median(&mut v)
}
