//! Host daemon receive path: the zero-materialization view ingest (parse →
//! borrowed slot views → open-addressed task-table merges) at
//! delivery-burst sizes 1, 8, and 64.
//!
//! Each daemon lives in a minimal two-node simnet (daemon + a frame sink
//! standing in for the switch) so the timed region is exactly what the
//! simulator hands the receiver per delivery burst: `on_frames` with a
//! vector of wire frames. Frame encoding and network drain (the ACKs the
//! daemon emits back toward the sink) happen in the untimed setup.

use std::cell::RefCell;

use ask::prelude::*;
use ask_simnet::prelude::*;
use ask_wire::codec::encode_envelope_parts;
use ask_wire::packet::{AskPacket, ChannelId, ControlMsg, DataPacket, SeqNo};
use ask_workloads::text::uniform_stream;
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

/// The switch stand-in: swallows region requests and ACKs.
struct Sink;

impl Node for Sink {
    fn on_frame(&mut self, _from: NodeId, _frame: Frame, _ctx: &mut Context<'_>) {}
}

struct Harness {
    net: RefCell<Network>,
    daemon: NodeId,
    sink: NodeId,
    layout: PacketLayout,
}

/// Builds a daemon wired to a sink, with one receive task denied switch
/// memory (host-only residual merges; no swap/fetch machinery in the loop).
fn harness() -> Harness {
    let mut cfg = AskConfig::paper_default();
    cfg.swap_threshold = 0;
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
    net.with_node::<AskDaemon, _>(daemon, |d, ctx| {
        d.submit_receive_task(TaskId(1), &[], ctx);
    });
    // Deny the region so the task runs host-only: every delivered tuple
    // takes the residual-merge path and the daemon never swaps or fetches.
    let deny = AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(1) });
    let deny = encode_envelope_parts(sink.index() as u32, daemon.index() as u32, 0, 0, &deny, &layout);
    net.with_node::<AskDaemon, _>(daemon, |d, ctx| {
        d.on_frame(sink, Frame::new(deny), ctx);
    });
    net.run_to_idle();
    Harness {
        net: RefCell::new(net),
        daemon,
        sink,
        layout,
    }
}

fn bench_host_ingest(c: &mut Criterion) {
    let packetizer = Packetizer::new(AskConfig::paper_default().layout, 64);
    let slots = packetizer
        .packetize(uniform_stream(5, 24_000, 96_000))
        .data_payloads;
    let mut group = c.benchmark_group("host_ingest");
    for n in [1usize, 8, 64] {
        group.throughput(Throughput::Elements(n as u64));
        let h = harness();
        let src = h.sink.index() as u32;
        let dst = h.daemon.index() as u32;
        let mut seq = 0u64;
        let mut ix = 0usize;
        let build = |seq: &mut u64, ix: &mut usize| -> Vec<(NodeId, Frame)> {
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
                    let bytes: Bytes = encode_envelope_parts(src, dst, 0, 0, &p, &h.layout);
                    (h.sink, Frame::new(bytes))
                })
                .collect()
        };
        group.bench_function(&format!("view_burst{n}"), |b| {
            b.iter_batched(
                || {
                    // Drain the ACKs queued by the previous iteration
                    // so the event heap stays bounded, outside the
                    // timing (PerIteration: setup runs before every
                    // timed call, not once per batch).
                    h.net.borrow_mut().run_to_idle();
                    build(&mut seq, &mut ix)
                },
                |mut burst| {
                    h.net
                        .borrow_mut()
                        .with_node::<AskDaemon, _>(h.daemon, |d, ctx| d.on_frames(&mut burst, ctx));
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_host_ingest);
criterion_main!(benches);
