//! Exact allocation counts on the send, task-completion and long-key paths.
//!
//! The switch harvest (`AggregatorEngine::fetch`), the receiver's final
//! merge (drain the residual `TaskTable`, fold the fetched entries in) and
//! the materialization of a long-kv frame must allocate a fixed number of
//! times per call, whatever the number of keys. Each check runs the same
//! path at a small and a large key count and demands equal counts, so a
//! single per-key allocation creeping back fails exactly, with no
//! wall-clock threshold involved. The sender's frame writing must cost
//! exactly one frame buffer per frame on top of a constant.

use ask::config::AskConfig;
use ask::host::table::fold_entry;
use ask::host::{Packetizer, StreamFrame, TaskTable};
use ask::switch::AggregatorEngine;
use ask_wire::builder::{with_flags, FrameBuilder};
use ask_wire::codec::{encode_envelope_parts, FLAG_NO_AGGREGATE};
use ask_wire::key::{Key, INLINE_KEY_CAP};
use ask_wire::packet::{
    AggregateOp, AskPacket, ChannelId, DataPacket, FetchScope, KvTuple, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

/// Counts allocations (including reallocations) per thread, so tests
/// running in parallel never see each other's traffic.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` distinct keys, half short (one `kPart`) and half medium (two
/// coalesced `kPart`s with the default layout).
fn keys(n: usize) -> Vec<Key> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                Key::from_u64(i as u64)
            } else {
                Key::from_str(&format!("m{i:06}")).unwrap()
            }
        })
        .collect()
}

/// Aggregates `n` keys into a fresh switch and returns the allocation count
/// of the final `FetchScope::All` harvest, with the number of entries it
/// returned.
fn fetch_allocs(n: usize) -> (u64, usize) {
    let cfg = AskConfig::paper_default();
    let task = TaskId(1);
    let mut engine = AggregatorEngine::new(cfg.clone());
    engine.register_task(task, 0).expect("region");
    let tuples = keys(n).into_iter().map(|k| KvTuple::new(k, 3));
    let stream = Packetizer::new(cfg.layout, cfg.long_kv_batch).packetize(tuples);
    for (seq, slots) in stream.data_payloads.into_iter().enumerate() {
        let pkt = DataPacket {
            task,
            channel: ChannelId(0),
            seq: SeqNo(seq as u64),
            slots,
        };
        engine.process_view(&DataPacketView::from_packet(&pkt, &cfg.layout));
    }
    let (allocs, harvest) = allocs_during(|| engine.fetch(task, FetchScope::All, 1));
    (allocs, harvest.len())
}

/// Merges `n` keys into a residual table, then counts the allocations of
/// completing the task: drain the table into the result map and fold `n`
/// disjoint fetched entries in.
fn completion_allocs(n: usize) -> (u64, usize) {
    let op = AggregateOp::Sum;
    let ks = keys(2 * n);
    let (residual, fetched) = ks.split_at(n);
    let mut table = TaskTable::new();
    for k in residual {
        table.merge(k, 1, op);
    }
    let (allocs, result) = allocs_during(|| {
        let mut result = table.take_entries(fetched.len());
        for k in fetched {
            fold_entry(&mut result, k.as_bytes(), 2, op);
        }
        result
    });
    assert_eq!(table.capacity(), 0, "the drained table holds no memory");
    (allocs, result.len())
}

/// Parses a long-kv frame of `n` entries whose keys are all longer than
/// [`INLINE_KEY_CAP`], then counts the allocations of materializing it —
/// the owning decode (`decode_envelope`) of a long-kv frame.
fn long_kv_materialize_allocs(n: usize) -> (u64, usize) {
    let layout = AskConfig::paper_default().layout;
    let entries: Vec<KvTuple> = (0..n)
        .map(|i| {
            KvTuple::new(
                Key::from_str(&format!("a-long-bypass-key-{i:08}")).unwrap(),
                1,
            )
        })
        .collect();
    assert!(entries.iter().all(|t| t.key.len() > INLINE_KEY_CAP));
    let packet = AskPacket::LongKv {
        task: TaskId(1),
        channel: ChannelId(0),
        seq: SeqNo(0),
        entries,
    };
    let view = FrameView::parse(encode_envelope_parts(1, 2, 0, 0, &packet, &layout))
        .expect("encoder output parses");
    let (allocs, env) = allocs_during(|| view.materialize());
    assert_eq!(env.packet, packet);
    let AskPacket::LongKv { entries, .. } = env.packet else {
        unreachable!("long-kv frames materialize as long-kv packets");
    };
    (allocs, entries.len())
}

/// Allocation calls behind one frame buffer. The vendored `bytes` keeps a
/// `Bytes` as an `Arc<Vec<u8>>`, so a buffer is two calls: the bytes and
/// the shared header.
fn frame_buffer_allocs() -> u64 {
    allocs_during(|| Bytes::from(vec![1u8; 64])).0
}

/// Classifies a stream of `n` tuples (short, medium and every tenth one
/// long) and writes every frame, as a sender's pump does. Returns the
/// allocation count, the frames written and the first (a data) frame.
fn send_allocs(n: usize) -> (u64, u64, Bytes) {
    let cfg = AskConfig::paper_default();
    let tuples: Vec<KvTuple> = keys(n)
        .into_iter()
        .enumerate()
        .map(|(i, k)| match i % 10 {
            9 => KvTuple::new(
                Key::from_str(&format!("long-bypass-key-{i:08}")).unwrap(),
                1,
            ),
            _ => KvTuple::new(k, 1),
        })
        .collect();
    let tuples = Rc::new(tuples);
    let packetizer = Packetizer::new(cfg.layout, cfg.long_kv_batch);
    let builder = FrameBuilder::new(1, 2, 0, cfg.layout);
    let (task, channel) = (TaskId(1), ChannelId(0));
    let mut frames = Vec::with_capacity(n);
    let (allocs, ()) = allocs_during(|| {
        let mut stream = packetizer.classify(Rc::clone(&tuples));
        while let Some(frame) = stream.next_frame() {
            let seq = SeqNo(frames.len() as u64);
            let built = match frame {
                StreamFrame::Data(slots) => builder.data(0, task, channel, seq, slots),
                StreamFrame::LongKv(entries) => builder.long_kv(task, channel, seq, entries),
            };
            frames.push(built.expect("classified tuples fit").bytes);
        }
    });
    let first = frames
        .first()
        .expect("a stream of tuples has frames")
        .clone();
    (allocs, frames.len() as u64, first)
}

#[test]
fn frame_building_allocates_one_buffer_per_frame() {
    send_allocs(1_000); // warm-up: first-use lazy statics
    let buffer = frame_buffer_allocs();
    let (small, small_frames, _) = send_allocs(1_000);
    let (large, large_frames, _) = send_allocs(25_000);
    assert!(
        large_frames > 20 * small_frames / 2,
        "{small_frames} vs {large_frames}"
    );
    let small_extra = small - small_frames * buffer;
    let large_extra = large - large_frames * buffer;
    assert_eq!(
        small_extra, large_extra,
        "allocations beyond one buffer per frame: {small_extra} at 1k tuples \
         ({small_frames} frames) vs {large_extra} at 25k ({large_frames} frames)"
    );
}

#[test]
fn no_aggregate_escalation_costs_at_most_one_buffer() {
    let buffer = frame_buffer_allocs();
    let (_, _, frame) = send_allocs(100);
    let (allocs, patched) = allocs_during(|| with_flags(&frame, FLAG_NO_AGGREGATE));
    assert_eq!(
        FrameView::parse(patched).unwrap().flags(),
        FLAG_NO_AGGREGATE
    );
    assert!(
        allocs <= buffer,
        "{allocs} allocations for one re-flagged frame"
    );
}

#[test]
fn long_kv_materialize_allocations_do_not_scale_with_keys() {
    long_kv_materialize_allocs(64); // warm-up: first-use lazy statics
    let (small, small_len) = long_kv_materialize_allocs(64);
    let (large, large_len) = long_kv_materialize_allocs(1024);
    assert_eq!((small_len, large_len), (64, 1024));
    assert_eq!(
        small, large,
        "long-kv materialize allocations at 64 vs 1024 keys"
    );
}

#[test]
fn switch_harvest_allocations_do_not_scale_with_claims() {
    fetch_allocs(64); // warm-up: first-use lazy statics
    let (small, small_len) = fetch_allocs(64);
    let (large, large_len) = fetch_allocs(4096);
    assert!(small_len >= 32, "harvest returned {small_len} of 64 keys");
    assert!(large_len >= 2048, "harvest returned {large_len} of 4096 keys");
    assert_eq!(small, large, "fetch allocations at 64 vs 4096 keys");
}

#[test]
fn completion_drain_allocations_do_not_scale_with_keys() {
    completion_allocs(64); // warm-up: first-use lazy statics
    let (small, small_len) = completion_allocs(64);
    let (large, large_len) = completion_allocs(4096);
    assert_eq!(small_len, 128);
    assert_eq!(large_len, 8192);
    assert_eq!(small, large, "completion allocations at 64 vs 4096 keys");
}
