//! The per-host ASK daemon (§3.1): control + data channels, the reliable
//! sliding-window sender, the deduplicating receiver, and the aggregation
//! task lifecycle (setup → streaming → FIN → fetch → teardown).

use crate::config::AskConfig;
use crate::fasthash::FastMap;
use crate::host::backoff::{splitmix64, BackoffPolicy};
use crate::host::congestion::CongestionWindow;
use crate::host::packetizer::{ClassifiedStream, Packetizer, StreamFrame};
use crate::host::receiver::ReceiverWindow;
use crate::host::table::{fold_entry, TaskTable};
use crate::host::trace::{TraceEvent, TraceLog};
use crate::host::window::{FrameKind, SenderWindow};
use crate::stats::{burst_bucket, HostStats};
use crate::switch::aggregator::Observation;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Node};
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::builder::{with_flags, BuiltFrame, FrameBuilder};
use ask_wire::codec::{encode_envelope_parts, FLAG_NO_AGGREGATE};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::key::Key;
use ask_wire::packet::{
    AggregateOp, AskPacket, ChannelId, ControlMsg, FetchScope, KvTuple, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

pub use ask_wire::packet::CHANNEL_STRIDE;

// Timer token kinds (packed into the token's top byte).
const TK_PUMP: u64 = 1;
const TK_RETX: u64 = 2;
const TK_FETCH: u64 = 3;
const TK_REGION: u64 = 4;
const TK_ANNOUNCE: u64 = 5;

fn token_pump(ch: usize) -> u64 {
    (TK_PUMP << 56) | ch as u64
}
fn token_retx(ch: usize, seq: u64) -> u64 {
    debug_assert!(seq < (1 << 48), "seq exceeds token space");
    (TK_RETX << 56) | ((ch as u64) << 48) | seq
}
fn token_fetch(task: TaskId, fetch_seq: u32) -> u64 {
    (TK_FETCH << 56) | ((task.0 as u64) << 24) | (fetch_seq as u64 & 0xff_ffff)
}
fn token_region(task: TaskId) -> u64 {
    (TK_REGION << 56) | task.0 as u64
}
fn token_announce(task: TaskId) -> u64 {
    (TK_ANNOUNCE << 56) | task.0 as u64
}

/// An item queued on a data channel, waiting for the window.
///
/// A stream is classified once, into slot-ordered indices over the tuples
/// `sent_streams` retains ([`ClassifiedStream`]); each frame is written
/// straight into wire bytes only when the window admits it.
#[derive(Debug)]
enum QueuedItem {
    Stream {
        task: TaskId,
        dst: u32,
        stream: ClassifiedStream,
    },
    Fin {
        task: TaskId,
        dst: u32,
    },
}

#[derive(Debug)]
struct ChannelState {
    id: ChannelId,
    window: SenderWindow,
    queue: VecDeque<QueuedItem>,
    busy_until: SimTime,
    pump_armed: bool,
    /// Unacked data/long-kv packets per task, gating the task's FIN.
    outstanding: FastMap<TaskId, u64>,
    /// Optional AIMD congestion window (§7 discussion), capped at `W`.
    cc: Option<CongestionWindow>,
}

/// State of the receiver's (reliable) fetch exchange with the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    Idle,
    Pending {
        fetch_seq: u32,
        scope: FetchScope,
        is_final: bool,
    },
}

/// Read-only view of one data channel's reliability state, for invariant
/// checks (the conformance harness proves `peak_in_flight <= window` and
/// that everything drains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// The channel's global id.
    pub channel: ChannelId,
    /// Next sequence number the sender will use.
    pub next_seq: u64,
    /// Unacknowledged packets right now.
    pub in_flight: usize,
    /// High-water mark of `in_flight` over the run.
    pub peak_in_flight: usize,
    /// Items still queued behind the window.
    pub queued: usize,
    /// Unacked FIN-gating packets summed over tasks.
    pub outstanding: u64,
}

/// Completed aggregation result, exposed to the application.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The finished task.
    pub task: TaskId,
    /// Aggregated key → value (wrapping 32-bit sums).
    pub entries: HashMap<Key, u32>,
    /// Simulated completion time.
    pub completed_at: SimTime,
}

#[derive(Debug)]
struct RecvTask {
    senders: HashSet<u32>,
    /// The task's aggregation operator (applied to residual merges too).
    op: AggregateOp,
    /// `Some(true)` once a region is granted, `Some(false)` on deny
    /// (host-only fallback), `None` while the controller RPC is in flight.
    ina: Option<bool>,
    residual: TaskTable,
    fins: HashSet<u32>,
    packets_since_swap: u64,
    fetch_seq: u32,
    fetch: FetchState,
    want_final: bool,
    result: Option<TaskResult>,
}

/// The ASK daemon running on one host, as a simulated network node.
///
/// A daemon plays both roles: *sender* for tasks submitted via
/// [`AskDaemon::submit_send_task`] and *receiver* for tasks submitted via
/// [`AskDaemon::submit_receive_task`]. All traffic goes through the directly
/// attached [`crate::switch::AskSwitch`].
#[derive(Debug)]
pub struct AskDaemon {
    config: AskConfig,
    switch: NodeId,
    me: Option<NodeId>,
    packetizer: Packetizer,
    channels: Vec<ChannelState>,
    /// Sender side: task → receiver node learned from TaskAnnounce.
    announced: FastMap<TaskId, u32>,
    /// Sender side: tuples waiting for a TaskAnnounce.
    pending_sends: FastMap<TaskId, Vec<KvTuple>>,
    /// Sender side: every dispatched stream, retained for replay when the
    /// switch restarts under a new epoch. A sender cannot know whether the
    /// receiver already banked its contribution (switch aggregators are
    /// wiped by the crash), so resynchronization replays conservatively;
    /// receivers dedup via the epoch gate and completion checks. Shared
    /// with the stream being sent, so retaining costs no copy.
    sent_streams: FastMap<TaskId, (u32, Rc<Vec<KvTuple>>)>,
    /// Sender side: tasks whose FIN has been acknowledged.
    send_done: FastMap<TaskId, SimTime>,
    /// Receiver side.
    recv_windows: FastMap<ChannelId, ReceiverWindow>,
    recv_tasks: FastMap<TaskId, RecvTask>,
    stats: HostStats,
    trace: TraceLog,
    cpu_busy: SimDuration,
    /// Tuples received for tasks this daemon never registered (misrouted).
    orphan_tuples: u64,
    /// Highest switch epoch this daemon has seen. Frames from older epochs
    /// (pre-crash verdicts, ACKs, fetch replies) are dropped at ingress.
    known_epoch: u32,
    /// True while the retransmit escalation has declared the aggregation
    /// path suspect: fresh data packets are stamped no-aggregate. Cleared
    /// when the switch ACKs again or a new epoch resynchronizes.
    degraded: bool,
    /// Retransmission schedule (flat with default config).
    backoff: BackoffPolicy,
    /// When set, wall time spent classifying and building packets is
    /// accumulated into `packetize_ns` (the `--timing` phase breakdown).
    /// Purely observational: never read by the protocol.
    time_phases: bool,
    /// `Cell` so the hot send path can add to it while channel state is
    /// mutably borrowed.
    packetize_ns: std::cell::Cell<u64>,
    /// First-delivery data views awaiting a grouped residual merge. Each
    /// deferred view is a refcount on the frame bytes;
    /// flushing groups consecutive same-task views so task resolution
    /// amortizes over a burst. Always drained before any state that reads
    /// residual tables is touched and at the end of every delivery.
    merge_batch: Vec<DataPacketView>,
    /// Scratch for batched receive-window observations, kept across bursts
    /// to avoid reallocating.
    obs_scratch: Vec<Observation>,
    /// Parsed views of the burst being handled; emptied after every burst
    /// so no frame outlives it, capacity kept.
    burst_views: Vec<(bool, FrameView)>,
}

impl AskDaemon {
    /// Creates a daemon whose uplink is the switch node `switch`.
    pub fn new(config: AskConfig, switch: NodeId) -> Self {
        config.validate();
        let packetizer = Packetizer::new(config.layout, config.long_kv_batch);
        let trace = TraceLog::new(config.trace_capacity);
        let backoff = BackoffPolicy::from_config(&config, 0);
        AskDaemon {
            config,
            switch,
            me: None,
            packetizer,
            channels: Vec::new(),
            announced: FastMap::default(),
            pending_sends: FastMap::default(),
            sent_streams: FastMap::default(),
            send_done: FastMap::default(),
            recv_windows: FastMap::default(),
            recv_tasks: FastMap::default(),
            trace,
            stats: HostStats::default(),
            cpu_busy: SimDuration::ZERO,
            orphan_tuples: 0,
            known_epoch: 0,
            degraded: false,
            backoff,
            time_phases: false,
            packetize_ns: std::cell::Cell::new(0),
            merge_batch: Vec::new(),
            obs_scratch: Vec::new(),
            burst_views: Vec::new(),
        }
    }

    /// Turns on packetize-phase wall-time accounting (the `--timing`
    /// breakdown). Off by default: the hot path must not pay for clock
    /// reads.
    pub fn enable_phase_timing(&mut self) {
        self.time_phases = true;
    }

    /// Nanoseconds spent classifying and building packets, when
    /// [`AskDaemon::enable_phase_timing`] was called.
    pub fn packetize_ns(&self) -> u64 {
        self.packetize_ns.get()
    }

    fn ensure_init(&mut self, ctx: &Context<'_>) {
        if self.me.is_some() {
            return;
        }
        let me = ctx.me();
        assert!(
            (self.config.data_channels as u32) <= CHANNEL_STRIDE,
            "too many data channels for the id stride"
        );
        self.me = Some(me);
        // Per-host jitter stream; irrelevant with the default jitter of 0.
        self.backoff.seed = splitmix64(0x6261_636b_6f66_6621 ^ me.index() as u64);
        self.channels = (0..self.config.data_channels)
            .map(|i| ChannelState {
                id: ChannelId(me.index() as u32 * CHANNEL_STRIDE + i as u32),
                window: SenderWindow::new(self.config.window),
                queue: VecDeque::new(),
                busy_until: SimTime::ZERO,
                pump_armed: false,
                outstanding: FastMap::default(),
                cc: self
                    .config
                    .congestion_control
                    .then(|| CongestionWindow::new(self.config.window)),
            })
            .collect();
    }

    fn my_index(&self) -> u32 {
        self.me.expect("daemon initialized").index() as u32
    }

    // ------------------------------------------------------------------
    // Application-facing API (call through `Network::with_node`).
    // ------------------------------------------------------------------

    /// Submits an aggregation task with this host as the receiver.
    ///
    /// `senders` are the raw node indices of the sending hosts (which may
    /// include this host for co-located senders). The daemon requests switch
    /// memory and announces the task to every sender (§3.1 steps ①–⑤).
    pub fn submit_receive_task(&mut self, task: TaskId, senders: &[u32], ctx: &mut Context<'_>) {
        self.submit_receive_task_with_op(task, senders, AggregateOp::Sum, ctx);
    }

    /// [`AskDaemon::submit_receive_task`] with an explicit aggregation
    /// operator, applied consistently by the switch ALU and the host's
    /// residual merges.
    pub fn submit_receive_task_with_op(
        &mut self,
        task: TaskId,
        senders: &[u32],
        op: AggregateOp,
        ctx: &mut Context<'_>,
    ) {
        self.ensure_init(ctx);
        assert!(
            !self.recv_tasks.contains_key(&task),
            "task {task} already submitted"
        );
        self.recv_tasks.insert(
            task,
            RecvTask {
                senders: senders.iter().copied().collect(),
                op,
                ina: None,
                residual: TaskTable::new(),
                fins: HashSet::new(),
                packets_since_swap: 0,
                fetch_seq: 0,
                fetch: FetchState::Idle,
                want_final: false,
                result: None,
            },
        );
        let req = AskPacket::Control(ControlMsg::RegionRequest { task, op });
        self.send_to(self.switch.index() as u32, req, ctx);
        ctx.set_timer(self.config.fetch_timeout, token_region(task));
    }

    /// Submits this host's key-value stream for `task`. The data is held
    /// until the receiver's announcement arrives (which may already have
    /// happened), then packetized onto a data channel.
    pub fn submit_send_task(&mut self, task: TaskId, tuples: Vec<KvTuple>, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        if let Some(&receiver) = self.announced.get(&task) {
            self.dispatch_send(task, receiver, tuples, ctx);
            return;
        }
        // The first stream waits as it is; only a second one is appended.
        match self.pending_sends.entry(task) {
            Entry::Occupied(mut e) => e.get_mut().extend(tuples),
            Entry::Vacant(e) => {
                e.insert(tuples);
            }
        }
    }

    /// The completed result of a receive task, if finished.
    pub fn task_result(&self, task: TaskId) -> Option<&TaskResult> {
        self.recv_tasks.get(&task)?.result.as_ref()
    }

    /// True once this host's FIN for `task` was acknowledged.
    pub fn send_complete(&self, task: TaskId) -> bool {
        self.send_done.contains_key(&task)
    }

    /// When this host's FIN for `task` was acknowledged (end of its sending
    /// phase), if it has been.
    pub fn send_complete_at(&self, task: TaskId) -> Option<SimTime> {
        self.send_done.get(&task).copied()
    }

    /// Aggregate daemon counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Total CPU time consumed by packet IO and host-side aggregation.
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu_busy
    }

    /// Tuples that arrived for tasks this daemon never registered.
    pub fn orphan_tuples(&self) -> u64 {
        self.orphan_tuples
    }

    /// The protocol trace (empty unless
    /// [`AskConfig::trace_capacity`](crate::config::AskConfig) is set).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Snapshots every data channel's window state (empty before the daemon
    /// has started).
    pub fn channel_snapshots(&self) -> Vec<ChannelSnapshot> {
        self.channels
            .iter()
            .map(|ch| ChannelSnapshot {
                channel: ch.id,
                next_seq: ch.window.next_seq(),
                in_flight: ch.window.in_flight(),
                peak_in_flight: ch.window.peak_in_flight(),
                queued: ch.queue.len(),
                outstanding: ch.outstanding.values().sum(),
            })
            .collect()
    }

    /// The configured sliding-window limit `W`, in packets.
    pub fn window_limit(&self) -> usize {
        self.config.window
    }

    /// Highest sequence number the receiver window has observed on
    /// `channel`, if any packet arrived on it.
    pub fn receiver_max_seq(&self, channel: ChannelId) -> Option<u64> {
        self.recv_windows.get(&channel).map(|w| w.max_seq())
    }

    /// True while a fetch request for `task` is outstanding.
    pub fn fetch_pending(&self, task: TaskId) -> bool {
        matches!(
            self.recv_tasks.get(&task).map(|rt| rt.fetch),
            Some(FetchState::Pending { .. })
        )
    }

    /// The highest switch epoch this daemon has synchronized against.
    pub fn known_epoch(&self) -> u32 {
        self.known_epoch
    }

    /// True while the daemon is in degraded no-aggregate pass-through mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Simulates the daemon restarting from its crash-consistent state
    /// (window contents and task tables survive; pacing and armed timers do
    /// not): every in-flight packet is retransmitted — the receiver's
    /// window dedups the ones whose originals got through — pump pacing is
    /// reset, and any pending fetch is re-requested. Deterministic: channels
    /// in index order, fetches in task-id order.
    pub fn recover(&mut self, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        for ch_ix in 0..self.channels.len() {
            let seqs = {
                let ch = &mut self.channels[ch_ix];
                ch.pump_armed = false;
                ch.busy_until = SimTime::ZERO;
                ch.window.in_flight_seqs()
            };
            for seq in seqs {
                self.retransmit(ch_ix, seq, ctx);
            }
            self.pump(ch_ix, ctx);
        }
        let mut pending: Vec<(TaskId, u32, FetchScope)> = self
            .recv_tasks
            .iter()
            .filter_map(|(&task, rt)| match rt.fetch {
                FetchState::Pending {
                    fetch_seq, scope, ..
                } => Some((task, fetch_seq, scope)),
                FetchState::Idle => None,
            })
            .collect();
        pending.sort_unstable_by_key(|&(task, ..)| task.0);
        for (task, fetch_seq, scope) in pending {
            self.send_to(
                self.switch.index() as u32,
                AskPacket::FetchRequest {
                    task,
                    scope,
                    fetch_seq,
                },
                ctx,
            );
            ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
        }
    }

    /// Full resynchronization against a restarted switch (epoch `epoch`).
    ///
    /// Called the moment any frame with a newer epoch arrives, *before* that
    /// frame's payload is processed. The crash wiped every aggregator,
    /// dedup register, and task region on the switch, and the epoch gate
    /// guarantees nothing from the old epoch will ever be accepted again on
    /// either side — so both roles restart their protocol state from
    /// scratch under the new epoch:
    ///
    /// - sender: windows are drained and the per-channel sequence space
    ///   restarts at 0 (the switch's wiped even/odd dedup bitmaps only read
    ///   correctly for a zero-based sequence space); retained streams are
    ///   replayed in task order.
    /// - receiver: receive windows are cleared and every unfinished task
    ///   re-requests its switch region, dropping all partial residuals
    ///   (their content is re-delivered by the senders' replays).
    fn resync_to_epoch(&mut self, epoch: u32, ctx: &mut Context<'_>) {
        self.known_epoch = epoch;
        self.degraded = false;
        for ch in &mut self.channels {
            ch.window.drain_reset();
            ch.queue.clear();
            ch.outstanding.clear();
            ch.pump_armed = false;
            ch.busy_until = SimTime::ZERO;
            ch.cc = self
                .config
                .congestion_control
                .then(|| CongestionWindow::new(self.config.window));
        }
        self.recv_windows.clear();
        let mut incomplete: Vec<TaskId> = self
            .recv_tasks
            .iter()
            .filter(|(_, rt)| rt.result.is_none())
            .map(|(&t, _)| t)
            .collect();
        incomplete.sort_unstable_by_key(|t| t.0);
        for task in incomplete {
            let rt = self.recv_tasks.get_mut(&task).expect("listed above");
            rt.ina = None;
            rt.residual.clear();
            rt.fins.clear();
            rt.packets_since_swap = 0;
            rt.fetch = FetchState::Idle;
            rt.want_final = false;
            let op = rt.op;
            self.send_to(
                self.switch.index() as u32,
                AskPacket::Control(ControlMsg::RegionRequest { task, op }),
                ctx,
            );
            ctx.set_timer(self.config.fetch_timeout, token_region(task));
        }
        let mut replay: Vec<(TaskId, u32, Rc<Vec<KvTuple>>)> = self
            .sent_streams
            .iter()
            .map(|(&t, (r, tuples))| (t, *r, Rc::clone(tuples)))
            .collect();
        replay.sort_unstable_by_key(|&(t, ..)| t.0);
        for (task, receiver, tuples) in replay {
            if receiver == self.my_index()
                && self
                    .recv_tasks
                    .get(&task)
                    .is_some_and(|rt| rt.result.is_some())
            {
                continue; // co-located task already finished; nothing lost
            }
            self.send_done.remove(&task);
            self.dispatch_stream(task, receiver, tuples, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Sender side.
    // ------------------------------------------------------------------

    fn dispatch_send(
        &mut self,
        task: TaskId,
        receiver: u32,
        tuples: Vec<KvTuple>,
        ctx: &mut Context<'_>,
    ) {
        // Retain the stream for crash-epoch replay before dispatching it.
        // The first stream of a task is shared, not copied; a later one is
        // appended (copy-on-write if the first is still being sent), so a
        // replay resends everything as one stream.
        let tuples = Rc::new(tuples);
        match self.sent_streams.entry(task) {
            Entry::Occupied(e) => {
                let retained = e.into_mut();
                retained.0 = receiver;
                Rc::make_mut(&mut retained.1).extend(tuples.iter().cloned());
            }
            Entry::Vacant(e) => {
                e.insert((receiver, Rc::clone(&tuples)));
            }
        }
        self.dispatch_stream(task, receiver, tuples, ctx);
    }

    fn dispatch_stream(
        &mut self,
        task: TaskId,
        receiver: u32,
        tuples: Rc<Vec<KvTuple>>,
        ctx: &mut Context<'_>,
    ) {
        if receiver == self.my_index() {
            // Co-located sender: aggregate straight into the receiver's
            // shared-memory table (§5.5 — "these mappers' data needs to be
            // aggregated by the local reducers").
            let n = tuples.len() as u64;
            self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(n);
            self.stats.tuples_host_aggregated += n;
            let Some(rt) = self.recv_tasks.get_mut(&task) else {
                self.orphan_tuples += n;
                return;
            };
            let op = rt.op;
            for t in tuples.iter() {
                rt.residual.merge(&t.key, t.value, op);
            }
            rt.fins.insert(receiver);
            self.check_completion(task, ctx);
            return;
        }
        let t0 = self.time_phases.then(std::time::Instant::now);
        let stream = self.packetizer.classify(tuples);
        if let Some(t0) = t0 {
            self.packetize_ns
                .set(self.packetize_ns.get() + t0.elapsed().as_nanos() as u64);
        }
        let ch_ix = (task.0 as usize) % self.channels.len();
        {
            let ch = &mut self.channels[ch_ix];
            ch.queue.push_back(QueuedItem::Stream {
                task,
                dst: receiver,
                stream,
            });
            ch.queue.push_back(QueuedItem::Fin {
                task,
                dst: receiver,
            });
        }
        self.pump(ch_ix, ctx);
    }

    fn pump(&mut self, ch_ix: usize, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let me = self.my_index();
        let layout = self.config.layout;
        loop {
            let ch = &mut self.channels[ch_ix];
            if ch.queue.is_empty() || !ch.window.can_send() {
                return;
            }
            if let Some(cc) = &ch.cc {
                if ch.window.in_flight() >= cc.window() {
                    return; // congestion-limited; an ACK will re-pump
                }
            }
            if ch.busy_until > now {
                if !ch.pump_armed {
                    ch.pump_armed = true;
                    ctx.set_timer(ch.busy_until - now, token_pump(ch_ix));
                }
                return;
            }
            // FIN gate: a task's FIN goes out only after all of its data
            // packets are acknowledged (§3.1 Task Teardown).
            if let Some(QueuedItem::Fin { task, .. }) = ch.queue.front() {
                if ch.outstanding.get(task).copied().unwrap_or(0) > 0 {
                    return; // an ACK will re-pump
                }
            }
            let channel = ch.id;
            let seq = SeqNo(ch.window.next_seq());
            // A stream writes its next frame here, straight from the
            // retained tuples into wire bytes; a drained stream is popped
            // and the loop retries with the next queued item.
            let (frame, kind, task) = match ch.queue.front_mut() {
                Some(QueuedItem::Stream { task, dst, stream }) => {
                    let task = *task;
                    let t0 = self.time_phases.then(std::time::Instant::now);
                    let builder = FrameBuilder::new(me, *dst, self.known_epoch, layout);
                    let built = match stream.next_frame() {
                        Some(StreamFrame::Data(slots)) => {
                            let flags = if self.degraded { FLAG_NO_AGGREGATE } else { 0 };
                            let frame = builder.data(flags, task, channel, seq, slots);
                            Some((frame, FrameKind::Data))
                        }
                        Some(StreamFrame::LongKv(entries)) => {
                            let frame = builder.long_kv(task, channel, seq, entries);
                            Some((frame, FrameKind::LongKv))
                        }
                        None => None,
                    };
                    if let Some(t0) = t0 {
                        self.packetize_ns
                            .set(self.packetize_ns.get() + t0.elapsed().as_nanos() as u64);
                    }
                    let Some((frame, kind)) = built else {
                        ch.queue.pop_front();
                        continue;
                    };
                    let frame = frame.expect("classified tuples fit their slots and keys");
                    (frame, kind, task)
                }
                Some(QueuedItem::Fin { task, dst }) => {
                    let (task, dst) = (*task, *dst);
                    ch.queue.pop_front();
                    let fin = AskPacket::Fin { task, channel, seq };
                    let bytes = encode_envelope_parts(me, dst, self.known_epoch, 0, &fin, &layout);
                    let wire = fin.wire_bytes(&layout);
                    (BuiltFrame { bytes, wire }, FrameKind::Fin, task)
                }
                None => unreachable!("queue checked non-empty"),
            };
            let ch = &mut self.channels[ch_ix];
            if kind != FrameKind::Fin {
                *ch.outstanding.entry(task).or_insert(0) += 1;
            }
            let BuiltFrame { bytes, wire } = frame;
            // The window keeps the exact bytes the frame carries, so
            // retransmissions skip the codec entirely.
            ch.window.register(kind, task, bytes.clone(), wire);
            ch.busy_until = now + self.config.cpu_per_packet;
            self.cpu_busy += self.config.cpu_per_packet;
            self.stats.packets_sent += 1;
            self.stats.bytes_sent += wire as u64;
            self.stats.goodput_bytes_sent += (wire - PACKET_OVERHEAD) as u64;
            self.trace
                .record(now, TraceEvent::PacketSent { channel, seq, task });
            let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
            ctx.set_timer(self.config.retransmit_timeout, token_retx(ch_ix, seq.0));
        }
    }

    fn on_ack(&mut self, channel: ChannelId, seq: SeqNo, ece: bool, ctx: &mut Context<'_>) {
        let Some(ch_ix) = self.local_channel(channel) else {
            return; // not ours
        };
        let Some(inflight) = self.channels[ch_ix].window.ack(seq.0) else {
            return; // duplicate ACK
        };
        self.stats.acks_received += 1;
        self.trace
            .record(ctx.now(), TraceEvent::AckReceived { channel, seq });
        if ece {
            self.stats.ecn_echoes += 1;
        }
        if let Some(cc) = &mut self.channels[ch_ix].cc {
            cc.on_ack();
            if ece {
                cc.on_ecn();
            }
        }
        match inflight.kind {
            FrameKind::Data | FrameKind::LongKv => {
                let ch = &mut self.channels[ch_ix];
                let left = ch.outstanding.entry(inflight.task).or_insert(1);
                *left = left.saturating_sub(1);
            }
            FrameKind::Fin => {
                self.send_done.insert(inflight.task, ctx.now());
            }
        }
        self.pump(ch_ix, ctx);
    }

    fn retransmit(&mut self, ch_ix: usize, seq: u64, ctx: &mut Context<'_>) {
        let escalate_after = self.config.escalate_after;
        let mut escalated = false;
        // Resend the stored wire bytes verbatim — no re-encode — unless this
        // attempt crosses the escalation threshold, in which case a data
        // frame's flags byte is patched once to no-aggregate (degraded
        // end-to-end pass-through). Every in-flight frame carries the
        // current epoch (a resync empties the window), so the patch equals
        // a re-encode.
        let Some((bytes, wire, attempt)) = self.channels[ch_ix].window.retransmit(seq).map(|e| {
            if let Some(k) = escalate_after {
                if !e.degraded && e.retransmits >= k {
                    e.degraded = true;
                    escalated = true;
                    if e.kind == FrameKind::Data {
                        e.encoded = with_flags(&e.encoded, FLAG_NO_AGGREGATE);
                    }
                }
            }
            (e.encoded.clone(), e.wire, e.retransmits)
        }) else {
            return; // already acknowledged
        };
        if escalated {
            self.degraded = true;
            self.stats.degraded_entries += 1;
        }
        self.stats.retransmissions += 1;
        let channel = self.channels[ch_ix].id;
        self.trace.record(
            ctx.now(),
            TraceEvent::Retransmitted {
                channel,
                seq: SeqNo(seq),
            },
        );
        if let Some(cc) = &mut self.channels[ch_ix].cc {
            cc.on_timeout();
        }
        self.cpu_busy += self.config.cpu_per_packet;
        self.stats.bytes_sent += wire as u64;
        let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
        let token = token_retx(ch_ix, seq);
        ctx.set_timer(self.backoff.delay(token, attempt), token);
    }

    fn local_channel(&self, channel: ChannelId) -> Option<usize> {
        let me = self.my_index();
        let base = me * CHANNEL_STRIDE;
        if channel.0 < base || channel.0 >= base + self.channels.len() as u32 {
            return None;
        }
        Some((channel.0 - base) as usize)
    }

    // ------------------------------------------------------------------
    // Receiver side.
    // ------------------------------------------------------------------

    fn observe(&mut self, channel: ChannelId, seq: SeqNo) -> Observation {
        let w = self.config.window;
        self.recv_windows
            .entry(channel)
            .or_insert_with(|| ReceiverWindow::new(w))
            .observe(seq.0)
    }

    fn reply_ack(
        &mut self,
        dst: u32,
        channel: ChannelId,
        seq: SeqNo,
        ece: bool,
        ctx: &mut Context<'_>,
    ) {
        self.cpu_busy += self.config.cpu_per_packet;
        self.send_to(dst, AskPacket::Ack { channel, seq, ece }, ctx);
    }

    fn maybe_swap(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let threshold = self.config.swap_threshold;
        if threshold == 0 {
            return;
        }
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.ina != Some(true) || rt.packets_since_swap < threshold || rt.fetch != FetchState::Idle
        {
            return;
        }
        rt.packets_since_swap = 0;
        rt.fetch_seq += 1;
        let fetch_seq = rt.fetch_seq;
        rt.fetch = FetchState::Pending {
            fetch_seq,
            scope: FetchScope::Inactive,
            is_final: false,
        };
        let sw = self.switch.index() as u32;
        self.trace.record(ctx.now(), TraceEvent::SwapSent { task });
        self.trace
            .record(ctx.now(), TraceEvent::FetchSent { task, fetch_seq });
        self.send_to(sw, AskPacket::Swap { task }, ctx);
        self.send_to(
            sw,
            AskPacket::FetchRequest {
                task,
                scope: FetchScope::Inactive,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    fn check_completion(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.result.is_some() || !rt.fins.is_superset(&rt.senders) {
            return;
        }
        match rt.ina {
            Some(true) => {
                if rt.fetch == FetchState::Idle {
                    self.begin_final_fetch(task, ctx);
                } else {
                    rt.want_final = true;
                }
            }
            Some(false) => {
                let entries = rt.residual.take_entries(0);
                self.complete(task, entries, ctx);
            }
            None => {
                // Region RPC still in flight; completion re-checked when the
                // grant/deny arrives.
                rt.want_final = true;
            }
        }
    }

    fn begin_final_fetch(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        rt.fetch_seq += 1;
        let fetch_seq = rt.fetch_seq;
        rt.fetch = FetchState::Pending {
            fetch_seq,
            scope: FetchScope::All,
            is_final: true,
        };
        rt.want_final = false;
        self.trace
            .record(ctx.now(), TraceEvent::FetchSent { task, fetch_seq });
        self.send_to(
            self.switch.index() as u32,
            AskPacket::FetchRequest {
                task,
                scope: FetchScope::All,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    /// Publishes `entries` — the drained residual table, with the final
    /// fetch reply already folded in — as the task's result.
    fn complete(&mut self, task: TaskId, entries: HashMap<Key, u32>, ctx: &mut Context<'_>) {
        let now = ctx.now();
        self.trace.record(now, TraceEvent::TaskCompleted { task });
        let ina = {
            let rt = self.recv_tasks.get_mut(&task).expect("task present");
            debug_assert!(rt.result.is_none());
            rt.result = Some(TaskResult {
                task,
                entries,
                completed_at: now,
            });
            rt.ina == Some(true)
        };
        if ina {
            // Return the switch memory region (§3.1 step ⑫).
            self.send_to(
                self.switch.index() as u32,
                AskPacket::Control(ControlMsg::RegionRelease { task }),
                ctx,
            );
        }
    }

    /// Applies a fetch reply whose entries arrive as `(hash64, key bytes,
    /// value)` straight off the frame. Returns false (and does nothing) for
    /// a stray or stale reply.
    ///
    /// A swap-triggered reply merges into the residual table. The final
    /// reply never touches it: the table drains into the result map,
    /// pre-sized for the reply, and the reply folds straight in.
    fn apply_fetch_reply<'a>(
        &mut self,
        task: TaskId,
        fetch_seq: u32,
        n: u64,
        entries: impl IntoIterator<Item = (u64, &'a [u8], u32)>,
        ctx: &mut Context<'_>,
    ) -> bool {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return false;
        };
        let FetchState::Pending {
            fetch_seq: pending,
            is_final,
            ..
        } = rt.fetch
        else {
            return false; // stray or already-handled reply
        };
        if fetch_seq != pending {
            return false;
        }
        rt.fetch = FetchState::Idle;
        let op = rt.op;
        let result = if is_final {
            let mut result = rt.residual.take_entries(n as usize);
            for (_, key, value) in entries {
                fold_entry(&mut result, key, value, op);
            }
            Some(result)
        } else {
            for (hash, key, value) in entries {
                rt.residual.merge_hashed(hash, key, value, op);
            }
            None
        };
        let want_final = rt.want_final;
        self.trace
            .record(ctx.now(), TraceEvent::FetchMerged { task, entries: n });
        self.stats.tuples_fetched += n;
        self.stats.tuples_host_aggregated += n;
        self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(n);
        if let Some(result) = result {
            self.complete(task, result, ctx);
        } else if want_final {
            self.begin_final_fetch(task, ctx);
        }
        true
    }

    fn on_fetch_timer(&mut self, task: TaskId, fetch_seq_low: u32, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get(&task) else {
            return;
        };
        let FetchState::Pending {
            fetch_seq, scope, ..
        } = rt.fetch
        else {
            return;
        };
        if fetch_seq & 0xff_ffff != fetch_seq_low {
            return; // timer for an older fetch
        }
        self.send_to(
            self.switch.index() as u32,
            AskPacket::FetchRequest {
                task,
                scope,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    // ------------------------------------------------------------------
    // Control plane.
    // ------------------------------------------------------------------

    fn on_region_reply(&mut self, task: TaskId, granted: bool, ctx: &mut Context<'_>) {
        let mut senders: Vec<u32> = {
            let Some(rt) = self.recv_tasks.get_mut(&task) else {
                return;
            };
            if rt.ina.is_some() {
                return; // duplicate reply
            }
            rt.ina = Some(granted);
            self.trace
                .record(ctx.now(), TraceEvent::RegionResolved { task, granted });
            rt.senders.iter().copied().collect()
        };
        // Sorted so announce order (and thus the event schedule) does not
        // depend on HashSet iteration order, which varies per process.
        senders.sort_unstable();
        let me = self.my_index();
        for sender in senders {
            self.send_to(
                sender,
                AskPacket::Control(ControlMsg::TaskAnnounce { task, receiver: me }),
                ctx,
            );
        }
        // Announcements are not acknowledged; retry until the task finishes
        // (idempotent at the senders) so a lost announce cannot hang it.
        ctx.set_timer(
            self.config.retransmit_timeout.saturating_mul(8),
            token_announce(task),
        );
        // A co-located sender may already have recorded its FIN.
        self.check_completion(task, ctx);
    }

    fn on_region_timer(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get(&task) else {
            return;
        };
        if rt.ina.is_some() {
            return; // reply arrived
        }
        let op = rt.op;
        self.send_to(
            self.switch.index() as u32,
            AskPacket::Control(ControlMsg::RegionRequest { task, op }),
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_region(task));
    }

    fn on_announce_timer(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let me = self.my_index();
        let mut pending: Vec<u32> = {
            let Some(rt) = self.recv_tasks.get(&task) else {
                return;
            };
            if rt.result.is_some() {
                return; // task finished; stop retrying
            }
            rt.senders.difference(&rt.fins).copied().collect()
        };
        pending.sort_unstable(); // deterministic retry order (see on_region_reply)
        for sender in pending {
            self.send_to(
                sender,
                AskPacket::Control(ControlMsg::TaskAnnounce { task, receiver: me }),
                ctx,
            );
        }
        ctx.set_timer(
            self.config.retransmit_timeout.saturating_mul(8),
            token_announce(task),
        );
    }

    fn on_announce(&mut self, task: TaskId, receiver: u32, ctx: &mut Context<'_>) {
        self.announced.insert(task, receiver);
        if let Some(tuples) = self.pending_sends.remove(&task) {
            self.dispatch_send(task, receiver, tuples, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Plumbing.
    // ------------------------------------------------------------------

    fn send_to(&mut self, dst: u32, packet: AskPacket, ctx: &mut Context<'_>) {
        let layout = self.config.layout;
        let wire = packet.wire_bytes(&layout);
        let bytes =
            encode_envelope_parts(self.my_index(), dst, self.known_epoch, 0, &packet, &layout);
        // Everything leaves through the uplink to the switch.
        let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
    }

    // ------------------------------------------------------------------
    // Receive path.
    //
    // Inbound frames parse once into borrowed `FrameView`s and nothing is
    // materialized: data packets of any declared slot layout merge from
    // slot views, long-kv bodies and fetch replies from entry views, all
    // straight off the wire bytes. First-delivery data views are deferred
    // into `merge_batch` and merged grouped-by-task — all aggregation
    // operators are commutative and the merges emit nothing, so deferral
    // cannot change a single sent byte. Everything that reads residual
    // state (fins, fetch replies, control, epoch resync) and the long-kv
    // merge flush the batch first.
    // ------------------------------------------------------------------

    /// Epoch gate for a parsed view; `false` means drop the frame. A newer
    /// epoch means the switch restarted: deferred merges flush, then the
    /// daemon resyncs fully before processing this frame. An older epoch is
    /// a leftover of a dead incarnation (late verdict, ACK, or fetch reply
    /// computed against wiped switch state) and must not touch anything.
    fn admit_view(&mut self, view: &FrameView, ctx: &mut Context<'_>) -> bool {
        if view.epoch() == self.known_epoch {
            return true;
        }
        if view.epoch() > self.known_epoch {
            self.flush_merge_batch();
            self.resync_to_epoch(view.epoch(), ctx);
            true
        } else {
            self.stats.stale_epoch_drops += 1;
            false
        }
    }

    /// Protocol actions for one data view, of any declared slot layout,
    /// whose receive-window observation is already known. Packet-IO CPU is
    /// charged by the caller (per frame on the single path, per run on the
    /// burst path).
    fn data_view_action(
        &mut self,
        src: u32,
        ecn: bool,
        d: &DataPacketView,
        obs: Observation,
        ctx: &mut Context<'_>,
    ) {
        match obs {
            Observation::Stale => {}
            Observation::Duplicate => {
                self.stats.duplicates_dropped += 1;
                self.trace.record(
                    ctx.now(),
                    TraceEvent::DuplicateDropped {
                        channel: d.channel(),
                        seq: d.seq(),
                    },
                );
                self.reply_ack(src, d.channel(), d.seq(), ecn, ctx);
            }
            Observation::First => {
                self.stats.packets_received += 1;
                self.trace.record(
                    ctx.now(),
                    TraceEvent::Received {
                        channel: d.channel(),
                        seq: d.seq(),
                    },
                );
                let task = d.task();
                self.stats.host_pure_view += 1;
                self.merge_batch.push(d.clone());
                self.reply_ack(src, d.channel(), d.seq(), ecn, ctx);
                if let Some(rt) = self.recv_tasks.get_mut(&task) {
                    rt.packets_since_swap += 1;
                }
                self.maybe_swap(task, ctx);
            }
        }
    }

    /// Applies every deferred first-delivery data view to its task's
    /// residual table, resolving each task once per consecutive same-task
    /// run. Counter and CPU totals match merging each frame on arrival;
    /// only the (unobservable) merge timing moves.
    fn flush_merge_batch(&mut self) {
        if self.merge_batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.merge_batch);
        let mut merged = 0u64;
        let mut orphaned = 0u64;
        let mut i = 0;
        while i < batch.len() {
            let task = batch[i].task();
            let mut j = i;
            while j < batch.len() && batch[j].task() == task {
                j += 1;
            }
            match self.recv_tasks.get_mut(&task) {
                Some(rt) => {
                    let op = rt.op;
                    for d in &batch[i..j] {
                        for s in d.slots() {
                            rt.residual.merge_hashed(s.hash64(), s.key_bytes(), s.value(), op);
                            merged += 1;
                        }
                    }
                }
                None => {
                    for d in &batch[i..j] {
                        orphaned += d.occupied() as u64;
                    }
                }
            }
            i = j;
        }
        self.stats.tuples_host_aggregated += merged;
        self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(merged);
        self.orphan_tuples += orphaned;
        // Keep the batch's capacity for the next burst.
        self.merge_batch = batch;
        self.merge_batch.clear();
    }

    /// Merges a fetch reply's entries straight off the frame bytes — no
    /// `Arc<Vec<KvTuple>>` is ever built for the body.
    fn on_fetch_reply_view(
        &mut self,
        task: TaskId,
        fetch_seq: u32,
        entry_count: u32,
        view: &FrameView,
        ctx: &mut Context<'_>,
    ) {
        let entries = view
            .entries()
            .expect("fetch replies carry entries")
            .map(|e| (e.hash64(), e.key_bytes(), e.value()));
        if self.apply_fetch_reply(task, fetch_seq, entry_count as u64, entries, ctx) {
            self.stats.host_pure_view += 1;
        }
    }

    /// Handles one parsed frame on the view path. Deferred merges are not
    /// flushed on exit — the caller flushes after the frame (or burst).
    fn on_frame_view(&mut self, ecn: bool, view: &FrameView, ctx: &mut Context<'_>) {
        if !self.admit_view(view, ctx) {
            return;
        }
        let src = view.src();
        match view.packet() {
            PacketView::Ack { channel, seq, ece } => {
                if self.degraded && src == self.switch.index() as u32 {
                    // The switch is absorbing again; resume aggregation.
                    self.degraded = false;
                }
                self.on_ack(*channel, *seq, *ece, ctx)
            }
            PacketView::Data(d) => {
                self.cpu_busy += self.config.cpu_per_packet;
                let obs = self.observe(d.channel(), d.seq());
                self.data_view_action(src, ecn, d, obs, ctx);
            }
            PacketView::LongKv {
                task, channel, seq, ..
            } => self.on_long_kv(ecn, *task, *channel, *seq, view, ctx),
            PacketView::Fin { task, channel, seq } => {
                self.flush_merge_batch();
                self.cpu_busy += self.config.cpu_per_packet;
                match self.observe(*channel, *seq) {
                    Observation::Stale => {}
                    Observation::Duplicate => {
                        self.reply_ack(src, *channel, *seq, ecn, ctx);
                    }
                    Observation::First => {
                        let sender_host = channel.host();
                        self.reply_ack(src, *channel, *seq, ecn, ctx);
                        if let Some(rt) = self.recv_tasks.get_mut(task) {
                            rt.fins.insert(sender_host);
                        }
                        self.check_completion(*task, ctx);
                    }
                }
            }
            PacketView::FetchReply {
                task,
                fetch_seq,
                entry_count,
            } => {
                self.flush_merge_batch();
                self.on_fetch_reply_view(*task, *fetch_seq, *entry_count, view, ctx);
            }
            PacketView::Control(ControlMsg::RegionGrant { task, .. }) => {
                self.flush_merge_batch();
                self.on_region_reply(*task, true, ctx)
            }
            PacketView::Control(ControlMsg::RegionDeny { task }) => {
                self.flush_merge_batch();
                self.on_region_reply(*task, false, ctx)
            }
            PacketView::Control(ControlMsg::TaskAnnounce { task, receiver }) => {
                // A co-located announce merges and may complete the task.
                self.flush_merge_batch();
                self.on_announce(*task, *receiver, ctx)
            }
            // The epoch gate already did all the work for a notify.
            PacketView::Control(ControlMsg::EpochNotify { .. }) => {}
            // Packets a daemon never receives (switch-bound kinds).
            PacketView::Swap { .. }
            | PacketView::FetchRequest { .. }
            | PacketView::Control(
                ControlMsg::RegionRequest { .. } | ControlMsg::RegionRelease { .. },
            ) => {}
        }
    }

    /// A long-kv bypass body: its keys are too long for any slot, so the
    /// switch relayed it and the receiver merges every entry itself.
    fn on_long_kv(
        &mut self,
        ecn: bool,
        task: TaskId,
        channel: ChannelId,
        seq: SeqNo,
        view: &FrameView,
        ctx: &mut Context<'_>,
    ) {
        self.flush_merge_batch();
        self.stats.host_view_fallbacks += 1;
        self.cpu_busy += self.config.cpu_per_packet;
        let src = view.src();
        match self.observe(channel, seq) {
            Observation::Stale => {}
            Observation::Duplicate => {
                self.stats.duplicates_dropped += 1;
                self.reply_ack(src, channel, seq, ecn, ctx);
            }
            Observation::First => {
                self.stats.packets_received += 1;
                let entries = view.entries().expect("long-kv frames carry entries");
                let n = entries.len() as u64;
                match self.recv_tasks.get_mut(&task) {
                    Some(rt) => {
                        let op = rt.op;
                        for e in entries {
                            rt.residual
                                .merge_hashed(e.hash64(), e.key_bytes(), e.value(), op);
                        }
                        self.stats.tuples_host_aggregated += n;
                        self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(n);
                    }
                    None => self.orphan_tuples += n,
                }
                self.reply_ack(src, channel, seq, ecn, ctx);
            }
        }
    }

    /// Ingests a run of same-channel data views from one burst: the
    /// receive window resolves once for the whole run, every sequence
    /// number is observed into the reusable scratch buffer, packet-IO CPU
    /// is charged in one multiply, and the per-frame protocol actions
    /// replay in arrival order.
    fn ingest_data_run(&mut self, run: &[(bool, FrameView)], ctx: &mut Context<'_>) {
        debug_assert!(!run.is_empty());
        let mut obs = std::mem::take(&mut self.obs_scratch);
        obs.clear();
        {
            let PacketView::Data(first) = run[0].1.packet() else {
                unreachable!("runs contain only data views");
            };
            let w = self.config.window;
            let window = self
                .recv_windows
                .entry(first.channel())
                .or_insert_with(|| ReceiverWindow::new(w));
            for (_, view) in run {
                let PacketView::Data(d) = view.packet() else {
                    unreachable!("runs contain only data views");
                };
                obs.push(window.observe(d.seq().0));
            }
        }
        self.cpu_busy += self.config.cpu_per_packet.saturating_mul(run.len() as u64);
        for ((ecn, view), ob) in run.iter().zip(obs.iter()) {
            let PacketView::Data(d) = view.packet() else {
                unreachable!("runs contain only data views");
            };
            self.data_view_action(view.src(), *ecn, d, *ob, ctx);
        }
        self.obs_scratch = obs;
    }

    /// The burst receive path: the burst parses once into borrowed views,
    /// consecutive same-channel data frames ingest as runs, and the
    /// deferred merge batch drains exactly once at the end.
    fn on_frames_view(&mut self, burst: &mut Vec<(NodeId, Frame)>, ctx: &mut Context<'_>) {
        let mut frames = std::mem::take(&mut self.burst_views);
        for (_, frame) in burst.drain(..) {
            let ecn = frame.ecn_marked();
            if let Ok(view) = FrameView::parse(frame.into_payload()) {
                frames.push((ecn, view));
            }
        }
        let mut i = 0;
        while i < frames.len() {
            let view = &frames[i].1;
            // A frame joins a run only when it is data that needs no epoch
            // action; everything else dispatches singly (and may resync,
            // ending the grouping epoch).
            let run_channel = match view.packet() {
                PacketView::Data(d) if view.epoch() == self.known_epoch => Some(d.channel()),
                _ => None,
            };
            let Some(channel) = run_channel else {
                self.on_frame_view(frames[i].0, &frames[i].1, ctx);
                i += 1;
                continue;
            };
            let mut j = i + 1;
            while j < frames.len() {
                let v = &frames[j].1;
                match v.packet() {
                    PacketView::Data(d)
                        if v.epoch() == self.known_epoch && d.channel() == channel =>
                    {
                        j += 1;
                    }
                    _ => break,
                }
            }
            self.ingest_data_run(&frames[i..j], ctx);
            i = j;
        }
        self.flush_merge_batch();
        frames.clear();
        self.burst_views = frames;
    }
}

impl Node for AskDaemon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
    }

    fn on_frame(&mut self, _from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        let ecn = frame.ecn_marked();
        let Ok(view) = FrameView::parse(frame.into_payload()) else {
            return;
        };
        self.on_frame_view(ecn, &view, ctx);
        self.flush_merge_batch();
    }

    fn on_frames(&mut self, burst: &mut Vec<(NodeId, Frame)>, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        self.stats.burst_len[burst_bucket(burst.len() as u64)] += 1;
        self.on_frames_view(burst, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        match token >> 56 {
            TK_PUMP => {
                let ch_ix = (token & 0xffff_ffff) as usize;
                self.channels[ch_ix].pump_armed = false;
                self.pump(ch_ix, ctx);
            }
            TK_RETX => {
                let ch_ix = ((token >> 48) & 0xff) as usize;
                let seq = token & 0xffff_ffff_ffff;
                self.retransmit(ch_ix, seq, ctx);
            }
            TK_FETCH => {
                let task = TaskId(((token >> 24) & 0xffff_ffff) as u32);
                let fetch_seq_low = (token & 0xff_ffff) as u32;
                self.on_fetch_timer(task, fetch_seq_low, ctx);
            }
            TK_REGION => {
                self.on_region_timer(TaskId((token & 0xffff_ffff) as u32), ctx);
            }
            TK_ANNOUNCE => {
                self.on_announce_timer(TaskId((token & 0xffff_ffff) as u32), ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_pack_and_unpack() {
        let t = token_retx(3, 0x1234_5678);
        assert_eq!(t >> 56, TK_RETX);
        assert_eq!((t >> 48) & 0xff, 3);
        assert_eq!(t & 0xffff_ffff_ffff, 0x1234_5678);

        let t = token_fetch(TaskId(7), 42);
        assert_eq!(t >> 56, TK_FETCH);
        assert_eq!((t >> 24) & 0xffff_ffff, 7);
        assert_eq!(t & 0xff_ffff, 42);

        let t = token_pump(5);
        assert_eq!(t >> 56, TK_PUMP);
        assert_eq!(t & 0xffff_ffff, 5);
    }

    #[test]
    fn completion_frees_the_residual_table_and_late_duplicates_still_ack() {
        use crate::service::{reference_aggregate, AskServiceBuilder};
        use ask_wire::codec::{encode_envelope, Envelope};
        use ask_wire::packet::DataPacket;

        let cfg = AskConfig::tiny();
        let layout = cfg.layout;
        let mut service = AskServiceBuilder::new(2).config(cfg).seed(3).build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(1);
        // Far more keys than the tiny region holds: most land in the
        // residual table, the rest come back in the final fetch.
        let stream: Vec<KvTuple> = (0..400u64)
            .map(|i| KvTuple::new(Key::from_u64(i % 150), (i % 7 + 1) as u32))
            .collect();
        let want = reference_aggregate(stream.clone());
        service.submit_task(task, hosts[0], &[hosts[1]]);
        service.submit_stream(task, hosts[1], stream);
        service.run_until_complete(task, hosts[0], 50_000_000).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), want);

        let recv = service.daemon(hosts[0]);
        assert!(recv.stats().tuples_fetched > 0, "the switch absorbed some keys");
        assert_eq!(recv.recv_tasks[&task].residual.capacity(), 0);
        let dups_before = recv.stats().duplicates_dropped;
        let (&channel, window) = recv.recv_windows.iter().next().expect("one data channel");
        // A sequence number the receiver did see (the switch absorbed some
        // packets whole; those never reached it).
        let seq = (0..window.max_seq())
            .rev()
            .find(|&s| window.clone().observe(s) == Observation::Duplicate)
            .map(SeqNo)
            .expect("the receiver saw data packets");

        // Replay that data packet straight into the receiver.
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(KvTuple::new(Key::from_u64(1), 1_000));
        let late = AskPacket::Data(DataPacket {
            task,
            channel,
            seq,
            slots,
        });
        let env = Envelope::new(hosts[1].index() as u32, hosts[0].index() as u32, late);
        let frame = Frame::new(encode_envelope(&env, &layout));
        let switch = service.switch_id();
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[0], |d, ctx| d.on_frame(switch, frame, ctx));
        service.run_to_idle();

        let recv = service.daemon(hosts[0]);
        assert_eq!(recv.stats().duplicates_dropped, dups_before + 1);
        assert_eq!(recv.recv_tasks[&task].residual.capacity(), 0);
        assert_eq!(service.result(task, hosts[0]).unwrap(), want);
    }

    #[test]
    fn channel_ids_are_per_host_unique() {
        // host 3, 4 channels → ids 3*256 .. 3*256+3
        let base = 3 * CHANNEL_STRIDE;
        for i in 0..4 {
            let id = ChannelId(base + i);
            assert_eq!(id.0 / CHANNEL_STRIDE, 3, "host recoverable from id");
        }
    }
}
