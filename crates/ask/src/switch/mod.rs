//! The ASK switch: aggregation engine plus the network-facing node.

pub mod aggregator;

pub use aggregator::{AggregatorEngine, Observation, ViewVerdict};

use crate::config::AskConfig;
use crate::stats::SwitchTaskStats;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Node};
use ask_wire::codec::{encode_envelope, Envelope, FLAG_NO_AGGREGATE};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::packet::{AskPacket, ChannelId, ControlMsg, SeqNo, TaskId};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use bytes::Bytes;

/// Everything needed to emit the response for one data packet's verdict
/// after the engine pass: the addressing and the original payload bytes
/// (for the relay-unchanged fast path).
#[derive(Debug)]
struct DataMeta {
    src: u32,
    dst: u32,
    channel: ChannelId,
    seq: SeqNo,
    ecn: bool,
    wire: usize,
    payload: Bytes,
}

/// The top-of-rack ASK switch as a simulated network node.
///
/// The switch is both the data plane (every frame between hosts traverses
/// it; data packets run through the [`AggregatorEngine`] pipeline) and the
/// controller (it grants and releases aggregator-array regions in response
/// to control messages, §3.1 steps ③ and ⑫).
///
/// There is one receive datapath and nothing on it is materialized: every
/// frame is parsed once into a borrowed [`FrameView`], and every data frame
/// the switch accepts runs the engine's one aggregation kernel straight out
/// of the wire bytes — degraded no-aggregate frames included, with the
/// aggregator arrays switched off. A data frame whose declared slot layout
/// differs from the switch's own addresses registers this program does not
/// have; it is relayed raw, touching no dedup state, and counted
/// ([`AskSwitch::foreign_layout_relayed`]).
#[derive(Debug)]
pub struct AskSwitch {
    engine: AggregatorEngine,
    /// Next-hop overrides: destinations not listed are assumed directly
    /// attached. Lets ToR switches route cross-rack traffic via a spine
    /// (§7 multi-rack deployment).
    routes: std::collections::HashMap<u32, NodeId>,
    /// Frames that could not be routed (no link to destination).
    unroutable: u64,
    /// Frames that failed to decode.
    undecodable: u64,
    /// The switch's incarnation number, bumped by every crash/restart and
    /// stamped into every envelope the switch originates. Ingress frames
    /// from an older epoch are rejected — their sender still talks to a
    /// dead incarnation whose aggregator/dedup state is gone.
    epoch: u32,
    /// Ingress frames dropped by the epoch gate.
    stale_epoch_drops: u64,
    /// Data packets processed through the degraded no-aggregate path.
    noagg_relayed: u64,
    /// Data frames in a foreign slot layout, relayed raw.
    foreign_layout_relayed: u64,
    /// Data frames fully absorbed: answered with an ACK alone.
    pure_absorb: u64,
    /// Scratch buffers for burst ingest, reused across deliveries.
    batch_views: Vec<DataPacketView>,
    batch_meta: Vec<DataMeta>,
    batch_view_verdicts: Vec<ViewVerdict>,
}

impl AskSwitch {
    /// Creates a switch with the given configuration.
    pub fn new(config: AskConfig) -> Self {
        AskSwitch {
            engine: AggregatorEngine::new(config),
            routes: std::collections::HashMap::new(),
            unroutable: 0,
            undecodable: 0,
            epoch: 0,
            stale_epoch_drops: 0,
            noagg_relayed: 0,
            foreign_layout_relayed: 0,
            pure_absorb: 0,
            batch_views: Vec::new(),
            batch_meta: Vec::new(),
            batch_view_verdicts: Vec::new(),
        }
    }

    /// Crashes and restarts the switch: every register array, match table,
    /// dedup window, and task region is wiped ([`AggregatorEngine::crash_reset`])
    /// and the switch comes back in a new epoch, so anything computed
    /// against the dead incarnation — in-flight verdicts, ACKs, fetch
    /// replies, sender sequence spaces — is rejected by the epoch gates on
    /// both sides instead of corrupting the restarted state.
    pub fn crash(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.engine.crash_reset();
        self.batch_views.clear();
        self.batch_meta.clear();
        self.batch_view_verdicts.clear();
    }

    /// The switch's current incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Ingress frames dropped because they carried an older epoch.
    pub fn stale_epoch_drops(&self) -> u64 {
        self.stale_epoch_drops
    }

    /// Data packets that took the degraded no-aggregate pass-through path.
    pub fn noagg_relayed(&self) -> u64 {
        self.noagg_relayed
    }

    /// Data frames whose declared slot layout differs from the switch's,
    /// relayed raw to their destination without aggregation or dedup.
    pub fn foreign_layout_relayed(&self) -> u64 {
        self.foreign_layout_relayed
    }

    /// Data frames fully absorbed — answered with an ACK alone, nothing
    /// forwarded.
    pub fn pure_absorb_frames(&self) -> u64 {
        self.pure_absorb
    }

    /// Epoch gate for one ingress frame: frames from this epoch pass;
    /// older ones are dropped and answered with an
    /// [`ControlMsg::EpochNotify`] so the sender resynchronizes.
    fn epoch_admit(&mut self, src: u32, envelope_epoch: u32, ctx: &mut Context<'_>) -> bool {
        if envelope_epoch >= self.epoch {
            return true;
        }
        self.stale_epoch_drops += 1;
        let notify = AskPacket::Control(ControlMsg::EpochNotify { epoch: self.epoch });
        self.reply(src, notify, ctx);
        false
    }

    /// Routes frames for destination node `dst` via `next_hop` instead of
    /// assuming a direct link.
    pub fn set_route(&mut self, dst: u32, next_hop: NodeId) {
        self.routes.insert(dst, next_hop);
    }

    /// Restricts this switch's reliability state and aggregation to the
    /// given rack-local hosts (§7); see
    /// [`AggregatorEngine::set_local_hosts`].
    pub fn set_local_hosts(&mut self, hosts: impl IntoIterator<Item = u32>) {
        self.engine.set_local_hosts(hosts);
    }

    /// Per-task switch counters.
    pub fn task_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        self.engine.task_stats(task)
    }

    /// Direct access to the aggregation engine (benchmarks, inspection).
    pub fn engine(&self) -> &AggregatorEngine {
        &self.engine
    }

    /// Mutable access to the aggregation engine.
    pub fn engine_mut(&mut self) -> &mut AggregatorEngine {
        &mut self.engine
    }

    /// Frames dropped because no link to the destination exists.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Frames dropped because they failed integrity or format checks
    /// (corrupted in transit, or not ASK traffic at all).
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Relays already-encoded envelope bytes unchanged. Used for every
    /// packet the switch does not rewrite: the payload `Bytes` handle from
    /// the incoming frame is reused directly (an O(1) reference-count
    /// bump), skipping the per-hop re-encode and checksum entirely.
    fn forward_raw(&mut self, dst: u32, bytes: Bytes, wire: usize, ecn: bool, ctx: &mut Context<'_>) {
        let to = self
            .routes
            .get(&dst)
            .copied()
            .unwrap_or_else(|| NodeId::from_index(dst as usize));
        let mut frame = Frame::with_wire_bytes(bytes, wire);
        // Propagate a congestion-experienced mark across hops (IP ECN
        // semantics: once marked, stays marked).
        frame.set_ecn_marked(ecn);
        if ctx.send(to, frame).is_err() {
            self.unroutable += 1;
        }
    }

    /// Encodes and sends a packet the switch originates, stamped with its
    /// current epoch.
    fn reply(&mut self, dst: u32, packet: AskPacket, ctx: &mut Context<'_>) {
        let me = ctx.me().index() as u32;
        let envelope = Envelope {
            src: me,
            dst,
            epoch: self.epoch,
            flags: 0,
            packet,
        };
        let layout = self.engine.config().layout;
        let bytes = encode_envelope(&envelope, &layout);
        let wire = envelope.wire_bytes(&layout);
        self.forward_raw(dst, bytes, wire, false, ctx);
    }

    /// Emits the response for one view verdict. Fully-absorbed frames cost
    /// an ACK and nothing else. Residual forwards either relay the inbound
    /// buffer unchanged (nothing was aggregated out) or rewrite it with
    /// [`DataPacketView::residual_frame`], which copies the surviving slots
    /// without materializing any of them.
    fn emit_view_verdict(
        &mut self,
        verdict: ViewVerdict,
        view: &DataPacketView,
        m: DataMeta,
        ctx: &mut Context<'_>,
    ) {
        match verdict {
            ViewVerdict::Stale => {}
            ViewVerdict::FullyAggregated => {
                self.pure_absorb += 1;
                let ack = AskPacket::Ack {
                    channel: m.channel,
                    seq: m.seq,
                    ece: m.ecn,
                };
                self.reply(m.src, ack, ctx);
            }
            ViewVerdict::Forward { residual } => {
                if residual == view.bitmap() {
                    self.forward_raw(m.dst, m.payload, m.wire, m.ecn, ctx);
                } else {
                    let bytes = view.residual_frame(residual);
                    let layout = self.engine.config().layout;
                    let mut wire = PACKET_OVERHEAD;
                    let mut bm = residual;
                    while bm != 0 {
                        let i = bm.trailing_zeros() as usize;
                        wire += layout.slot_bytes(i);
                        bm &= bm - 1;
                    }
                    self.forward_raw(m.dst, bytes, wire, m.ecn, ctx);
                }
            }
        }
    }

    /// Runs the accumulated view batch through
    /// [`AggregatorEngine::process_batch_views`] and emits each verdict's
    /// response in input order.
    fn flush_view_batch(
        &mut self,
        views: &mut Vec<DataPacketView>,
        meta: &mut Vec<DataMeta>,
        ctx: &mut Context<'_>,
    ) {
        if views.is_empty() {
            return;
        }
        let mut verdicts = std::mem::take(&mut self.batch_view_verdicts);
        verdicts.clear();
        self.engine.process_batch_views(views, &mut verdicts);
        for ((verdict, view), m) in verdicts.drain(..).zip(views.drain(..)).zip(meta.drain(..)) {
            self.emit_view_verdict(verdict, &view, m, ctx);
        }
        self.batch_view_verdicts = verdicts;
    }

    /// Handles every packet kind other than data, with no materialization:
    /// relays reuse the raw payload bytes and the long-kv counter reads the
    /// validated entry count straight from the view.
    #[allow(clippy::too_many_arguments)] // the parsed frame's full identity
    fn handle_nondata(
        &mut self,
        src: u32,
        dst: u32,
        packet: PacketView,
        payload: Bytes,
        ecn: bool,
        wire: usize,
        ctx: &mut Context<'_>,
    ) {
        match packet {
            PacketView::Data(_) => unreachable!("data packets take the batch path"),
            PacketView::LongKv {
                channel,
                seq,
                task,
                entry_count,
            } => {
                // Bypass traffic: keep the receive window dense, drop only
                // provably-acknowledged (stale) packets, forward the rest —
                // the receiver is the deduplicating endpoint.
                match self.engine.observe_bypass(channel, seq) {
                    Observation::Stale => {}
                    Observation::First | Observation::Duplicate => {
                        self.engine.note_longkv_forwarded(task, entry_count as u64);
                        self.forward_raw(dst, payload, wire, ecn, ctx);
                    }
                }
            }
            PacketView::Fin { channel, seq, .. } => {
                match self.engine.observe_bypass(channel, seq) {
                    Observation::Stale => {}
                    Observation::First | Observation::Duplicate => {
                        self.forward_raw(dst, payload, wire, ecn, ctx);
                    }
                }
            }
            PacketView::Ack { .. } | PacketView::FetchReply { .. } => {
                self.forward_raw(dst, payload, wire, false, ctx);
            }
            PacketView::Swap { task } => {
                self.engine.swap(task);
            }
            PacketView::FetchRequest {
                task,
                scope,
                fetch_seq,
            } => {
                let entries = self.engine.fetch(task, scope, fetch_seq);
                let reply = AskPacket::FetchReply {
                    task,
                    fetch_seq,
                    entries,
                };
                self.reply(src, reply, ctx);
            }
            PacketView::Control(msg) => match msg {
                ControlMsg::RegionRequest { task, op } => {
                    let reply = match self.engine.register_task_with_op(task, src, op) {
                        Some(region) => ControlMsg::RegionGrant { task, region },
                        None => ControlMsg::RegionDeny { task },
                    };
                    self.reply(src, AskPacket::Control(reply), ctx);
                }
                ControlMsg::RegionRelease { task } => {
                    self.engine.release_task(task);
                }
                // Host-to-host control traffic transits the switch.
                ControlMsg::TaskAnnounce { .. }
                | ControlMsg::RegionGrant { .. }
                | ControlMsg::RegionDeny { .. }
                | ControlMsg::EpochNotify { .. } => {
                    self.forward_raw(dst, payload, wire, false, ctx)
                }
            },
        }
    }

    /// Ingests a delivery burst: each frame parses once (one CRC pass, no
    /// slot vectors), consecutive aggregatable data frames batch through
    /// [`AggregatorEngine::process_batch_views`], and every other frame
    /// flushes the pending batch first, so replies and forwards leave in
    /// arrival order.
    fn ingest(&mut self, frames: impl Iterator<Item = Frame>, ctx: &mut Context<'_>) {
        let mut views = std::mem::take(&mut self.batch_views);
        let mut meta = std::mem::take(&mut self.batch_meta);
        debug_assert!(views.is_empty() && meta.is_empty());
        for frame in frames {
            let ecn = frame.ecn_marked();
            let wire = frame.wire_bytes();
            let payload = frame.into_payload();
            let view = match FrameView::parse(payload.clone()) {
                Ok(v) => v,
                Err(_) => {
                    self.undecodable += 1;
                    continue;
                }
            };
            if !self.epoch_admit(view.src(), view.epoch(), ctx) {
                continue;
            }
            let (src, dst) = (view.src(), view.dst());
            match view.packet() {
                PacketView::Data(d) if !d.matches_layout(&self.engine.config().layout) => {
                    // Slots this program cannot address: relay raw, like an
                    // untracked channel. The receiver reads the frame's own
                    // layout, dedups and merges it. The pending batch flushes
                    // first so responses leave in arrival order.
                    self.flush_view_batch(&mut views, &mut meta, ctx);
                    self.foreign_layout_relayed += 1;
                    self.forward_raw(dst, payload, wire, ecn, ctx);
                }
                PacketView::Data(d) => {
                    let m = DataMeta {
                        src,
                        dst,
                        channel: d.channel(),
                        seq: d.seq(),
                        ecn,
                        wire,
                        payload,
                    };
                    if view.flags() & FLAG_NO_AGGREGATE != 0 {
                        // Degraded pass-through: the dedup gate and PktState
                        // still run so absorbed-but-unacked packets can't
                        // double-count, but nothing is aggregated.
                        self.flush_view_batch(&mut views, &mut meta, ctx);
                        self.noagg_relayed += 1;
                        let verdict = self.engine.process_view_no_aggregate(d);
                        self.emit_view_verdict(verdict, d, m, ctx);
                    } else {
                        meta.push(m);
                        views.push(d.clone());
                    }
                }
                _ => {
                    self.flush_view_batch(&mut views, &mut meta, ctx);
                    let packet = view.into_packet();
                    self.handle_nondata(src, dst, packet, payload, ecn, wire, ctx);
                }
            }
        }
        self.flush_view_batch(&mut views, &mut meta, ctx);
        self.batch_views = views;
        self.batch_meta = meta;
    }
}

impl Node for AskSwitch {
    /// A single frame is a one-frame burst.
    fn on_frame(&mut self, _from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
        self.ingest(std::iter::once(frame), ctx);
    }

    /// A restart after a scheduled node-down window is a crash/recovery
    /// cycle: the data plane comes back empty in a fresh epoch.
    fn on_restart(&mut self, _ctx: &mut Context<'_>) {
        self.crash();
    }

    fn on_frames(&mut self, burst: &mut Vec<(NodeId, Frame)>, ctx: &mut Context<'_>) {
        self.ingest(burst.drain(..).map(|(_, frame)| frame), ctx);
    }
}
