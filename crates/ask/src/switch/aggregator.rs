//! The switch data-plane program: vectorized multi-key aggregation over
//! two-dimensional aggregator arrays, per-flow reliability state, and the
//! shadow-copy mechanism — all expressed as register accesses on an
//! [`ask_pisa::pipeline::Pipeline`] so the PISA constraints are enforced.
//!
//! Pipeline memory map (stage → register arrays):
//!
//! ```text
//! stage 0      task_table      (match: task → region, indicator index)
//!              copy_indicator  (1 bit  × max_tasks)
//!              max_seq         (64 bit × max_channels)
//!              seen            (1 bit  × max_channels × W)   compact §3.3
//! stage 1..    AA_0 .. AA_{N-1}, 4 per stage, 64-bit aggregators
//!              (kPart = high 32 bits, vPart = low 32 bits; each AA holds
//!              2 × aggregators_per_aa registers: two shadow copies, §3.4)
//! last stage   PktState        (64 bit × max_channels × W)   §3.3
//!              (the paper stores 32-bit bitmaps for its 32 AAs; we size
//!              the register to the architecture's maximum width so chained
//!              layouts up to 64 slots keep per-packet state)
//! ```
//!
//! One [`process_view`](AggregatorEngine::process_view) call is one packet
//! pass: dedup gate first, then one access per aggregator array in stage
//! order, then the `PktState` read-or-write. Like the ASIC, the pass reads
//! keys and values in place from the frame bytes ([`DataPacketView`]); no
//! packet is ever materialized on the data path.

use crate::config::AskConfig;
use crate::stats::{burst_bucket, SwitchTaskStats};
use ask_pisa::error::AccessError;
use ask_pisa::pipeline::{ArrayId, Pass, Pipeline, Violation};
use ask_pisa::spec::PipelineSpec;
use ask_pisa::table::TableId;
use ask_wire::key::Key;
use ask_wire::packet::{AaRegion, AggregateOp, ChannelId, FetchScope, KvTuple, SeqNo, TaskId};
use ask_wire::view::DataPacketView;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Mixes a 64-bit key hash into an aggregator index (splitmix64
/// finalizer), decorrelated from the subspace-partition hash (which uses
/// the raw `hash64`). The view lanes hash straight off the wire bytes.
fn index_mix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of the dedup gate for one sequenced packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// Behind the receive window; drop silently.
    Stale,
    /// First appearance; process normally.
    First,
    /// Retransmission; consult `PktState`.
    Duplicate,
}

/// Verdict for one data packet.
///
/// A partial absorb reports the surviving slot bitmap, not a rewritten
/// packet: the caller re-frames the original wire bytes with
/// [`ask_wire::view::DataPacketView::residual_frame`], so nothing is ever
/// materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewVerdict {
    /// Stale packet, dropped without any response.
    Stale,
    /// Every tuple aggregated: drop the frame and ACK the sender.
    FullyAggregated,
    /// Residual tuples remain: re-frame and forward the surviving slots.
    Forward {
        /// Bitmap of the slots that survived aggregation.
        residual: u128,
    },
}

/// Structure-of-arrays scratch for a burst of data-packet views: one lane
/// entry per occupied slot across the whole burst, plus a packed per-slot
/// `kPart` segment lane. Filling the lanes is the columnar pre-hash phase
/// (every key in the burst is FNV+splitmix-hashed in one tight loop over
/// the wire bytes); [`AggregatorEngine::process_batch_views`] then replays
/// each packet's lane range against the register arrays.
#[derive(Debug, Default)]
struct ViewLanes {
    /// Logical slot index of each occupied slot, burst-concatenated.
    slot_ix: Vec<u32>,
    /// Slot value lane.
    value: Vec<u32>,
    /// Pre-mixed aggregator index hash lane.
    mix: Vec<u64>,
    /// Packed `kPart` segments: 1 per short slot, `m` per medium slot.
    seg: Vec<u32>,
    /// Per-packet `(slot_start, slot_end, seg_start)` ranges into the lanes.
    pkt: Vec<(u32, u32, u32)>,
}

impl ViewLanes {
    /// Columnar pre-hash: walks every occupied slot of every view in order,
    /// splitting slot index / value / index hash / key segments into their
    /// own lanes.
    fn fill(&mut self, views: &[DataPacketView]) {
        self.slot_ix.clear();
        self.value.clear();
        self.mix.clear();
        self.seg.clear();
        self.pkt.clear();
        for v in views {
            let slot_start = self.slot_ix.len() as u32;
            let seg_start = self.seg.len() as u32;
            let short = v.short_slots();
            let m = v.medium_segments();
            for s in v.slots() {
                self.slot_ix.push(s.index() as u32);
                self.value.push(s.value());
                self.mix.push(index_mix(s.hash64()));
                if s.index() < short {
                    self.seg.push(s.segment(0));
                } else {
                    for j in 0..m {
                        self.seg.push(s.segment(j));
                    }
                }
            }
            self.pkt
                .push((slot_start, self.slot_ix.len() as u32, seg_start));
        }
    }
}

/// Where a claimed aggregator lives, for fast harvest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// `aa` is the short slot's AA index; `idx` the physical register index.
    Short { aa: usize, idx: usize },
    /// `group` is the medium group; `idx` the physical register index shared
    /// by all `m` coalesced AAs.
    Medium { group: usize, idx: usize },
}

#[derive(Debug)]
struct TaskEntry {
    region: AaRegion,
    indicator_idx: usize,
    receiver: u32,
    op: AggregateOp,
    /// Claims per shadow copy.
    claims: [Vec<Claim>; 2],
    /// Last served fetch sequence and its cached reply. The harvest is
    /// behind an `Arc` so cache replays and the outgoing reply packet
    /// share one buffer instead of cloning the tuple vector.
    fetch_cache: Option<(u32, Arc<Vec<KvTuple>>)>,
    stats: SwitchTaskStats,
}

/// "No slot" sentinel in a [`DispatchEntry`]: the channel is pure-forwarded
/// or the task is not registered.
const SLOT_NONE: u32 = u32::MAX;

/// "Region size is not a power of two" sentinel: fall back to modulo mixing.
const MASK_MODULO: u64 = u64::MAX;

/// One line of the direct-mapped per-channel dispatch cache: everything
/// a packet pass needs that would otherwise cost a `HashMap` probe — the
/// channel's reliability slot, the task's match-table action data (region,
/// indicator, operator), and the task's dense slot for stats updates. The
/// action data is latched here at fill time, which is sound because it is
/// written only by the control plane (install/release), and both paths bump
/// `dispatch_gen` to invalidate every line. The copy indicator is *not*
/// cached: it changes per-pass on shadow swaps and stays a register access.
#[derive(Debug, Clone, Copy)]
struct DispatchEntry {
    /// Stamp of the generation this line was filled in; any control-plane
    /// change bumps the engine's generation and thereby invalidates it.
    gen: u64,
    channel: ChannelId,
    task: TaskId,
    /// Channel's dedup-state slot, or [`SLOT_NONE`] for pure forwarding.
    ch_slot: u32,
    /// Task's slot in the dense task store, or [`SLOT_NONE`] if unknown.
    task_slot: u32,
    region: AaRegion,
    indicator_idx: u32,
    op: AggregateOp,
    /// `aggregators - 1` when the region size is a power of two (index
    /// mixing becomes an AND), else [`MASK_MODULO`].
    index_mask: u64,
}

impl DispatchEntry {
    fn invalid() -> Self {
        DispatchEntry {
            gen: 0,
            channel: ChannelId(u32::MAX),
            task: TaskId(u32::MAX),
            ch_slot: SLOT_NONE,
            task_slot: SLOT_NONE,
            region: AaRegion {
                base: 0,
                aggregators: 1,
            },
            indicator_idx: 0,
            op: AggregateOp::Sum,
            index_mask: MASK_MODULO,
        }
    }
}

/// The switch aggregation engine. Pure computation — no networking — so
/// benchmarks (e.g. Figure 9's prioritization sweep) can drive it directly.
#[derive(Debug)]
pub struct AggregatorEngine {
    config: AskConfig,
    pipeline: Pipeline,
    aas: Vec<ArrayId>,
    /// Match-action table mapping task id → (region base, region length,
    /// copy-indicator index); the control plane installs an entry per
    /// registered task ("the switch uses the task ID to identify the
    /// aggregator memory region", §3.1).
    task_table: TableId,
    copy_indicator: ArrayId,
    max_seq: ArrayId,
    seen: ArrayId,
    pkt_state: ArrayId,
    /// Dense task store indexed by indicator index — the indicator pool is
    /// already a recycled `0..max_tasks` space, so it doubles as the slot
    /// allocator. The data path reaches entries by slot; only control-plane
    /// calls go through `task_index`.
    task_slots: Vec<Option<TaskEntry>>,
    /// Task id → slot in `task_slots`.
    task_index: HashMap<TaskId, usize>,
    /// Counters of released tasks, kept for post-mortem inspection.
    finished_stats: HashMap<TaskId, SwitchTaskStats>,
    channel_slots: HashMap<ChannelId, usize>,
    /// Direct-mapped dispatch cache, indexed by the channel id's low bits.
    dispatch: Vec<DispatchEntry>,
    dispatch_mask: usize,
    /// Current dispatch generation; bumped on task install/release and on
    /// `set_local_hosts`, which invalidates every cache line at once.
    dispatch_gen: u64,
    free_indicators: Vec<usize>,
    /// Free `[base, len)` slices of the per-copy aggregator space.
    free_regions: Vec<(u32, u32)>,
    /// If set, only channels whose owning host is in this set get
    /// reliability state and aggregation; other (cross-rack) channels are
    /// pure-forwarded (§7 "Deployment in Multi-rack networks").
    local_hosts: Option<std::collections::HashSet<u32>>,
    /// Exact `(channel, seq)` absorption journal, kept only when
    /// [`AskConfig::absorption_audit`] is set. Oracle bookkeeping for the
    /// conformance harness — real hardware has no analogue.
    absorbed_seqs: Option<HashSet<(ChannelId, u64)>>,
    /// SoA scratch for the view ingest path, reused across bursts.
    view_lanes: ViewLanes,
    /// Violations journaled by pipelines discarded in [`crash_reset`]
    /// (`AggregatorEngine::crash_reset`); added to the live pipeline's count
    /// so the PISA-legality invariant spans crashes.
    carried_violations: u64,
}

/// Register arrays of a freshly built switch pipeline.
struct PipelineAlloc {
    pipeline: Pipeline,
    task_table: TableId,
    copy_indicator: ArrayId,
    max_seq: ArrayId,
    seen: ArrayId,
    aas: Vec<ArrayId>,
    pkt_state: ArrayId,
}

impl AggregatorEngine {
    /// Builds the engine, allocating all register arrays on a freshly
    /// created pipeline sized from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent ([`AskConfig::validate`]) or the
    /// layout cannot fit a Tofino3-like pipeline chain.
    pub fn new(config: AskConfig) -> Self {
        config.validate();
        let alloc = Self::build_pipeline(&config);
        let free_indicators: Vec<usize> = (0..config.max_tasks).rev().collect();
        let free_regions = vec![(0, config.aggregators_per_aa as u32)];
        let absorbed_seqs = config.absorption_audit.then(HashSet::new);
        let dispatch_lines = config.max_channels.next_power_of_two().max(64);
        let task_slots = (0..config.max_tasks).map(|_| None).collect();
        AggregatorEngine {
            config,
            pipeline: alloc.pipeline,
            aas: alloc.aas,
            task_table: alloc.task_table,
            copy_indicator: alloc.copy_indicator,
            max_seq: alloc.max_seq,
            seen: alloc.seen,
            pkt_state: alloc.pkt_state,
            task_slots,
            task_index: HashMap::new(),
            finished_stats: HashMap::new(),
            channel_slots: HashMap::new(),
            dispatch: vec![DispatchEntry::invalid(); dispatch_lines],
            dispatch_mask: dispatch_lines - 1,
            dispatch_gen: 1,
            free_indicators,
            free_regions,
            local_hosts: None,
            absorbed_seqs,
            view_lanes: ViewLanes::default(),
            carried_violations: 0,
        }
    }

    /// Builds and allocates the switch program's pipeline from scratch —
    /// used both at construction and when a crash wipes the data plane.
    fn build_pipeline(config: &AskConfig) -> PipelineAlloc {
        let n_aas = config.layout.aggregator_arrays();
        let aa_stages = n_aas.div_ceil(4);
        let stages_needed = 1 + aa_stages + 1;
        let chain = stages_needed.div_ceil(16).max(1);
        let mut pipeline = Pipeline::new(PipelineSpec::tofino3_chained(chain));

        let task_table = pipeline
            .alloc_table(0, config.max_tasks, 4)
            .expect("task table fits stage 0");
        let copy_indicator = pipeline
            .alloc_array(0, config.max_tasks, 1)
            .expect("copy indicator fits stage 0");
        let max_seq = pipeline
            .alloc_array(0, config.max_channels, 64)
            .expect("max_seq fits stage 0");
        let seen = pipeline
            .alloc_array(0, config.max_channels * config.window, 1)
            .expect("seen fits stage 0");

        let mut aas = Vec::with_capacity(n_aas);
        for i in 0..n_aas {
            let stage = 1 + i / 4;
            let id = pipeline
                .alloc_array(stage, 2 * config.aggregators_per_aa, 64)
                .unwrap_or_else(|e| panic!("AA_{i} does not fit stage {stage}: {e}"));
            aas.push(id);
        }
        let pkt_state = pipeline
            .alloc_array(1 + aa_stages, config.max_channels * config.window, 64)
            .expect("PktState fits final stage");
        PipelineAlloc {
            pipeline,
            task_table,
            copy_indicator,
            max_seq,
            seen,
            aas,
            pkt_state,
        }
    }

    /// Power-failure semantics: every register array, match table, dedup
    /// window, task region, and cached verdict is gone; only control-plane
    /// software state that would live off-switch survives (finished-task
    /// counters, the host-locality config, and the violation total, which
    /// [`AggregatorEngine::constraint_violations`] carries across the
    /// rebuild). Live tasks' counters are banked into the finished set so
    /// observability spans the crash.
    pub fn crash_reset(&mut self) {
        for (&task, &slot) in &self.task_index {
            if let Some(entry) = self.task_slots[slot].take() {
                self.finished_stats
                    .entry(task)
                    .or_default()
                    .merge(&entry.stats);
            }
        }
        self.task_index.clear();
        self.carried_violations += self.pipeline.violation_count();
        let alloc = Self::build_pipeline(&self.config);
        self.pipeline = alloc.pipeline;
        self.aas = alloc.aas;
        self.task_table = alloc.task_table;
        self.copy_indicator = alloc.copy_indicator;
        self.max_seq = alloc.max_seq;
        self.seen = alloc.seen;
        self.pkt_state = alloc.pkt_state;
        for slot in &mut self.task_slots {
            *slot = None;
        }
        self.channel_slots.clear();
        self.dispatch_gen += 1; // every cached dispatch line is now wrong
        self.free_indicators = (0..self.config.max_tasks).rev().collect();
        self.free_regions = vec![(0, self.config.aggregators_per_aa as u32)];
        // The audit journal is per-epoch: sequence spaces restart at zero
        // after a crash, so old (channel, seq) keys would falsely collide.
        self.absorbed_seqs = self.config.absorption_audit.then(HashSet::new);
    }

    /// Restricts reliability state and aggregation to channels owned by
    /// `hosts` — the §7 top-of-rack deployment, where a ToR serves only its
    /// own rack and cross-rack traffic bypasses it as plain forwarding.
    pub fn set_local_hosts(&mut self, hosts: impl IntoIterator<Item = u32>) {
        self.local_hosts = Some(hosts.into_iter().collect());
        self.dispatch_gen += 1; // cached channel verdicts may have changed
    }

    /// Looks up a live task entry by id (control-plane path).
    fn task_entry(&self, task: TaskId) -> Option<&TaskEntry> {
        let &slot = self.task_index.get(&task)?;
        self.task_slots[slot].as_ref()
    }

    /// Mutable task entry for the dispatch slot, if the task is registered.
    fn slot_entry_mut(&mut self, task_slot: u32) -> Option<&mut TaskEntry> {
        if task_slot == SLOT_NONE {
            return None;
        }
        self.task_slots[task_slot as usize].as_mut()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &AskConfig {
        &self.config
    }

    /// Per-task counters, surviving task release; `None` for unknown tasks.
    pub fn task_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        // A task can have both a live entry and banked counters: a crash
        // banks the pre-crash stats while the re-registered epoch keeps its
        // own. Observability spans the crash, so sum them.
        let live = self.task_entry(task).map(|t| t.stats);
        let finished = self.finished_stats.get(&task).copied();
        match (live, finished) {
            (Some(mut l), Some(f)) => {
                l.merge(&f);
                Some(l)
            }
            (l, f) => l.or(f),
        }
    }

    /// The raw node index registered as `task`'s receiver.
    pub fn task_receiver(&self, task: TaskId) -> Option<u32> {
        self.task_entry(task).map(|t| t.receiver)
    }

    /// Registers a task with the paper's default SUM operator.
    /// Returns `None` (deny) if switch memory or task table is exhausted.
    pub fn register_task(&mut self, task: TaskId, receiver: u32) -> Option<AaRegion> {
        self.register_task_with_op(task, receiver, AggregateOp::Sum)
    }

    /// Registers a task with an explicit aggregation operator; the operator
    /// rides in the task's match-table action data, selecting the stateful
    /// ALU instruction the aggregator arrays execute for this task's
    /// packets.
    pub fn register_task_with_op(
        &mut self,
        task: TaskId,
        receiver: u32,
        op: AggregateOp,
    ) -> Option<AaRegion> {
        if self.config.force_host_only {
            return None;
        }
        if let Some(entry) = self.task_entry(task) {
            return Some(entry.region);
        }
        let want = self.config.region_aggregators as u32;
        let slot = self.free_regions.iter().position(|&(_, len)| len >= want)?;
        let indicator_idx = self.free_indicators.pop()?;
        let (base, len) = self.free_regions[slot];
        if len == want {
            self.free_regions.remove(slot);
        } else {
            self.free_regions[slot] = (base + want, len - want);
        }
        let region = AaRegion {
            base,
            aggregators: want,
        };
        self.pipeline
            .control_write(self.copy_indicator, indicator_idx, 0);
        self.pipeline
            .table_insert(
                self.task_table,
                task.0 as u64,
                vec![
                    region.base as u64,
                    region.aggregators as u64,
                    indicator_idx as u64,
                    op.to_code() as u64,
                ],
            )
            .expect("table capacity equals the indicator pool");
        self.task_slots[indicator_idx] = Some(TaskEntry {
            region,
            indicator_idx,
            receiver,
            op,
            claims: [Vec::new(), Vec::new()],
            fetch_cache: None,
            stats: SwitchTaskStats::default(),
        });
        self.task_index.insert(task, indicator_idx);
        self.dispatch_gen += 1; // "unknown task" cache lines are now wrong
        Some(region)
    }

    /// Releases a task's region and indicator; idempotent. Any values still
    /// in the region are zeroed (the receiver is expected to have fetched
    /// them first).
    pub fn release_task(&mut self, task: TaskId) {
        let Some(slot) = self.task_index.remove(&task) else {
            return;
        };
        let mut entry = self.task_slots[slot].take().expect("indexed task present");
        self.dispatch_gen += 1; // drop every cached line naming this task
        self.pipeline.table_remove(self.task_table, task.0 as u64);
        for copy in 0..2 {
            let claims = std::mem::take(&mut entry.claims[copy]);
            self.reset_claims(&claims);
        }
        self.free_indicators.push(entry.indicator_idx);
        self.free_regions
            .push((entry.region.base, entry.region.aggregators));
        self.coalesce_free_regions();
        // Merge (not insert): the task may have been registered before a
        // crash too, and its pre-crash counters already live here.
        self.finished_stats
            .entry(task)
            .or_default()
            .merge(&entry.stats);
    }

    fn coalesce_free_regions(&mut self) {
        self.free_regions.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.free_regions.len());
        for &(base, len) in &self.free_regions {
            match merged.last_mut() {
                Some((b, l)) if *b + *l == base => *l += len,
                _ => merged.push((base, len)),
            }
        }
        self.free_regions = merged;
    }

    fn channel_slot(&mut self, channel: ChannelId) -> Option<usize> {
        if let Some(local) = &self.local_hosts {
            if !local.contains(&channel.host()) {
                return None; // cross-rack flow: no state, pure forwarding
            }
        }
        if let Some(&s) = self.channel_slots.get(&channel) {
            return Some(s);
        }
        let next = self.channel_slots.len();
        if next >= self.config.max_channels {
            return None;
        }
        self.channel_slots.insert(channel, next);
        Some(next)
    }

    /// Runs the dedup gate for one sequenced packet: the `max_seq` stale
    /// guard, then the compact even/odd `seen` bitmap (§3.3, Eq. 8).
    fn observe_in_pass(
        pass: &mut Pass<'_>,
        max_seq: ArrayId,
        seen: ArrayId,
        ch_slot: usize,
        window: usize,
        seq: u64,
    ) -> Result<Observation, AccessError> {
        let w = window as u64;
        let new_max = pass.access(max_seq, ch_slot, |v| {
            *v = (*v).max(seq);
            *v
        })?;
        if seq + w <= new_max {
            return Ok(Observation::Stale);
        }
        let r = (seq % w) as usize;
        let q_even = (seq / w).is_multiple_of(2);
        let bit = ch_slot * window + r;
        let observed = if q_even {
            pass.set_bit(seen, bit)?
        } else {
            pass.clr_bitc(seen, bit)?
        };
        Ok(if observed {
            Observation::Duplicate
        } else {
            Observation::First
        })
    }

    /// Dedup-gates a bypass packet (long-kv or FIN) that shares the
    /// channel's sequence space but is never aggregated. The switch forwards
    /// bypass packets regardless of duplication (the receiver dedups), but
    /// must still record them so the `seen` window stays dense.
    pub fn observe_bypass(&mut self, channel: ChannelId, seq: SeqNo) -> Observation {
        let Some(slot) = self.channel_slot(channel) else {
            return Observation::First; // untracked channel: pure forwarding
        };
        let mut pass = self.pipeline.begin_pass();
        Self::observe_in_pass(
            &mut pass,
            self.max_seq,
            self.seen,
            slot,
            self.config.window,
            seq.0,
        )
        // Degraded mode (violation journaled by the pipeline): forward as a
        // first sighting — the receiver's own window dedups bypass packets.
        .unwrap_or(Observation::First)
    }

    /// Records a forwarded long-key bypass packet in the task's counters.
    pub fn note_longkv_forwarded(&mut self, task: TaskId, tuples: u64) {
        if let Some(&slot) = self.task_index.get(&task) {
            if let Some(t) = self.task_slots[slot].as_mut() {
                t.stats.longkv_packets_forwarded += 1;
                t.stats.tuples_long_forwarded += tuples;
            }
        }
    }

    /// Processes one data packet through the full pipeline program, reading
    /// its keys and values in place from the frame bytes.
    ///
    /// A frame whose declared slot layout differs from the switch's is
    /// forwarded untouched ([`ViewVerdict::Forward`] with its whole bitmap),
    /// like a channel without reliability state: no dedup state is read or
    /// written and nothing is aggregated. [`crate::switch::AskSwitch`]
    /// relays such frames before they reach the engine.
    pub fn process_view(&mut self, view: &DataPacketView) -> ViewVerdict {
        self.process_one(view, true)
    }

    /// [`AggregatorEngine::process_view`] for a packet flagged no-aggregate
    /// (degraded pass-through): the dedup gate and `PktState` bookkeeping
    /// run exactly as usual — so a flagged retransmission of a packet whose
    /// original *was* absorbed still resolves through the recorded bitmap
    /// and can never double-count — but first sightings skip the aggregator
    /// arrays entirely and forward every tuple.
    pub(crate) fn process_view_no_aggregate(&mut self, view: &DataPacketView) -> ViewVerdict {
        self.process_one(view, false)
    }

    /// One packet pass outside a burst: no burst histogram entry.
    fn process_one(&mut self, view: &DataPacketView, aggregate: bool) -> ViewVerdict {
        if !view.matches_layout(&self.config.layout) {
            return ViewVerdict::Forward {
                residual: view.bitmap(),
            };
        }
        let mut lanes = std::mem::take(&mut self.view_lanes);
        lanes.fill(std::slice::from_ref(view));
        let ent = self.dispatch_entry(view.channel(), view.task());
        let verdict = self.process_resolved_view(ent, view, &lanes, 0, aggregate);
        self.view_lanes = lanes;
        verdict
    }

    /// Processes a burst of data-packet views, appending one verdict per
    /// view to `verdicts` in input order: phase 1 pre-hashes every slot key
    /// in the burst into the SoA lanes, phase 2 replays each packet's lane
    /// range through its own pipeline pass.
    ///
    /// Equivalent to calling [`AggregatorEngine::process_view`] on each view
    /// in order — every verdict, protocol counter, register state, and
    /// pass/violation count is identical (proptest-pinned). Consecutive
    /// packets of the same `(channel, task)` resolve the dispatch entry once
    /// per run. Each packet still executes its own pipeline pass: a pass
    /// models one PISA traversal, and two packets sharing a pass would trip
    /// same-register access conflicts that sequential processing does not
    /// have.
    ///
    /// The only observable difference is the purely observational
    /// `burst_len` histogram in [`SwitchTaskStats`], which records one
    /// entry per same-`(channel, task)` run.
    pub fn process_batch_views(
        &mut self,
        views: &[DataPacketView],
        verdicts: &mut Vec<ViewVerdict>,
    ) {
        let mut lanes = std::mem::take(&mut self.view_lanes);
        lanes.fill(views);
        let mut cur: Option<DispatchEntry> = None;
        let mut group_len: u64 = 0;
        for (ix, view) in views.iter().enumerate() {
            if !view.matches_layout(&self.config.layout) {
                // Slots this program cannot address: forwarded untouched,
                // before dispatch can assign the channel any state.
                verdicts.push(ViewVerdict::Forward {
                    residual: view.bitmap(),
                });
                continue;
            }
            let ent = match cur {
                Some(e) if e.channel == view.channel() && e.task == view.task() => {
                    group_len += 1;
                    e
                }
                _ => {
                    if let Some(prev) = cur {
                        self.note_burst(prev.task_slot, group_len);
                    }
                    group_len = 1;
                    let e = self.dispatch_entry(view.channel(), view.task());
                    cur = Some(e);
                    e
                }
            };
            verdicts.push(self.process_resolved_view(ent, view, &lanes, ix, true));
        }
        if let Some(prev) = cur {
            self.note_burst(prev.task_slot, group_len);
        }
        self.view_lanes = lanes;
    }

    /// The pipeline program for one viewed packet, after dispatch
    /// resolution; `aggregate: false` is the degraded no-aggregate variant
    /// (dedup and `PktState` still run, aggregator arrays are skipped).
    // `drop(pass)` below deliberately ends the pipeline pass (and its
    // borrow) before control-plane state is updated; the lint misreads
    // that as a no-op.
    #[allow(clippy::drop_non_drop)]
    fn process_resolved_view(
        &mut self,
        ent: DispatchEntry,
        view: &DataPacketView,
        lanes: &ViewLanes,
        pkt_ix: usize,
        aggregate: bool,
    ) -> ViewVerdict {
        let bitmap = view.bitmap();
        if ent.ch_slot == SLOT_NONE {
            // No reliability state available: best-effort pure forwarding.
            return ViewVerdict::Forward { residual: bitmap };
        }
        let ch_slot = ent.ch_slot as usize;
        let window = self.config.window;

        let mut pass = self.pipeline.begin_pass();

        // Stage 0: the task's match-table action data (region, indicator,
        // operator) was latched into the dispatch entry at install time —
        // only the control plane writes it, and install/release invalidate
        // the cache — so the pass starts at the copy indicator, which does
        // change mid-task (shadow swaps) and stays a per-packet register
        // access.
        //
        // Any register-access violation below is journaled by the pipeline
        // and degrades the pass to plain forwarding: the packet goes out
        // untouched, nothing has been absorbed yet, and the receiver's own
        // window dedups — the one unsafe act (absorbing twice) never
        // happens in degraded mode.
        let copy = if ent.task_slot != SLOT_NONE {
            match pass.access(self.copy_indicator, ent.indicator_idx as usize, |v| *v) {
                Ok(c) => c as usize,
                Err(_) => {
                    drop(pass);
                    return ViewVerdict::Forward { residual: bitmap };
                }
            }
        } else {
            0
        };

        let obs = match Self::observe_in_pass(
            &mut pass,
            self.max_seq,
            self.seen,
            ch_slot,
            window,
            view.seq().0,
        ) {
            Ok(o) => o,
            Err(_) => {
                drop(pass);
                return ViewVerdict::Forward { residual: bitmap };
            }
        };
        let state_idx = ch_slot * window + (view.seq().0 % window as u64) as usize;

        match obs {
            Observation::Stale => {
                drop(pass);
                if let Some(t) = self.slot_entry_mut(ent.task_slot) {
                    t.stats.stale_dropped += 1;
                }
                ViewVerdict::Stale
            }
            Observation::First => {
                let (new_claims, aggregated, forwarded, residual) =
                    if aggregate && ent.task_slot != SLOT_NONE {
                        Self::aggregate_lanes(
                            &mut pass,
                            &self.aas,
                            &self.config,
                            ent.region,
                            copy,
                            ent.op,
                            ent.index_mask,
                            lanes,
                            pkt_ix,
                            bitmap,
                        )
                    } else {
                        (Vec::new(), 0, bitmap.count_ones() as u64, bitmap)
                    };
                // Final stage: record the post-aggregation bitmap. On a
                // violation the write is skipped (journaled); a later
                // duplicate then reads whatever the register held.
                let _ = pass.access(self.pkt_state, state_idx, |v| *v = residual as u64);
                drop(pass);
                let empty = residual == 0;
                // Conformance audit: absorbing tuples from a sequence the
                // journal has already seen is an exactly-once violation.
                let dup_absorb = match self.absorbed_seqs.as_mut() {
                    Some(journal) if aggregated > 0 => {
                        u64::from(!journal.insert((view.channel(), view.seq().0)))
                    }
                    _ => 0,
                };
                if let Some(t) = self.slot_entry_mut(ent.task_slot) {
                    t.claims[copy].extend(new_claims);
                    t.stats.data_packets += 1;
                    t.stats.tuples_aggregated += aggregated;
                    t.stats.tuples_forwarded += forwarded;
                    t.stats.duplicate_absorptions += dup_absorb;
                    if empty {
                        t.stats.packets_fully_aggregated += 1;
                    } else {
                        t.stats.packets_forwarded += 1;
                    }
                }
                if empty {
                    ViewVerdict::FullyAggregated
                } else {
                    ViewVerdict::Forward { residual }
                }
            }
            Observation::Duplicate => {
                // Skip the AAs entirely; restore the recorded bitmap. If the
                // read itself violates (journaled), fall back to forwarding
                // the whole packet: never re-aggregate a duplicate.
                let stored = match pass.access(self.pkt_state, state_idx, |v| *v) {
                    Ok(v) => v as u128,
                    Err(_) => u128::MAX,
                };
                drop(pass);
                if let Some(t) = self.slot_entry_mut(ent.task_slot) {
                    t.stats.duplicates_detected += 1;
                }
                if stored == 0 {
                    ViewVerdict::FullyAggregated
                } else {
                    ViewVerdict::Forward {
                        residual: bitmap & stored,
                    }
                }
            }
        }
    }

    /// Aggregates one packet's lane range within one pass, one register
    /// access per aggregator array in slot order. Returns new claims, the
    /// aggregated/forwarded tuple counts, and the surviving slot bitmap.
    #[allow(clippy::too_many_arguments)]
    fn aggregate_lanes(
        pass: &mut Pass<'_>,
        aas: &[ArrayId],
        config: &AskConfig,
        region: AaRegion,
        copy: usize,
        op: AggregateOp,
        index_mask: u64,
        lanes: &ViewLanes,
        pkt_ix: usize,
        bitmap: u128,
    ) -> (Vec<Claim>, u64, u64, u128) {
        let layout = &config.layout;
        let copy_off = copy * config.aggregators_per_aa;
        let short = layout.short_slots();
        let m = layout.medium_segments();
        let (start, end, seg_start) = lanes.pkt[pkt_ix];
        let mut seg_cursor = seg_start as usize;
        let mut claims = Vec::new();
        let mut aggregated = 0u64;
        let mut forwarded = 0u64;
        let mut residual = bitmap;

        for lane in start as usize..end as usize {
            let slot_ix = lanes.slot_ix[lane] as usize;
            let value = lanes.value[lane];
            let mix = lanes.mix[lane];
            let spread = if index_mask == MASK_MODULO {
                mix % region.aggregators as u64
            } else {
                mix & index_mask
            };
            let idx = copy_off + region.base as usize + spread as usize;
            let ok = if slot_ix < short {
                let seg = lanes.seg[seg_cursor];
                seg_cursor += 1;
                debug_assert_ne!(seg, 0, "valid keys have non-zero segments");
                match Self::aggregate_segment(pass, aas[slot_ix], idx, seg, value, true, op) {
                    SegmentOutcome::Claimed => {
                        claims.push(Claim::Short { aa: slot_ix, idx });
                        true
                    }
                    SegmentOutcome::Matched => true,
                    SegmentOutcome::Conflict => false,
                }
            } else {
                let group = slot_ix - short;
                let base_aa = short + group * m;
                let mut claimed_any = false;
                let mut failed = false;
                for s in 0..m {
                    if failed {
                        break;
                    }
                    let aa = aas[base_aa + s];
                    let seg = lanes.seg[seg_cursor + s];
                    let is_last = s == m - 1;
                    match Self::aggregate_segment(pass, aa, idx, seg, value, is_last, op) {
                        SegmentOutcome::Claimed => claimed_any = true,
                        SegmentOutcome::Matched => {}
                        SegmentOutcome::Conflict => failed = true,
                    }
                }
                seg_cursor += m;
                debug_assert!(
                    !(claimed_any && failed),
                    "coalesced invariant: blanks are all-or-none per index"
                );
                if claimed_any {
                    claims.push(Claim::Medium { group, idx });
                }
                !failed
            };
            if ok {
                aggregated += 1;
                residual &= !(1u128 << slot_ix);
            } else {
                forwarded += 1;
            }
        }
        (claims, aggregated, forwarded, residual)
    }

    /// Records one same-channel ingest run in the task's burst histogram.
    fn note_burst(&mut self, task_slot: u32, len: u64) {
        if let Some(t) = self.slot_entry_mut(task_slot) {
            t.stats.burst_len[burst_bucket(len)] += 1;
        }
    }

    /// Resolves `(channel, task)` through the direct-mapped dispatch cache:
    /// on a warm hit the whole control lookup is one array read and three
    /// compares, no hashing.
    fn dispatch_entry(&mut self, channel: ChannelId, task: TaskId) -> DispatchEntry {
        let line = channel.0 as usize & self.dispatch_mask;
        let cached = self.dispatch[line];
        if cached.gen == self.dispatch_gen && cached.channel == channel && cached.task == task {
            cached
        } else {
            let fresh = self.fill_dispatch(channel, task);
            self.dispatch[line] = fresh;
            fresh
        }
    }

    /// Builds a dispatch line for `(channel, task)` the slow way — the
    /// hash lookups the cache exists to amortize. Assigns the channel a
    /// dedup slot if it does not have one yet.
    fn fill_dispatch(&mut self, channel: ChannelId, task: TaskId) -> DispatchEntry {
        let mut ent = DispatchEntry {
            gen: self.dispatch_gen,
            channel,
            task,
            ..DispatchEntry::invalid()
        };
        if let Some(slot) = self.channel_slot(channel) {
            ent.ch_slot = slot as u32;
        }
        if let Some(&slot) = self.task_index.get(&task) {
            let entry = self.task_slots[slot].as_ref().expect("indexed task present");
            ent.task_slot = slot as u32;
            ent.region = entry.region;
            ent.indicator_idx = entry.indicator_idx as u32;
            ent.op = entry.op;
            ent.index_mask = if entry.region.aggregators.is_power_of_two() {
                (entry.region.aggregators - 1) as u64
            } else {
                MASK_MODULO
            };
        }
        ent
    }

    /// One stateful-ALU operation on one aggregator register: claim if
    /// blank, add if the key segment matches, otherwise conflict.
    fn aggregate_segment(
        pass: &mut Pass<'_>,
        aa: ArrayId,
        idx: usize,
        seg: u32,
        value: u32,
        carries_value: bool,
        op: AggregateOp,
    ) -> SegmentOutcome {
        pass.access(aa, idx, |v| {
            let kpart = (*v >> 32) as u32;
            let vpart = *v as u32;
            if kpart == 0 {
                let nv = if carries_value { value } else { 0 };
                *v = ((seg as u64) << 32) | nv as u64;
                SegmentOutcome::Claimed
            } else if kpart == seg {
                if carries_value {
                    *v = ((seg as u64) << 32) | op.combine(vpart, value) as u64;
                }
                SegmentOutcome::Matched
            } else {
                SegmentOutcome::Conflict
            }
        })
        // Degraded mode: an unreachable aggregator is a conflict — the
        // tuple is forwarded to the host, never silently dropped.
        .unwrap_or(SegmentOutcome::Conflict)
    }

    /// Flips the task's copy indicator (Algorithm 1's `Switch()`); data
    /// packets processed after this pass aggregate into the other copy.
    pub fn swap(&mut self, task: TaskId) {
        let Some(&slot) = self.task_index.get(&task) else {
            return;
        };
        let Some(entry) = self.task_slots[slot].as_mut() else {
            return;
        };
        entry.stats.swaps += 1;
        let idx = entry.indicator_idx;
        let mut pass = self.pipeline.begin_pass();
        // A violated flip (journaled) leaves the indicator unchanged: both
        // copies stay consistent, the swap simply did not take effect.
        let _ = pass.access(self.copy_indicator, idx, |v| *v ^= 1);
    }

    /// The task's currently active copy (0 or 1); `None` for unknown tasks.
    pub fn active_copy(&self, task: TaskId) -> Option<usize> {
        let entry = self.task_entry(task)?;
        Some(
            self.pipeline
                .control_read(self.copy_indicator, entry.indicator_idx) as usize,
        )
    }

    /// Reliable fetch (Algorithm 1's `Read()` plus reset): harvests the
    /// requested copies when `fetch_seq` advances, replays the cached reply
    /// otherwise. Returns the entries to send back, shared with the fetch
    /// cache (replays are an `Arc` clone, not a tuple-vector copy).
    pub fn fetch(&mut self, task: TaskId, scope: FetchScope, fetch_seq: u32) -> Arc<Vec<KvTuple>> {
        let Some(&slot) = self.task_index.get(&task) else {
            return Arc::new(Vec::new());
        };
        let entry = self.task_slots[slot].as_ref().expect("indexed task present");
        if let Some((cached_seq, ref cached)) = entry.fetch_cache {
            if fetch_seq <= cached_seq {
                return Arc::clone(cached);
            }
        }
        let active = self
            .pipeline
            .control_read(self.copy_indicator, entry.indicator_idx) as usize;
        let copies = match scope {
            FetchScope::Inactive => 1 - active..2 - active,
            FetchScope::All => 0..2,
        };
        // Every harvested entry comes from one claim: size the reply once.
        let claimed = copies.clone().map(|c| entry.claims[c].len()).sum();
        let mut harvest = Vec::with_capacity(claimed);
        for copy in copies {
            let mut claims = {
                let entry = self.task_slots[slot].as_mut().expect("present");
                std::mem::take(&mut entry.claims[copy])
            };
            self.harvest_claims(&claims, &mut harvest);
            self.reset_claims(&claims);
            // Hand the emptied list back so the copy's next claims reuse it.
            claims.clear();
            self.task_slots[slot].as_mut().expect("present").claims[copy] = claims;
        }
        let harvest = Arc::new(harvest);
        let entry = self.task_slots[slot].as_mut().expect("present");
        entry.stats.tuples_fetched += harvest.len() as u64;
        entry.fetch_cache = Some((fetch_seq, Arc::clone(&harvest)));
        harvest
    }

    /// Reads every claimed aggregator into `out`. A claim's `idx` already
    /// includes its copy's offset, so no copy index is needed.
    fn harvest_claims(&self, claims: &[Claim], out: &mut Vec<KvTuple>) {
        let layout = &self.config.layout;
        // One segment buffer for the whole harvest, not one per key.
        let mut segs = Vec::with_capacity(layout.medium_segments());
        for claim in claims {
            match *claim {
                Claim::Short { aa, idx } => {
                    let raw = self.pipeline.control_read(self.aas[aa], idx);
                    let kpart = (raw >> 32) as u32;
                    if kpart == 0 {
                        continue;
                    }
                    let key = Key::from_segments(&[kpart]).expect("stored keys are valid");
                    out.push(KvTuple::new(key, raw as u32));
                }
                Claim::Medium { group, idx } => {
                    let m = layout.medium_segments();
                    let base_aa = layout.short_slots() + group * m;
                    segs.clear();
                    let mut value = 0u32;
                    for s in 0..m {
                        let raw = self.pipeline.control_read(self.aas[base_aa + s], idx);
                        segs.push((raw >> 32) as u32);
                        if s == m - 1 {
                            value = raw as u32;
                        }
                    }
                    if segs[0] == 0 {
                        continue;
                    }
                    let key = Key::from_segments(&segs).expect("stored keys are valid");
                    out.push(KvTuple::new(key, value));
                }
            }
        }
    }

    fn reset_claims(&mut self, claims: &[Claim]) {
        let layout = self.config.layout;
        for claim in claims {
            match *claim {
                Claim::Short { aa, idx } => {
                    self.pipeline.control_write(self.aas[aa], idx, 0);
                }
                Claim::Medium { group, idx } => {
                    let m = layout.medium_segments();
                    let base_aa = layout.short_slots() + group * m;
                    for s in 0..m {
                        self.pipeline.control_write(self.aas[base_aa + s], idx, 0);
                    }
                }
            }
        }
    }

    /// Total passes the pipeline has executed (one per packet or swap).
    pub fn passes_executed(&self) -> u64 {
        self.pipeline.passes_executed()
    }

    /// Register-access/stage-order violations the pipeline journaled,
    /// including those of pipelines discarded by crash resets. The
    /// conformance harness's PISA-legality invariant is `== 0`.
    pub fn constraint_violations(&self) -> u64 {
        self.carried_violations + self.pipeline.violation_count()
    }

    /// The recorded violation journal (bounded; see [`Pipeline::violations`]).
    pub fn violations(&self) -> &[Violation] {
        self.pipeline.violations()
    }

    /// Total exactly-once violations seen by the absorption audit, across
    /// live and released tasks. Always 0 when the audit is disabled.
    pub fn duplicate_absorptions(&self) -> u64 {
        self.task_slots
            .iter()
            .flatten()
            .map(|t| t.stats.duplicate_absorptions)
            .chain(self.finished_stats.values().map(|s| s.duplicate_absorptions))
            .sum()
    }

    /// Chaos hook: flips the compact `seen` bit covering `(channel, seq)`,
    /// simulating an SRAM upset in the dedup window. Returns `false` if the
    /// channel has no reliability state. Control-plane access — this is
    /// fault *injection*, not part of the switch program.
    pub fn inject_seen_bit_flip(&mut self, channel: ChannelId, seq: SeqNo) -> bool {
        let Some(&slot) = self.channel_slots.get(&channel) else {
            return false;
        };
        let w = self.config.window;
        let bit = slot * w + (seq.0 % w as u64) as usize;
        let cur = self.pipeline.control_read(self.seen, bit);
        self.pipeline.control_write(self.seen, bit, cur ^ 1);
        true
    }

    /// Per-stage resource usage of the compiled switch program.
    pub fn resource_report(&self) -> ask_pisa::pipeline::ResourceReport {
        self.pipeline.resource_report()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentOutcome {
    Claimed,
    Matched,
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_wire::key::Key;
    use ask_wire::packet::{DataPacket, PacketLayout};

    fn engine() -> AggregatorEngine {
        AggregatorEngine::new(AskConfig::tiny())
    }

    fn pkt(task: u32, channel: u32, seq: u64, tuples: &[(usize, &str, u32)]) -> DataPacket {
        let layout = AskConfig::tiny().layout;
        let mut slots = vec![None; layout.slot_count()];
        for &(slot, key, value) in tuples {
            slots[slot] = Some(KvTuple::new(Key::from_str(key).unwrap(), value));
        }
        DataPacket {
            task: TaskId(task),
            channel: ChannelId(channel),
            seq: SeqNo(seq),
            slots,
        }
    }

    /// Parses `p` exactly as it arrives on the wire.
    fn view_of(p: &DataPacket) -> DataPacketView {
        DataPacketView::from_packet(p, &AskConfig::tiny().layout)
    }

    /// One pipeline pass over the wire form of `p`.
    fn run(e: &mut AggregatorEngine, p: &DataPacket) -> ViewVerdict {
        e.process_view(&view_of(p))
    }

    /// A forward verdict keeping exactly the slots in `slots`.
    fn forward(slots: &[usize]) -> ViewVerdict {
        ViewVerdict::Forward {
            residual: slots.iter().map(|&i| 1u128 << i).sum(),
        }
    }

    #[test]
    fn first_packet_fully_aggregates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).expect("region");
        let v = run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 3), (1, "dog", 4)]));
        assert_eq!(v, ViewVerdict::FullyAggregated);
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        let mut got: Vec<(String, u32)> = got
            .iter()
            .map(|t| {
                (
                    String::from_utf8_lossy(t.key.as_bytes()).into_owned(),
                    t.value,
                )
            })
            .collect();
        got.sort();
        assert_eq!(got, vec![("cat".into(), 3), ("dog".into(), 4)]);
    }

    #[test]
    fn same_key_accumulates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        for seq in 0..10 {
            let v = run(&mut e, &pkt(1, 0, seq, &[(0, "cat", 2)]));
            assert_eq!(v, ViewVerdict::FullyAggregated);
        }
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 20);
    }

    #[test]
    fn collision_forwards_residual() {
        let mut e = engine();
        // One-aggregator region: every distinct key after the first collides.
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e2 = AggregatorEngine::new(cfg);
        e2.register_task(TaskId(1), 9).unwrap();
        assert_eq!(
            run(&mut e2, &pkt(1, 0, 0, &[(0, "aaa", 1)])),
            ViewVerdict::FullyAggregated
        );
        assert_eq!(run(&mut e2, &pkt(1, 0, 1, &[(0, "bbb", 7)])), forward(&[0]));
        let s = e2.task_stats(TaskId(1)).unwrap();
        assert_eq!(s.tuples_aggregated, 1);
        assert_eq!(s.tuples_forwarded, 1);
        assert_eq!(s.packets_forwarded, 1);
        // Keep the default-config engine exercised too.
        e.register_task(TaskId(2), 1).unwrap();
    }

    #[test]
    fn duplicate_fully_aggregated_is_acked_not_reaggregated() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let p = pkt(1, 0, 0, &[(0, "cat", 5)]);
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(got[0].value, 5, "retransmission must not double-count");
        assert_eq!(e.task_stats(TaskId(1)).unwrap().duplicates_detected, 1);
    }

    #[test]
    fn duplicate_partial_carries_only_residual() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        // Occupy slot-0's only aggregator with "aaa".
        run(&mut e, &pkt(1, 0, 0, &[(0, "aaa", 1)]));
        // Mixed packet: "aaa" aggregates, "bbb" conflicts in slot 0... they
        // share slot 0 across packets; send both in one packet via slots 0/1.
        let mixed = pkt(1, 0, 1, &[(0, "aaa", 2), (1, "ccc", 3)]);
        let first = run(&mut e, &mixed);
        // "aaa" merges into slot0 aggregator; "ccc" claims slot1 aggregator.
        assert_eq!(first, ViewVerdict::FullyAggregated);
        // Now make slot 1 conflict: occupy then send a different key.
        let conflict = pkt(1, 0, 2, &[(1, "ddd", 9)]);
        let v1 = run(&mut e, &conflict);
        assert_eq!(v1, forward(&[1]));
        // Retransmit the same packet: must carry the same residual without
        // touching the aggregators.
        assert_eq!(run(&mut e, &conflict), v1);
        let total: u32 = e
            .fetch(TaskId(1), FetchScope::All, 1)
            .iter()
            .map(|t| t.value)
            .sum();
        assert_eq!(total, 1 + 2 + 3, "ddd must not be aggregated on switch");
    }

    #[test]
    fn stale_packet_dropped() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        // Advance max_seq far ahead.
        run(&mut e, &pkt(1, 0, 3 * w, &[(0, "cat", 1)]));
        let v = run(&mut e, &pkt(1, 0, w, &[(0, "dog", 1)]));
        assert_eq!(v, ViewVerdict::Stale);
        assert_eq!(e.task_stats(TaskId(1)).unwrap().stale_dropped, 1);
    }

    #[test]
    fn unknown_task_forwards_without_aggregation() {
        let mut e = engine();
        let v = run(&mut e, &pkt(42, 0, 0, &[(0, "cat", 1)]));
        assert_eq!(v, forward(&[0]));
    }

    #[test]
    fn medium_keys_coalesce_and_roundtrip() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        // tiny layout: slots 4 and 5 are medium groups (m = 2).
        let p = pkt(1, 0, 0, &[(4, "maples", 6)]);
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
        assert_eq!(
            run(&mut e, &pkt(1, 0, 1, &[(4, "maples", 4)])),
            ViewVerdict::FullyAggregated
        );
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"maples");
        assert_eq!(got[0].value, 10);
    }

    #[test]
    fn medium_prefix_keys_do_not_false_match() {
        // "yoursX" vs "yourlY": craft two 6-byte keys sharing segment 0 if
        // hashed to the same index they must conflict, not merge. We force
        // the shared index with a 1-aggregator region.
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        assert_eq!(
            run(&mut e, &pkt(1, 0, 0, &[(4, "yoursa", 1)])),
            ViewVerdict::FullyAggregated
        );
        // Same segment 0 ("your"), different key: unified index collides →
        // segment 0 mismatch is impossible (same bytes) BUT segment 1
        // differs → conflict, forwarded.
        assert_eq!(
            run(&mut e, &pkt(1, 0, 1, &[(4, "yourxy", 2)])),
            forward(&[4])
        );
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"yoursa");
        assert_eq!(got[0].value, 1);
    }

    #[test]
    fn shadow_swap_directs_writes_to_other_copy() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        assert_eq!(e.active_copy(TaskId(1)), Some(0));
        run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 1)]));
        e.swap(TaskId(1));
        assert_eq!(e.active_copy(TaskId(1)), Some(1));
        run(&mut e, &pkt(1, 0, 1, &[(0, "cat", 2)]));
        // Inactive copy now holds the pre-swap value.
        let old = e.fetch(TaskId(1), FetchScope::Inactive, 1);
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].value, 1);
        // Remaining copy holds the post-swap value.
        let rest = e.fetch(TaskId(1), FetchScope::All, 2);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].value, 2);
    }

    #[test]
    fn fetch_is_idempotent_per_fetch_seq() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 5)]));
        let a = e.fetch(TaskId(1), FetchScope::All, 1);
        // Retry of the same fetch_seq replays the cache even though the
        // registers were reset.
        let b = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        // The next fetch_seq sees an empty region.
        let c = e.fetch(TaskId(1), FetchScope::All, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn regions_isolate_tasks() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 16; // two tasks fit (64-aggregator space)
        let mut e = AggregatorEngine::new(cfg);
        let r1 = e.register_task(TaskId(1), 8).unwrap();
        let r2 = e.register_task(TaskId(2), 9).unwrap();
        assert_ne!(r1.base, r2.base);
        run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 1)]));
        run(&mut e, &pkt(2, 1, 0, &[(0, "cat", 10)]));
        assert_eq!(e.fetch(TaskId(1), FetchScope::All, 1)[0].value, 1);
        assert_eq!(e.fetch(TaskId(2), FetchScope::All, 1)[0].value, 10);
    }

    #[test]
    fn region_exhaustion_denies_then_release_recovers() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 32; // per-copy space is 64: two tasks max
        let mut e = AggregatorEngine::new(cfg);
        assert!(e.register_task(TaskId(1), 1).is_some());
        assert!(e.register_task(TaskId(2), 2).is_some());
        assert!(e.register_task(TaskId(3), 3).is_none(), "memory exhausted");
        e.release_task(TaskId(1));
        assert!(e.register_task(TaskId(3), 3).is_some());
        // Idempotent release of an unknown task is a no-op.
        e.release_task(TaskId(99));
    }

    #[test]
    fn release_zeroes_leftover_registers() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 32;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 1).unwrap();
        run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 5)]));
        e.release_task(TaskId(1));
        // A new task reusing the same region must not see stale keys.
        e.register_task(TaskId(2), 2).unwrap();
        assert_eq!(
            run(&mut e, &pkt(2, 1, 0, &[(0, "dog", 1)])),
            ViewVerdict::FullyAggregated
        );
        let got = e.fetch(TaskId(2), FetchScope::All, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"dog");
    }

    #[test]
    fn bypass_observation_keeps_window_dense() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        // Interleave: even seqs are data, odd are bypass, across 3 windows.
        for seq in 0..3 * w {
            if seq % 2 == 0 {
                let v = run(&mut e, &pkt(1, 0, seq, &[(0, "cat", 1)]));
                assert_eq!(v, ViewVerdict::FullyAggregated, "seq {seq}");
            } else {
                let o = e.observe_bypass(ChannelId(0), SeqNo(seq));
                assert_eq!(o, Observation::First, "seq {seq}");
            }
        }
        let got = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(got[0].value as u64, 3 * w / 2);
    }

    #[test]
    fn full_window_of_packets_then_duplicates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        for seq in 0..w {
            assert_eq!(
                run(&mut e, &pkt(1, 0, seq, &[(0, "k", 1)])),
                ViewVerdict::FullyAggregated
            );
        }
        for seq in 0..w {
            // All still in window (max_seq = w-1, window (w-1-W, w-1]).
            assert_eq!(
                run(&mut e, &pkt(1, 0, seq, &[(0, "k", 1)])),
                ViewVerdict::FullyAggregated,
                "dup seq {seq}"
            );
        }
        assert_eq!(e.fetch(TaskId(1), FetchScope::All, 1)[0].value as u64, w);
    }

    #[test]
    fn seen_bit_flip_reabsorption_is_invisible_to_values_but_audited() {
        // The bug class the value-comparing e2e suite can never catch: under
        // AggregateOp::Max, absorbing the same packet twice leaves the final
        // value unchanged (max(v, v) = v). Only the absorption audit sees it.
        let mut cfg = AskConfig::tiny();
        cfg.absorption_audit = true;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task_with_op(TaskId(1), 9, AggregateOp::Max)
            .unwrap();
        let p = pkt(1, 0, 0, &[(0, "cat", 7)]);
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
        assert!(e.inject_seen_bit_flip(ChannelId(0), SeqNo(0)));
        // The retransmission now passes the corrupted dedup gate.
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
        assert_eq!(
            e.fetch(TaskId(1), FetchScope::All, 1)[0].value,
            7,
            "value oracle is blind to the double absorption"
        );
        assert_eq!(e.duplicate_absorptions(), 1, "the audit is not");
        assert_eq!(e.task_stats(TaskId(1)).unwrap().duplicate_absorptions, 1);
    }

    #[test]
    fn normal_runs_report_no_violations_or_duplicate_absorptions() {
        let mut cfg = AskConfig::tiny();
        cfg.absorption_audit = true;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        for seq in 0..20 {
            run(&mut e, &pkt(1, 0, seq, &[(0, "cat", 1), (4, "maples", 2)]));
            if seq % 3 == 0 {
                // Honest retransmissions must not trip the audit.
                run(&mut e, &pkt(1, 0, seq, &[(0, "cat", 1), (4, "maples", 2)]));
            }
        }
        e.swap(TaskId(1));
        e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(e.constraint_violations(), 0);
        assert!(e.violations().is_empty());
        assert_eq!(e.duplicate_absorptions(), 0);
    }

    #[test]
    fn dispatch_cache_invalidates_on_install_and_release() {
        let mut e = engine();
        // Warm the cache with an "unknown task" line.
        assert_eq!(
            run(&mut e, &pkt(1, 0, 0, &[(0, "cat", 1)])),
            forward(&[0]),
            "unknown task must forward"
        );
        // Installing the task must invalidate that line: the same
        // (channel, task) pair now aggregates.
        e.register_task(TaskId(1), 9).expect("region");
        assert_eq!(
            run(&mut e, &pkt(1, 0, 1, &[(0, "cat", 2)])),
            ViewVerdict::FullyAggregated
        );
        // Releasing must invalidate again: back to pure forwarding, even
        // though the warm line still names the released task.
        e.release_task(TaskId(1));
        assert_eq!(
            run(&mut e, &pkt(1, 0, 2, &[(0, "cat", 3)])),
            forward(&[0]),
            "released task must forward"
        );
        // A different task reusing the freed slot must not inherit stats or
        // claims through a stale cache line.
        e.register_task(TaskId(2), 9).expect("region");
        assert_eq!(
            run(&mut e, &pkt(2, 0, 3, &[(0, "dog", 4)])),
            ViewVerdict::FullyAggregated
        );
        assert_eq!(e.task_stats(TaskId(2)).unwrap().data_packets, 1);
        assert_eq!(e.fetch(TaskId(2), FetchScope::All, 1).len(), 1);
    }

    /// Channel-interleaved runs with a duplicate, an unknown task and a
    /// stale arrival mixed in, against an engine with task 1 registered.
    fn mixed_burst() -> (AggregatorEngine, Vec<DataPacket>) {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let mut packets: Vec<DataPacket> = Vec::new();
        for seq in 0..6u64 {
            packets.push(pkt(1, 0, seq, &[(0, "cat", 1), (4, "maples", 2)]));
        }
        for seq in 0..4u64 {
            packets.push(pkt(1, 1, seq, &[(1, "dog", 3)]));
        }
        packets.push(pkt(1, 0, 2, &[(0, "cat", 1), (4, "maples", 2)])); // dup
        packets.push(pkt(42, 2, 0, &[(0, "eel", 9)])); // unknown task
        packets.push(pkt(1, 0, 0, &[(0, "cat", 1)])); // stale once seqs advance
        (e, packets)
    }

    #[test]
    fn batch_verdicts_and_stats_match_sequential() {
        use crate::stats::BURST_BUCKETS;
        let (mut seq_e, packets) = mixed_burst();
        let views: Vec<DataPacketView> = packets.iter().map(view_of).collect();
        let seq_verdicts: Vec<ViewVerdict> = views.iter().map(|v| seq_e.process_view(v)).collect();
        let (mut bat_e, _) = mixed_burst();
        let mut bat_verdicts = Vec::new();
        bat_e.process_batch_views(&views, &mut bat_verdicts);
        assert_eq!(seq_verdicts, bat_verdicts);
        let mut a = seq_e.task_stats(TaskId(1)).unwrap();
        let mut b = bat_e.task_stats(TaskId(1)).unwrap();
        // burst_len is the documented observational exception.
        a.burst_len = [0; BURST_BUCKETS];
        b.burst_len = [0; BURST_BUCKETS];
        assert_eq!(a, b);
        assert_eq!(
            seq_e.fetch(TaskId(1), FetchScope::All, 1),
            bat_e.fetch(TaskId(1), FetchScope::All, 1)
        );
    }

    #[test]
    fn batch_records_burst_histogram() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let views: Vec<DataPacketView> = (0..4u64)
            .map(|seq| view_of(&pkt(1, 0, seq, &[(0, "cat", 1)])))
            .collect();
        let mut verdicts = Vec::new();
        e.process_batch_views(&views, &mut verdicts);
        let s = e.task_stats(TaskId(1)).unwrap();
        assert_eq!(s.burst_len[crate::stats::burst_bucket(4)], 1);
        // Sequential processing records nothing.
        run(&mut e, &pkt(1, 0, 4, &[(0, "cat", 1)]));
        let s2 = e.task_stats(TaskId(1)).unwrap();
        assert_eq!(s2.burst_len.iter().sum::<u64>(), 1);
    }

    /// The view batch against one-at-a-time [`AggregatorEngine::process_view`]
    /// below the verdicts: every partial absorb re-frames to the exact
    /// bytes of encoding the packet with its absorbed slots blanked, and
    /// the pipeline runs the same passes with the same violations.
    #[test]
    fn view_batch_matches_scalar_batch() {
        use ask_wire::codec::encode_envelope_parts;
        use ask_wire::packet::AskPacket;
        let layout = AskConfig::tiny().layout;
        let (mut seq_e, packets) = mixed_burst();
        let (mut view_e, _) = mixed_burst();
        let views: Vec<DataPacketView> = packets.iter().map(view_of).collect();
        let mut view_verdicts = Vec::new();
        view_e.process_batch_views(&views, &mut view_verdicts);
        let mut partial = 0;
        for ((p, view), v) in packets.iter().zip(&views).zip(&view_verdicts) {
            assert_eq!(seq_e.process_view(view), *v);
            if let ViewVerdict::Forward { residual } = *v {
                let mut kept = p.clone();
                for (i, slot) in kept.slots.iter_mut().enumerate() {
                    if residual & (1 << i) == 0 {
                        *slot = None;
                    }
                }
                let want = encode_envelope_parts(0, 0, 0, 0, &AskPacket::Data(kept), &layout);
                assert_eq!(view.residual_frame(residual), want);
                partial += 1;
            }
        }
        assert!(partial > 0, "the burst exercises residual forwards");
        assert_eq!(seq_e.passes_executed(), view_e.passes_executed());
        assert_eq!(
            seq_e.constraint_violations(),
            view_e.constraint_violations()
        );
    }

    #[test]
    fn blank_slots_are_skipped() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let layout = PacketLayout::custom(4, 2, 2);
        let p = DataPacket {
            task: TaskId(1),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots: vec![None; layout.slot_count()],
        };
        assert_eq!(run(&mut e, &p), ViewVerdict::FullyAggregated);
    }

    /// The degraded no-aggregate pass against the aggregating pass on a
    /// twin engine: both run the same dedup gate and `PktState` access, so
    /// a flagged first sighting absorbs nothing, a flagged retransmission
    /// resolves through the original's stored bitmap, and the pass counts
    /// agree throughout.
    #[test]
    fn no_aggregate_view_path_resolves_through_pkt_state() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1; // one aggregator per slot: easy conflicts
        cfg.absorption_audit = true;
        let fresh = || {
            let mut e = AggregatorEngine::new(cfg.clone());
            e.register_task(TaskId(1), 9).unwrap();
            e
        };
        let p = view_of(&pkt(1, 0, 0, &[(0, "aaa", 1), (4, "maples", 2)]));

        // A flagged first sighting absorbs nothing and forwards every slot.
        let (mut noagg, mut agg) = (fresh(), fresh());
        assert_eq!(noagg.process_view_no_aggregate(&p), forward(&[0, 4]));
        assert_eq!(agg.process_view(&p), ViewVerdict::FullyAggregated);
        assert_eq!(noagg.passes_executed(), agg.passes_executed());
        let s = noagg.task_stats(TaskId(1)).unwrap();
        assert_eq!(
            (s.data_packets, s.tuples_aggregated, s.tuples_forwarded),
            (1, 0, 2)
        );
        assert!(noagg.fetch(TaskId(1), FetchScope::All, 1).is_empty());

        // A flagged retransmission of a fully absorbed original is answered
        // from PktState: nothing to forward, nothing absorbed twice.
        let (mut noagg, mut agg) = (fresh(), fresh());
        for e in [&mut noagg, &mut agg] {
            assert_eq!(e.process_view(&p), ViewVerdict::FullyAggregated);
        }
        assert_eq!(
            noagg.process_view_no_aggregate(&p),
            ViewVerdict::FullyAggregated
        );
        assert_eq!(agg.process_view(&p), ViewVerdict::FullyAggregated);
        assert_eq!(noagg.passes_executed(), agg.passes_executed());
        assert_eq!(noagg.task_stats(TaskId(1)).unwrap().duplicates_detected, 1);
        assert_eq!(noagg.duplicate_absorptions(), 0);
        let total: u32 = noagg
            .fetch(TaskId(1), FetchScope::All, 1)
            .iter()
            .map(|t| t.value)
            .sum();
        assert_eq!(total, 3, "the retransmission must not double-count");

        // A flagged retransmission of a partially absorbed original forwards
        // only the slots the original left over (`bitmap & stored`).
        let (mut noagg, mut agg) = (fresh(), fresh());
        let squat = view_of(&pkt(1, 0, 0, &[(1, "ccc", 3)]));
        let mixed = view_of(&pkt(1, 0, 1, &[(0, "aaa", 1), (1, "ddd", 9)]));
        for e in [&mut noagg, &mut agg] {
            assert_eq!(e.process_view(&squat), ViewVerdict::FullyAggregated);
            assert_eq!(e.process_view(&mixed), forward(&[1]));
        }
        assert_eq!(noagg.process_view_no_aggregate(&mixed), forward(&[1]));
        assert_eq!(agg.process_view(&mixed), forward(&[1]));
        assert_eq!(noagg.passes_executed(), agg.passes_executed());
        assert_eq!(noagg.duplicate_absorptions(), 0);
    }

    /// A frame declaring a slot layout other than the engine's — wider,
    /// or as wide with a short slot where the engine has a medium group —
    /// is forwarded whole: no pass, no counter, no panic.
    #[test]
    fn foreign_layout_views_forward_untouched() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        for (layout, slot) in [
            (PacketLayout::short_only(16), 10),
            (PacketLayout::short_only(6), 5),
        ] {
            let mut slots = vec![None; layout.slot_count()];
            slots[slot] = Some(KvTuple::new(Key::from_str("cat").unwrap(), 1));
            let p = DataPacket {
                task: TaskId(1),
                channel: ChannelId(0),
                seq: SeqNo(0),
                slots,
            };
            let v = DataPacketView::from_packet(&p, &layout);
            assert_eq!(e.process_view(&v), forward(&[slot]));
            assert_eq!(e.process_view_no_aggregate(&v), forward(&[slot]));
            let mut verdicts = Vec::new();
            e.process_batch_views(std::slice::from_ref(&v), &mut verdicts);
            assert_eq!(verdicts, vec![forward(&[slot])]);
        }
        assert!(e.channel_slots.is_empty(), "no dedup state assigned");
        assert_eq!(e.passes_executed(), 0);
        assert_eq!(e.task_stats(TaskId(1)).unwrap(), SwitchTaskStats::default());
    }
}
