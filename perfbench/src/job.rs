//! One closed-loop job: build a fresh star, submit, run to completion,
//! check the result, and collect its counters.

use crate::alloc;
use crate::workload::{JobInput, Workload, SENDERS, TASKS};
use ask::prelude::*;
use ask::service::RunError;
use ask_simnet::link::LinkStats;
use ask_wire::packet::TaskId;
use std::time::Instant;

/// Event budget per task; a livelocked job fails instead of hanging.
const MAX_EVENTS: u64 = 50_000_000;

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// `run_until_complete` gave up on a task.
    Run(TaskId, RunError),
    /// A task's result differs from the reference aggregate.
    Mismatch(TaskId),
}

/// Deterministic outcome of a job: simulated times and work counts. Equal
/// for equal inputs, whether or not phase timing is on.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Simulated completion time of each task, in ns.
    pub completed_ns: Vec<u64>,
    /// Simulator events processed by the end of the run phase.
    pub events: u64,
    /// Allocation calls made during the run phase.
    pub run_allocs: u64,
    /// All links summed, at the end of the run phase.
    pub links: LinkStats,
    /// Frames delivered to the switch, the receiver and the senders.
    pub switch_frames: u64,
    pub recv_frames: u64,
    pub send_frames: u64,
    /// Switch counters merged over the tasks.
    pub switch: SwitchTaskStats,
    pub pure_absorb: u64,
    pub passes: u64,
    pub violations: u64,
    /// Receiver daemon counters.
    pub receiver: HostStats,
    /// Sender daemon counters, merged.
    pub senders: HostStats,
    /// Mean sender goodput (payload bits over each sender's sending phase,
    /// after the network drained), in bits per simulated second.
    pub goodput_bps: f64,
}

impl Signature {
    /// Simulated job completion time: the last task's completion, in ns.
    pub fn jct_ns(&self) -> u64 {
        self.completed_ns.iter().copied().max().unwrap_or(0)
    }

    /// Frames delivered anywhere in the star.
    pub fn frames(&self) -> u64 {
        self.switch_frames + self.recv_frames + self.send_frames
    }
}

/// Wall-time split of a traced run phase, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub switch: u64,
    pub recv: u64,
    /// Sender dispatch minus packetize.
    pub send: u64,
    pub packetize: u64,
    /// The measured run phase minus the four node parts: event queue,
    /// links, delivery and the run loop itself.
    pub drain: u64,
}

/// What one job produced.
#[derive(Debug)]
pub struct JobOutcome {
    /// `AskServiceBuilder::build` to the last `submit_stream` return.
    pub setup_ns: u64,
    /// The run phase: every `run_until_complete` call.
    pub run_ns: u64,
    pub tuples: u64,
    pub result: Result<Signature, Failure>,
    /// Present when the job ran with phase timing on.
    pub split: Option<Split>,
}

/// Runs one job over `input`, with phase timing on when `traced`.
pub fn run(workload: Workload, input: JobInput, traced: bool) -> JobOutcome {
    let tuples = input.tuples();
    let JobInput {
        sim_seed,
        chunks,
        reference,
    } = input;

    let setup_start = Instant::now();
    let mut service = AskServiceBuilder::new(SENDERS + 1)
        .config(workload.config())
        .link(workload.link())
        .seed(sim_seed)
        .build();
    if traced {
        service.enable_phase_timing();
    }
    let hosts = service.hosts().to_vec();
    let receiver = hosts[0];
    let senders = hosts[1..].to_vec();
    let tasks: Vec<TaskId> = (0..TASKS as u32).map(TaskId).collect();
    for &task in &tasks {
        service.submit_task(task, receiver, &senders);
    }
    for (s, per_task) in chunks.into_iter().enumerate() {
        for (t, chunk) in per_task.into_iter().enumerate() {
            service.submit_stream(tasks[t], senders[s], chunk);
        }
    }
    let setup_ns = setup_start.elapsed().as_nanos() as u64;

    let allocs_before = alloc::count();
    let run_start = Instant::now();
    let mut completed_ns = Vec::with_capacity(TASKS);
    let mut failure = None;
    for &task in &tasks {
        match service.run_until_complete(task, receiver, MAX_EVENTS) {
            Ok(at) => completed_ns.push(at.as_nanos()),
            Err(e) => {
                failure = Some(Failure::Run(task, e));
                break;
            }
        }
    }
    let run_ns = run_start.elapsed().as_nanos() as u64;
    let run_allocs = alloc::count() - allocs_before;

    let split = traced.then(|| {
        let packetize: u64 = senders
            .iter()
            .map(|&h| service.daemon(h).packetize_ns())
            .sum();
        let switch_id = service.switch_id();
        let net = service.network_mut();
        let switch = net.dispatch_ns(switch_id);
        let recv = net.dispatch_ns(receiver);
        let send_dispatch: u64 = senders.iter().map(|&h| net.dispatch_ns(h)).sum();
        Split {
            switch,
            recv,
            send: send_dispatch.saturating_sub(packetize),
            packetize,
            drain: run_ns.saturating_sub(switch + recv + send_dispatch),
        }
    });

    let mismatch = || {
        tasks
            .iter()
            .zip(&reference)
            .find(|&(&task, expected)| {
                service
                    .daemon(receiver)
                    .task_result(task)
                    .is_none_or(|r| &r.entries != expected)
            })
            .map(|(&task, _)| Failure::Mismatch(task))
    };
    let result = match failure.or_else(mismatch) {
        Some(f) => Err(f),
        None => Ok(signature(&mut service, &tasks, completed_ns, run_allocs)),
    };
    JobOutcome {
        setup_ns,
        run_ns,
        tuples,
        result,
        split,
    }
}

/// Reads the job's counters: link, switch and host counts as they stood at
/// the end of the run phase, then goodput after draining the network so
/// every sender's FIN has been acknowledged.
fn signature(
    service: &mut AskService,
    tasks: &[TaskId],
    completed_ns: Vec<u64>,
    run_allocs: u64,
) -> Signature {
    let hosts = service.hosts().to_vec();
    let receiver = hosts[0];
    let mut links = LinkStats::default();
    let (mut switch_frames, mut send_frames, mut recv_frames) = (0, 0, 0);
    for &h in &hosts {
        let up = service.uplink_stats(h);
        let down = service.downlink_stats(h);
        switch_frames += up.frames_delivered;
        if h == receiver {
            recv_frames += down.frames_delivered;
        } else {
            send_frames += down.frames_delivered;
        }
        for l in [up, down] {
            links.frames_sent += l.frames_sent;
            links.bytes_sent += l.bytes_sent;
            links.frames_delivered += l.frames_delivered;
            links.frames_dropped += l.frames_dropped;
            links.frames_duplicated += l.frames_duplicated;
            links.frames_ecn_marked += l.frames_ecn_marked;
            links.frames_tail_dropped += l.frames_tail_dropped;
        }
    }
    let mut switch = SwitchTaskStats::default();
    for &task in tasks {
        if let Some(s) = service.switch_stats(task) {
            switch.merge(&s);
        }
    }
    let sw = service.switch_ref();
    let (pure_absorb, passes, violations) = (
        sw.pure_absorb_frames(),
        sw.engine().passes_executed(),
        sw.engine().constraint_violations(),
    );
    let events = service.network_mut().events_processed();
    let receiver_stats = service.host_stats(receiver);
    let mut senders = HostStats::default();
    for &h in &hosts[1..] {
        senders.merge(&service.host_stats(h));
    }

    service.run_to_idle();
    let mut goodput_bps = 0.0;
    for &h in &hosts[1..] {
        let done = tasks
            .iter()
            .filter_map(|&t| service.daemon(h).send_complete_at(t))
            .max()
            .map_or(0.0, |t| t.as_secs_f64());
        let bits = service.host_stats(h).goodput_bytes_sent as f64 * 8.0;
        if done > 0.0 {
            goodput_bps += bits / done;
        }
    }
    goodput_bps /= (hosts.len() - 1) as f64;

    Signature {
        completed_ns,
        events,
        run_allocs,
        links,
        switch_frames,
        recv_frames,
        send_frames,
        switch,
        pure_absorb,
        passes,
        violations,
        receiver: receiver_stats,
        senders,
        goodput_bps,
    }
}
