//! The benchmark's workloads and the per-job inputs generated from a seed.

use ask::prelude::*;
use ask::service::reference_aggregate_op;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_workloads::text::{uniform_stream, TextCorpus};
use std::collections::HashMap;

/// Sending hosts per job (host 0 is the receiver).
pub const SENDERS: usize = 4;
/// Parallel tasks per job, one per data channel.
pub const TASKS: usize = 4;
/// Tuples each sender streams per job.
pub const TUPLES_PER_SENDER: u64 = 25_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small uniform keyspace that fits each task's switch region.
    Absorb,
    /// The same shape over a keyspace 400× larger: far more tuples collide.
    Forward,
    /// The yelp Zipf word stream with 1% loss on every link.
    TextLossy,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "absorb" => Some(Workload::Absorb),
            "forward" => Some(Workload::Forward),
            "text_lossy" => Some(Workload::TextLossy),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Absorb => "absorb",
            Workload::Forward => "forward",
            Workload::TextLossy => "text_lossy",
        }
    }

    /// Service configuration: paper defaults, one region of
    /// `aggregators_per_aa / TASKS` (4,096) aggregators per task.
    pub fn config(self) -> AskConfig {
        let mut cfg = AskConfig::paper_default();
        cfg.data_channels = TASKS;
        cfg.region_aggregators = cfg.aggregators_per_aa / TASKS;
        cfg
    }

    /// Host↔switch links: 100 Gb/s, 1 µs, lossy only on `text_lossy`.
    pub fn link(self) -> LinkConfig {
        let link = LinkConfig::new(100e9, SimDuration::from_micros(1));
        match self {
            Workload::TextLossy => link.with_faults(FaultModel::reliable().with_loss(0.01)),
            _ => link,
        }
    }

    fn stream(self, seed: u64) -> Vec<KvTuple> {
        match self {
            Workload::Absorb => uniform_stream(seed, 5_000, TUPLES_PER_SENDER),
            Workload::Forward => uniform_stream(seed, 2_000_000, TUPLES_PER_SENDER),
            Workload::TextLossy => TextCorpus::yelp().stream(seed, TUPLES_PER_SENDER),
        }
    }

    /// The inputs of job number `index` in a run seeded with `seed`.
    pub fn job_input(self, seed: u64, index: u64) -> JobInput {
        let job_seed = splitmix64(seed ^ splitmix64(index + 1));
        // chunks[s][t]: sender s's stream split round-robin over the tasks.
        let mut chunks: Vec<Vec<Vec<KvTuple>>> = Vec::with_capacity(SENDERS);
        for s in 0..SENDERS {
            let stream = self.stream(splitmix64(job_seed ^ (s as u64 + 1)));
            let mut per_task: Vec<Vec<KvTuple>> = (0..TASKS)
                .map(|_| Vec::with_capacity(stream.len() / TASKS + 1))
                .collect();
            for (i, t) in stream.into_iter().enumerate() {
                per_task[i % TASKS].push(t);
            }
            chunks.push(per_task);
        }
        let reference = (0..TASKS)
            .map(|t| {
                reference_aggregate_op(
                    chunks.iter().flat_map(|c| c[t].iter().cloned()),
                    AggregateOp::Sum,
                )
            })
            .collect();
        JobInput {
            sim_seed: job_seed,
            chunks,
            reference,
        }
    }
}

/// Everything one job needs, generated before its set-up is timed.
#[derive(Debug, Clone)]
pub struct JobInput {
    /// Simulation seed (drives the fault draws).
    pub sim_seed: u64,
    /// `chunks[sender][task]`: the tuples each sender submits per task.
    pub chunks: Vec<Vec<Vec<KvTuple>>>,
    /// `reference[task]`: the exact aggregate the receiver must produce.
    pub reference: Vec<HashMap<Key, u32>>,
}

impl JobInput {
    /// Input tuples across all senders and tasks.
    pub fn tuples(&self) -> u64 {
        self.chunks.iter().flatten().map(|c| c.len() as u64).sum()
    }
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
