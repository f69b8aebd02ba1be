//! A scenario driver: run one ASK aggregation over a synthetic workload
//! with the knobs exposed as flags, and print the full measurement report.
//!
//! ```sh
//! cargo run --release -p ask-bench --bin simulate -- \
//!     --senders 4 --tuples 200000 --workload zipf --skew 1.1 \
//!     --distinct 20000 --loss 0.01 --channels 4 --op sum
//! ```

use ask::prelude::*;
use ask_bench::baseline::{baseline_path, Baseline};
use ask_bench::output::{gbps, pct};
use ask_bench::runners::{run_ask, AskRun};
use ask_bench::Scale;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_workloads::text::{uniform_stream, TextCorpus};
use ask_workloads::zipf::{zipf_stream, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Args {
    senders: usize,
    tuples: u64,
    distinct: u64,
    workload: String,
    skew: f64,
    loss: f64,
    channels: usize,
    op: AggregateOp,
    seed: u64,
    swap_threshold: u64,
    timing: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            senders: 2,
            tuples: 100_000,
            distinct: 10_000,
            workload: "uniform".into(),
            skew: 1.0,
            loss: 0.0,
            channels: 4,
            op: AggregateOp::Sum,
            seed: 1,
            swap_threshold: 4096,
            timing: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--senders" => args.senders = value()?.parse().map_err(|e| format!("{e}"))?,
                "--tuples" => args.tuples = value()?.parse().map_err(|e| format!("{e}"))?,
                "--distinct" => args.distinct = value()?.parse().map_err(|e| format!("{e}"))?,
                "--workload" => args.workload = value()?,
                "--skew" => args.skew = value()?.parse().map_err(|e| format!("{e}"))?,
                "--loss" => args.loss = value()?.parse().map_err(|e| format!("{e}"))?,
                "--channels" => args.channels = value()?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("{e}"))?,
                "--swap-threshold" => {
                    args.swap_threshold = value()?.parse().map_err(|e| format!("{e}"))?
                }
                "--timing" => args.timing = true,
                "--op" => {
                    args.op = match value()?.as_str() {
                        "sum" => AggregateOp::Sum,
                        "max" => AggregateOp::Max,
                        "min" => AggregateOp::Min,
                        other => return Err(format!("unknown op {other}")),
                    }
                }
                "--help" | "-h" => {
                    println!(
                        "usage: simulate [--senders N] [--tuples N] [--distinct N]\n\
                         \t[--workload uniform|zipf|yelp|NG|BAC|LMDB] [--skew S]\n\
                         \t[--loss P] [--channels N] [--op sum|max|min] [--seed N]\n\
                         \t[--swap-threshold N] [--timing]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    fn stream(&self, sender: usize) -> Vec<KvTuple> {
        let seed = self.seed ^ ((sender as u64) << 24);
        match self.workload.as_str() {
            "uniform" => uniform_stream(seed, self.distinct, self.tuples),
            "zipf" => {
                let mut rng = StdRng::seed_from_u64(seed);
                zipf_stream(
                    &mut rng,
                    self.distinct as usize,
                    self.tuples,
                    self.skew,
                    StreamOrder::Shuffled,
                )
                .into_iter()
                .map(|r| KvTuple::new(Key::from_u64(r), 1))
                .collect()
            }
            name => {
                let corpus = TextCorpus::paper_datasets()
                    .into_iter()
                    .find(|c| c.name.eq_ignore_ascii_case(name))
                    .unwrap_or_else(|| {
                        eprintln!("unknown workload {name}");
                        std::process::exit(2);
                    });
                corpus.stream(seed, self.tuples)
            }
        }
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };

    let mut cfg = AskConfig::paper_default();
    cfg.data_channels = args.channels;
    cfg.region_aggregators = cfg.aggregators_per_aa / args.channels.max(1);
    cfg.swap_threshold = args.swap_threshold;
    let run = AskRun {
        tasks: args.channels,
        link: LinkConfig::new(100e9, SimDuration::from_micros(1))
            .with_faults(FaultModel::reliable().with_loss(args.loss)),
        seed: args.seed,
        config: cfg,
    };
    let streams: Vec<Vec<KvTuple>> = (0..args.senders).map(|s| args.stream(s)).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    println!(
        "ASK simulation: {} senders × {} tuples ({} workload, op {:?}, loss {}%)",
        args.senders,
        args.tuples,
        args.workload,
        args.op,
        args.loss * 100.0
    );
    if args.timing {
        ask_bench::runners::enable_phase_timing();
    }
    let wall_start = std::time::Instant::now();
    let report = run_ask(&run, streams);
    let wall = wall_start.elapsed();

    println!("\nresults:");
    println!("  job completion time     {:.3} ms", report.jct_s * 1e3);
    println!(
        "  switch absorption       {} of {} eligible tuples",
        pct(report.absorption()),
        report.switch.tuples_aggregated + report.switch.tuples_forwarded
    );
    println!(
        "  packets switch-ACKed    {}",
        pct(report.switch.packet_absorption_ratio())
    );
    println!("  shadow swaps            {}", report.switch.swaps);
    println!(
        "  duplicates deduped      {} switch / {} host",
        report.switch.duplicates_detected, report.receiver.duplicates_dropped
    );
    let retx: u64 = report.senders.iter().map(|s| s.retransmissions).sum();
    println!("  retransmissions         {retx}");
    for (i, bps) in report.sender_goodput_bps.iter().enumerate() {
        println!(
            "  sender {i} goodput        {} Gbps over {:.3} ms",
            gbps(*bps),
            report.sender_elapsed_s[i] * 1e3
        );
    }
    println!(
        "  receiver residual       {} tuples merged on host",
        report.receiver.tuples_host_aggregated
    );
    println!("  total tuples in         {total}");

    // Batching footer (observational counters; not part of any
    // golden-pinned figure body).
    let mut host_bursts = report.receiver.burst_len;
    for s in &report.senders {
        for (a, b) in host_bursts.iter_mut().zip(s.burst_len.iter()) {
            *a += b;
        }
    }
    let hist = |h: &[u64]| {
        h.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  ingest bursts (log2)    switch [{}], hosts [{}]",
        hist(&report.switch.burst_len),
        hist(&host_bursts),
    );

    if args.timing {
        // Excluded section: wall times vary run to run, so they are printed
        // for attribution only and never enter golden/baseline comparisons.
        println!("\n{}", ask_bench::runners::render_phase_totals());
    }

    let mut baseline = Baseline::new(Scale::from_env(), 1);
    baseline.record("simulate_wall", wall);
    baseline.record(
        "simulate_jct",
        std::time::Duration::from_secs_f64(report.jct_s),
    );
    let path = baseline_path();
    match baseline.write_to(&path) {
        Ok(()) => eprintln!("wrote timings to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
