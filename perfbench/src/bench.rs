//! The two kinds of run: end to end (plain stack, then every sink attached)
//! and traced (the ladder plus the timing wrappers), each judged against
//! the workload's digest.

use std::time::Instant;

use crate::probes::{cpu_ns, cpu_ns_since};
use crate::stacks::{
    build_net, build_sim, drive_rounds, median, net_run, quantile, sim_run, system_run, tail_mean,
    EngineStack, Layers, Probed, Run, SimStack, Stepper, SystemStack,
};
use crate::workload::{
    pinned_digest, Digest, Kind, Runtime, Workload, DEFAULT_SEED, EPISODE_ROUNDS,
};

/// End-to-end metrics, with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("rounds_per_cpu_s", "1/s"),
    ("round_cpu_ns_p50", "ns"),
    ("round_cpu_ns_top1pct_mean", "ns"),
    ("observed_rounds_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_share", "ratio"),
];

/// Per-layer metrics, with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("engine.ns_per_round", "ns"),
    ("engine.sharded_ns_per_round", "ns"),
    ("engine.active_cells", "count"),
    ("engine.entities", "count"),
    ("engine.alloc_events", "count"),
    ("system.ns_per_round", "ns"),
    ("system.self_ns_per_round", "ns"),
    ("failure.apply_ns_per_round", "ns"),
    ("failure.events", "count"),
    ("failure.rounds", "count"),
    ("sim.self_ns_per_round", "ns"),
    ("monitor.safety.ns_per_round", "ns"),
    ("monitor.routing.ns_per_round", "ns"),
    ("monitor.conservation.ns_per_round", "ns"),
    ("monitor.stabilization.ns_per_round", "ns"),
    ("monitor.violations", "count"),
    ("telemetry.ns_per_round", "ns"),
    ("telemetry.jsonl_bytes_per_round", "bytes"),
    ("trace.ns_per_round", "ns"),
    ("recording.ns_per_round", "ns"),
    ("recording.bytes_per_round", "bytes"),
    ("recording.finish_ns", "ns"),
    ("net.barrier_wait_ns_p50", "ns"),
    ("net.barrier_wait_ns_p99", "ns"),
    ("net.cell_round_ns_p50", "ns"),
    ("net.messages_per_round", "count"),
    ("net.inbox_batch_mean", "count"),
    ("net.chaos_dropped", "count"),
    ("net.timeouts", "count"),
    ("net.collector_monitor_ns_per_round", "ns"),
    ("store.appends", "count"),
    ("store.append_ns_p50", "ns"),
];

/// The traced-only ratio reported beside the per-layer metrics.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace_overhead_ratio", "ratio");

/// Setups timed per run, so `setup_s` is a median of many.
const MIN_SETUPS: usize = 51;

/// Rounds of the deployment rung on the simulation workloads: the
/// deployment costs tens of ms per round at their grid sizes, so it runs a
/// prefix, checked against the shared-variable reference over that prefix.
pub const NET_PREFIX_ROUNDS: u64 = 24;

/// Rounds each ladder stack runs before the next takes its turn: long
/// enough to amortise the cache refill a switch costs, short enough that
/// one turn of all stacks spans well under a second of host drift.
const LADDER_CHUNK: u64 = 16;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement time to fill, in seconds (every run completes at least
    /// one full pass).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end to end.
    pub trace: bool,
    /// Rounds per run; `None` for the workload's full length.
    pub rounds: Option<u64>,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one benchmark invocation.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Rounds driven.
    pub attempted: u64,
    /// Rounds that flagged a violation or belong to a failed run.
    pub failed: u64,
    /// Metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Why checks failed, one line each.
    pub problems: Vec<String>,
    /// Labelled digests of every run (for the smoke tests).
    pub digests: Vec<(String, Digest)>,
    /// Traced runs: `(rung, ns per round)` from bare engine to the full
    /// sim stack, median over passes.
    pub ladder: Vec<(&'static str, f64)>,
    /// Pooled worker count the deployment ran with.
    pub net_workers: usize,
}

impl Report {
    /// The value of metric `name`, if emitted.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Hardware threads available, at least 1.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Judges runs against expected digests and counts rounds.
#[derive(Default)]
struct Judge {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digests: Vec<(String, Digest)>,
}

impl Judge {
    /// Counts `run`'s rounds and checks it: it must have a digest, meet
    /// the invariants, and equal `expect` (which the first run of a group
    /// sets when nothing is pinned).
    fn judge(&mut self, label: &str, run: &Run, expect: &mut Option<Digest>) {
        self.attempted += run.rounds;
        let digest = match &run.digest {
            Err(e) => {
                self.failed += run.rounds;
                self.problems.push(format!("{label}: {e}"));
                return;
            }
            Ok(d) => *d,
        };
        self.digests.push((label.to_string(), digest));
        if !digest.invariants_hold() {
            self.problems
                .push(format!("{label}: invariants violated ({digest})"));
        }
        match expect {
            Some(e) if *e != digest => {
                self.failed += run.rounds;
                self.problems.push(format!(
                    "{label}: digest {digest} differs from expected {e}"
                ));
            }
            Some(_) => self.failed += run.violation_rounds,
            None => {
                self.failed += run.violation_rounds;
                *expect = Some(digest);
            }
        }
    }

    fn finish(
        self,
        metrics: Vec<Metric>,
        ladder: Vec<(&'static str, f64)>,
        net_workers: usize,
    ) -> Report {
        Report {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
            digests: self.digests,
            ladder,
            net_workers,
        }
    }
}

/// The digest a run of `opts` starts out expecting: pinned for the default
/// seed at full length, otherwise whatever the first run produces.
fn pinned(opts: &Options, rounds: u64) -> Option<Digest> {
    (opts.seed == DEFAULT_SEED && rounds == EPISODE_ROUNDS).then(|| pinned_digest(opts.kind))
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts)
    }
}

/// Drives `layers` on the workload's own runtime.
fn drive(w: &Workload, rounds: u64, workers: usize, layers: Layers) -> (Run, Probed) {
    match w.kind.runtime() {
        Runtime::Sim => sim_run(w, rounds, layers),
        Runtime::Net => net_run(w, rounds, workers, layers),
    }
}

/// Peak resident set size of this process in MB.
fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Rusage {
            utime: [i64; 2],
            stime: [i64; 2],
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on
        // 64-bit targets (two `timeval`s, then fourteen `long`s), the
        // pointer is to a live, writable value of that type, and
        // `RUSAGE_SELF` (0) is a valid `who`.
        let rc = unsafe { getrusage(0, &mut usage) };
        if rc == 0 {
            // Linux reports `ru_maxrss` in KiB.
            return usage.maxrss as f64 / 1024.0;
        }
    }
    0.0
}

/// Whether another repetition like the one started at `last` still fits in
/// `budget` seconds counted from `started`.
fn time_for_another(started: Instant, last: Instant, budget: f64) -> bool {
    started.elapsed().as_secs_f64() + last.elapsed().as_secs_f64() <= budget
}

/// Episodes each stack of an end-to-end run drives at least, so every
/// round position has a median over repeats.
const MIN_EPISODES: usize = 3;

/// The typical CPU time of each round position: the median, over a run's
/// repeats of the identical episode, of that round's time. Interference
/// from outside the program that hits a minority of the repeats at some
/// position drops out; what the program itself costs there stays.
fn typical_rounds(episodes: &[Vec<u64>]) -> Vec<f64> {
    let len = episodes.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|r| median(&episodes.iter().map(|e| e[r] as f64).collect::<Vec<_>>()))
        .collect()
}

/// Alternates plain and observed episodes until the time is used, so both
/// stacks sample the whole window of host conditions. Every end-to-end
/// time is process CPU time (see [`crate::probes::cpu_ns`]): on a shared
/// host the wall clock also counts the waits other tenants impose.
fn end_to_end(opts: &Options) -> Report {
    let rounds = opts.rounds.unwrap_or(EPISODE_ROUNDS);
    let workers = cores();
    let mut judge = Judge::default();
    let mut expect = pinned(opts, rounds);
    let setups: Vec<f64> = (0..MIN_SETUPS)
        .map(|_| {
            let c = cpu_ns();
            let w = Workload::new(opts.kind, opts.seed, rounds);
            match w.kind.runtime() {
                Runtime::Sim => drop(build_sim(&w, Layers::PLAIN)),
                Runtime::Net => drop(build_net(&w, workers, Layers::PLAIN)),
            }
            cpu_ns_since(c) as f64
        })
        .collect();
    let mut episodes = [Vec::new(), Vec::new()];
    let started = Instant::now();
    loop {
        let pair = Instant::now();
        for (phase, layers) in [Layers::PLAIN, Layers::OBSERVED].into_iter().enumerate() {
            let w = Workload::new(opts.kind, opts.seed, rounds);
            let (run, _) = drive(&w, rounds, workers, layers);
            judge.judge(["plain", "observed"][phase], &run, &mut expect);
            episodes[phase].push(run.round_cpu_ns);
        }
        if episodes[0].len() >= MIN_EPISODES && !time_for_another(started, pair, opts.seconds) {
            break;
        }
    }
    let typical = episodes.map(|e| typical_rounds(&e));
    let rate =
        |typical: &[f64]| typical.len() as f64 / (typical.iter().sum::<f64>().max(1.0) / 1e9);
    let ok_share = 1.0 - judge.failed as f64 / judge.attempted.max(1) as f64;
    let values = [
        rate(&typical[0]),
        quantile(&typical[0], 0.5),
        tail_mean(&typical[0], 0.01),
        rate(&typical[1]),
        quantile(&setups, 0.5) / 1e9,
        peak_rss_mb(),
        ok_share,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    judge.finish(metrics, Vec::new(), workers)
}

/// One pass of the ladder plus the deployment rung.
struct Pass {
    values: Vec<f64>,
    ladder: Vec<(&'static str, f64)>,
}

/// Repeats the ladder until the time is used (at least once) and reports
/// each per-layer metric's median over passes.
fn traced(opts: &Options) -> Report {
    let rounds = opts.rounds.unwrap_or(EPISODE_ROUNDS);
    let workers = cores();
    let w = Workload::new(opts.kind, opts.seed, rounds);
    let mut judge = Judge::default();
    // The shared-variable reference digest: pinned for the sim workloads;
    // for chaos-net the lossy fabric makes the deployment differ from it.
    let mut expect_ref = match w.kind.runtime() {
        Runtime::Sim => pinned(opts, rounds),
        Runtime::Net => None,
    };
    let mut expect_net = match w.kind.runtime() {
        Runtime::Sim => None,
        Runtime::Net => pinned(opts, rounds),
    };
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(ladder_pass(
            &w,
            rounds,
            workers,
            &mut judge,
            &mut expect_ref,
            &mut expect_net,
        ));
        if !time_for_another(started, t, opts.seconds) {
            break;
        }
    }
    let over_passes =
        |pick: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(pick).collect::<Vec<_>>());
    let names = PER_LAYER.iter().chain(std::iter::once(&TRACE_OVERHEAD));
    let metrics = names
        .enumerate()
        .map(|(k, &(name, unit))| Metric {
            name,
            unit,
            value: over_passes(&|p: &Pass| p.values[k]),
        })
        .collect();
    let ladder = passes[0]
        .ladder
        .iter()
        .enumerate()
        .map(|(k, &(rung, _))| (rung, over_passes(&|p: &Pass| p.ladder[k].1)))
        .collect();
    judge.finish(metrics, ladder, workers)
}

fn ladder_pass(
    w: &Workload,
    rounds: u64,
    workers: usize,
    judge: &mut Judge,
    expect_ref: &mut Option<Digest>,
    expect_net: &mut Option<Digest>,
) -> Pass {
    let per_round = |ns: u64| ns as f64 / rounds.max(1) as f64;
    let probes = |layers: Layers| Layers {
        probes: true,
        ..layers
    };

    let sim_rungs = [
        ("sim", Layers::default()),
        (
            "monitors",
            Layers {
                monitors: true,
                ..Layers::default()
            },
        ),
        (
            "telemetry",
            Layers {
                monitors: true,
                telemetry: true,
                ..Layers::default()
            },
        ),
        (
            "tracer",
            Layers {
                monitors: true,
                telemetry: true,
                tracer: true,
                ..Layers::default()
            },
        ),
        ("recorder", Layers::OBSERVED),
    ];

    // The ladder, and the untraced observed stack its top rung is compared
    // with, run in lockstep: LADDER_CHUNK rounds of each stack in turn, so
    // every rung meets the same host conditions and adjacent rungs differ
    // by their layer, not by when they ran.
    let mut engine = EngineStack::new(w, 1);
    let mut sharded = EngineStack::new(w, workers);
    let mut system = SystemStack::new(w);
    let mut sims: Vec<SimStack> = sim_rungs
        .iter()
        .map(|&(_, layers)| build_sim(w, probes(layers)))
        .collect();
    let mut observed = build_sim(w, Layers::OBSERVED);
    let mut done = 0;
    while done < rounds {
        let chunk = LADDER_CHUNK.min(rounds - done);
        // Ladder order, with the sharded engine (and its worker threads)
        // last, so no rung follows it.
        let mut stacks: Vec<&mut dyn Stepper> = vec![&mut engine, &mut system];
        stacks.extend(sims.iter_mut().map(|s| s as &mut dyn Stepper));
        stacks.push(&mut observed);
        stacks.push(&mut sharded);
        for stack in stacks {
            drive_rounds(stack, chunk);
        }
        done += chunk;
    }

    let engine = engine.finish();
    judge.judge("engine", &engine.run, expect_ref);
    let sharded = sharded.finish();
    judge.judge("engine-sharded", &sharded.run, expect_ref);
    let system = system.finish();
    judge.judge("system", &system, expect_ref);
    let sims: Vec<(&str, Run, Probed)> = sim_rungs
        .iter()
        .zip(sims)
        .map(|(&(label, _), stack)| {
            let (run, probed) = stack.finish();
            judge.judge(label, &run, expect_ref);
            (label, run, probed)
        })
        .collect();
    let (observed, _) = observed.finish();
    judge.judge("observed", &observed, expect_ref);
    let mut ladder = vec![
        ("engine", engine.run.ns_per_round()),
        ("system", system.ns_per_round()),
    ];
    ladder.extend(
        sims.iter()
            .map(|(label, run, _)| (*label, run.ns_per_round())),
    );
    let rung = |k: usize| ladder[k].1;

    // The deployment rung, with every sink and the timing store.
    let (net, net_probed, observed_ns, top_ns) = match w.kind.runtime() {
        Runtime::Sim => {
            let prefix = NET_PREFIX_ROUNDS.min(rounds);
            let mut expect_prefix = system_run(w, prefix).digest.ok().map(Digest::ignoring_ids);
            let (mut net, probed) = net_run(w, prefix, workers, probes(Layers::OBSERVED));
            net.digest = net.digest.map(Digest::ignoring_ids);
            judge.judge("net-prefix", &net, &mut expect_prefix);
            (net, probed, observed.ns_per_round(), rung(ladder.len() - 1))
        }
        Runtime::Net => {
            let (net, probed) = net_run(w, rounds, workers, probes(Layers::OBSERVED));
            judge.judge("net-traced", &net, expect_net);
            let (observed, _) = net_run(w, rounds, workers, Layers::OBSERVED);
            judge.judge("net-observed", &observed, expect_net);
            let top = net.ns_per_round();
            (net, probed, observed.ns_per_round(), top)
        }
    };
    let stats = net_probed.net.clone().unwrap_or_default();
    let net_rounds = net.rounds.max(1) as f64;

    let (_, _, sim_probed) = &sims[0];
    let failure = sim_probed
        .failure
        .as_ref()
        .expect("probed sim rungs carry failure stats");
    let (_, mon_run, mon_probed) = &sims[1];
    let violations = mon_run.digest.as_ref().map_or(0, |d| d.violations);
    let monitor_ns = |name: &str| {
        mon_probed
            .monitors
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, busy)| per_round(busy.ns()))
    };
    let (_, _, tel_probed) = &sims[2];
    let (_, _, rec_probed) = &sims[4];
    let collector_ns: u64 = net_probed.monitors.iter().map(|(_, b)| b.ns()).sum();
    let values = vec![
        rung(0),
        sharded.run.ns_per_round(),
        engine.active_cells_mean,
        engine.entities_mean,
        engine.alloc_events as f64,
        rung(1),
        rung(1) - rung(0),
        per_round(failure.busy_ns()),
        failure.events() as f64,
        failure.rounds() as f64,
        rung(2) - rung(1),
        monitor_ns("safety"),
        monitor_ns("routing"),
        monitor_ns("conservation"),
        monitor_ns("stabilization"),
        violations as f64,
        rung(4) - rung(3),
        tel_probed.jsonl_bytes as f64 / rounds.max(1) as f64,
        rung(5) - rung(4),
        rung(6) - rung(5),
        rec_probed.recording_bytes as f64 / rounds.max(1) as f64,
        rec_probed.recording_finish_ns as f64,
        stats.barrier_wait_ns_p50,
        stats.barrier_wait_ns_p99,
        stats.cell_round_ns_p50,
        stats.messages as f64 / net_rounds,
        stats.inbox_batch_mean,
        stats.chaos_dropped as f64,
        stats.timeouts as f64,
        collector_ns as f64 / net_rounds,
        stats.store_appends as f64,
        stats.store_append_ns_p50,
        top_ns / observed_ns.max(1.0),
    ];
    Pass { values, ladder }
}
