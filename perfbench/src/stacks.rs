//! The stacks under test, each driven in a closed loop: one thread
//! starts a stack's round r+1 only when its round r has returned (the
//! ladder interleaves several stacks' turns on that one thread).
//!
//! The stacks are the rungs of the ladder — bare `Engine`, the `System`
//! facade, `Simulation`, then monitors, telemetry, tracer and recorder added
//! one at a time — and the `NetSystem` deployment with or without its
//! sinks. Every run ends with its [`Digest`] and, when it recorded, a check
//! that the recording decodes back to the live final state.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellflow_core::monitor::MonitorViolation;
use cellflow_core::snapshot::{state_at, Recorder};
use cellflow_core::{standard_monitors, Engine, FaultPlan, Monitor, System, SystemState};
use cellflow_net::{NetSystem, NetTelemetry, SnapshotStore};
use cellflow_sim::{FailureModel, SimTelemetry, Simulation};
use cellflow_telemetry::registry::bucket_upper;
use cellflow_telemetry::{EventLog, Histogram, Recording, Registry, Tracer};

use crate::probes::{
    cpu_ns, cpu_ns_since, ns_since, time_monitors, ByteCounter, FailureStats, MonitorTimers,
    RoundClock, RoundGaps, TimedFailure, TimedStore,
};
use crate::workload::{Digest, Workload, KEYFRAME_INTERVAL};

/// What every stack reports about one run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Host ns to build the stack, up to the first round.
    pub setup_ns: u64,
    /// Host ns per round, in round order.
    pub round_ns: Vec<u64>,
    /// Process CPU ns per round, in round order: recorded by the stacks
    /// timed end to end (`Simulation` and the deployment), empty for the
    /// bare engine and `System` rungs.
    pub round_cpu_ns: Vec<u64>,
    /// Host ns of all rounds together.
    pub run_ns: u64,
    /// Rounds driven.
    pub rounds: u64,
    /// The outcome, or why the run produced none (`NetError`, a recording
    /// that does not decode to the final state).
    pub digest: Result<Digest, String>,
    /// Distinct rounds on which a monitor flagged a violation.
    pub violation_rounds: u64,
}

impl Run {
    /// Host ns per round.
    pub fn ns_per_round(&self) -> f64 {
        self.run_ns as f64 / self.rounds.max(1) as f64
    }
}

/// Sinks and probes added on top of the bare runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `standard_monitors` (sim: after each round; net: in the collector).
    pub monitors: bool,
    /// Telemetry with its JSONL event stream into a byte counter.
    pub telemetry: bool,
    /// A causal tracer.
    pub tracer: bool,
    /// A flight recorder at [`KEYFRAME_INTERVAL`].
    pub recorder: bool,
    /// Timing wrappers around the fault model, monitors and store.
    pub probes: bool,
}

impl Layers {
    /// The stack a user runs by default: monitors only.
    pub const PLAIN: Layers = Layers {
        monitors: true,
        telemetry: false,
        tracer: false,
        recorder: false,
        probes: false,
    };

    /// `cellflow record --trace --telemetry`: every sink attached.
    pub const OBSERVED: Layers = Layers {
        monitors: true,
        telemetry: true,
        tracer: true,
        recorder: true,
        probes: false,
    };
}

/// What the timing wrappers and sinks measured during a run.
#[derive(Debug, Default)]
pub struct Probed {
    /// Fault-model busy time and counts.
    pub failure: Option<Arc<FailureStats>>,
    /// Busy time per monitor, by monitor name.
    pub monitors: MonitorTimers,
    /// Bytes of JSONL the telemetry stream wrote.
    pub jsonl_bytes: u64,
    /// Bytes of the finished recording.
    pub recording_bytes: u64,
    /// Host ns of `Recorder::finish`.
    pub recording_finish_ns: u64,
    /// Deployment counters, when the run was a traced deployment.
    pub net: Option<NetStats>,
}

/// Deployment counters read from the `NetTelemetry` registry, the
/// `NetReport` and the timing store.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Median host ns a cell waited at the round barrier.
    pub barrier_wait_ns_p50: f64,
    /// 99th percentile of the same.
    pub barrier_wait_ns_p99: f64,
    /// Median host ns of one cell's round.
    pub cell_round_ns_p50: f64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Mean envelopes drained per inbox exchange.
    pub inbox_batch_mean: f64,
    /// Messages the chaos fabric dropped.
    pub chaos_dropped: u64,
    /// Round timeouts.
    pub timeouts: u64,
    /// Snapshot-store appends.
    pub store_appends: u64,
    /// Median host ns of one store append.
    pub store_append_ns_p50: f64,
}

/// A quantile of a fixed-bucket histogram, interpolated linearly inside
/// the bucket that holds it (bucket `k` spans `[2^k, 2^(k+1))`, bucket 0
/// spans `[0, 2)`).
fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    let counts = h.bucket_counts();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (k, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= rank {
            let lo = if k == 0 { 0.0 } else { (1u64 << k) as f64 };
            let hi = bucket_upper(k) as f64 + 1.0;
            return lo + (hi - lo) * ((rank - seen) / c);
        }
        seen += c;
    }
    bucket_upper(counts.len() - 1) as f64
}

/// The `q` quantile of `values` (nearest rank; 0 when empty).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean of the largest `share` of `values` (at least one value; 0 when
/// empty): the tail's typical size, which unlike a single high quantile
/// does not jump when the rank it reads falls between two kinds of round.
pub(crate) fn tail_mean(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = ((share.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[sorted.len() - k..].iter().sum::<f64>() / k as f64
}

/// The median of `values`, averaging the middle two of an even count (0
/// when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn violation_rounds(violations: &[MonitorViolation]) -> u64 {
    violations
        .iter()
        .map(|v| v.round)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// Checks that `bytes` parse as a recording whose last frame is round
/// `rounds` and decodes to `live`.
fn check_recording(bytes: &[u8], rounds: u64, live: &SystemState) -> Result<(), String> {
    let rec = Recording::parse(bytes).map_err(|e| format!("recording does not parse: {e}"))?;
    let last = rec.round_span().map(|(_, last)| last);
    if last != Some(rounds) {
        return Err(format!(
            "recording ends at {last:?}, expected round {rounds}"
        ));
    }
    let decoded = state_at(&rec, rounds).map_err(|e| format!("recording does not decode: {e}"))?;
    if decoded != *live {
        return Err("recording decodes to a state other than the live final state".into());
    }
    Ok(())
}

fn scenario_line(w: &Workload) -> String {
    format!(
        "perfbench {} seed={} rounds={}",
        w.kind.name(),
        w.seed,
        w.rounds
    )
}

/// A stack driven one timed round at a time, so the ladder can interleave
/// its rungs.
pub(crate) trait Stepper {
    /// Runs and times the next round.
    fn step(&mut self);
}

/// Runs `stack` for `rounds` rounds.
pub(crate) fn drive_rounds(stack: &mut dyn Stepper, rounds: u64) {
    for _ in 0..rounds {
        stack.step();
    }
}

fn timed_run(setup_ns: u64, round_ns: Vec<u64>, digest: Result<Digest, String>) -> Run {
    Run {
        setup_ns,
        run_ns: round_ns.iter().sum(),
        rounds: round_ns.len() as u64,
        round_ns,
        round_cpu_ns: Vec::new(),
        digest,
        violation_rounds: 0,
    }
}

/// Counters of the bare engine rung.
#[derive(Clone, Debug)]
pub(crate) struct EngineRun {
    /// The run itself.
    pub run: Run,
    /// Mean cells the engine's phases ran on per round.
    pub active_cells_mean: f64,
    /// Mean entities in flight per round.
    pub entities_mean: f64,
    /// The engine's allocation-event count after the run.
    pub alloc_events: u64,
}

/// The bare `Engine`: faults are applied to an exported state and loaded
/// back, exactly the reload the `System` facade performs on a fault round.
pub(crate) struct EngineStack<'w> {
    w: &'w Workload,
    engine: Engine,
    mirror: SystemState,
    setup_ns: u64,
    round_ns: Vec<u64>,
    consumed: u64,
    inserted: u64,
    active: u64,
    entities: u64,
}

impl<'w> EngineStack<'w> {
    /// Builds the engine, sharded over `workers` row bands when above 1.
    pub fn new(w: &'w Workload, workers: usize) -> EngineStack<'w> {
        let t = Instant::now();
        let mut engine = Engine::new(w.config.clone());
        if workers > 1 {
            engine.set_workers(workers);
            engine.set_shard_min(1);
        }
        let mirror = w.config.initial_state();
        EngineStack {
            w,
            engine,
            mirror,
            setup_ns: ns_since(t),
            round_ns: Vec::with_capacity(w.rounds as usize),
            consumed: 0,
            inserted: 0,
            active: 0,
            entities: 0,
        }
    }

    /// The finished run and the engine's counters.
    pub fn finish(self) -> EngineRun {
        let rounds = self.round_ns.len().max(1) as f64;
        let state = self.engine.export_state();
        let digest = Digest::of(&state, self.consumed, self.inserted, 0);
        EngineRun {
            active_cells_mean: self.active as f64 / rounds,
            entities_mean: self.entities as f64 / rounds,
            alloc_events: self.engine.alloc_events(),
            run: timed_run(self.setup_ns, self.round_ns, Ok(digest)),
        }
    }
}

impl Stepper for EngineStack<'_> {
    fn step(&mut self) {
        let round = self.round_ns.len() as u64;
        let t = Instant::now();
        if self.w.plan.events_at(round).next().is_some() {
            self.engine.store_state(&mut self.mirror);
            self.w.apply_faults(round, &mut self.mirror);
            self.engine.load_state(&self.mirror);
        }
        let events = self.engine.step();
        self.consumed += events.consumed.len() as u64;
        self.inserted += events.inserted.len() as u64;
        self.round_ns.push(ns_since(t));
        self.active += self.engine.active_cells() as u64;
        self.entities += self.engine.entity_count() as u64;
    }
}

/// The `System` facade under the workload's fault plan.
pub(crate) struct SystemStack {
    system: System,
    plan: FaultPlan,
    setup_ns: u64,
    round_ns: Vec<u64>,
}

impl SystemStack {
    /// Builds the facade.
    pub fn new(w: &Workload) -> SystemStack {
        let t = Instant::now();
        let system = System::new(w.config.clone());
        let plan = w.plan.clone();
        SystemStack {
            system,
            plan,
            setup_ns: ns_since(t),
            round_ns: Vec::with_capacity(w.rounds as usize),
        }
    }

    /// The finished run.
    pub fn finish(self) -> Run {
        let s = &self.system;
        let digest = Digest::of(s.state(), s.consumed_total(), s.inserted_total(), 0);
        timed_run(self.setup_ns, self.round_ns, Ok(digest))
    }
}

impl Stepper for SystemStack {
    fn step(&mut self) {
        let round = self.system.round();
        let t = Instant::now();
        self.plan.apply(&mut self.system, round);
        self.system.step();
        self.round_ns.push(ns_since(t));
    }
}

/// Runs the `System` facade for `rounds` rounds: the shared-variable
/// reference the other stacks are compared against.
pub fn system_run(w: &Workload, rounds: u64) -> Run {
    let mut stack = SystemStack::new(w);
    drive_rounds(&mut stack, rounds);
    stack.finish()
}

/// `Simulation` with safety checks off (as the CLI scenario runners run
/// it) plus some layers.
pub(crate) struct SimStack {
    sim: Simulation,
    probed: Probed,
    jsonl: ByteCounter,
    setup_ns: u64,
    round_ns: Vec<u64>,
    round_cpu_ns: Vec<u64>,
}

/// Builds the `Simulation` stack with `layers`.
pub(crate) fn build_sim(w: &Workload, layers: Layers) -> SimStack {
    let t = Instant::now();
    let mut probed = Probed::default();
    let mut sim = Simulation::new(w.config.clone(), w.seed).with_safety_checks(false);
    sim = if layers.probes {
        let stats = Arc::new(FailureStats::default());
        probed.failure = Some(Arc::clone(&stats));
        sim.with_failure_model(TimedFailure::new(w.plan.clone(), stats))
    } else {
        sim.with_failure_model(w.plan.clone())
    };
    if layers.monitors {
        let mut monitors = standard_monitors(&w.config);
        if layers.probes {
            let (wrapped, timers) = time_monitors(monitors);
            monitors = wrapped;
            probed.monitors = timers;
        }
        sim = sim.with_monitors(monitors);
    }
    let jsonl = ByteCounter::default();
    if layers.telemetry {
        let log = EventLog::new().with_stream(Box::new(jsonl.clone()));
        sim = sim.with_telemetry(SimTelemetry::new(&Registry::new()).with_event_log(log));
    }
    if layers.tracer {
        sim = sim.with_tracer(Tracer::new(w.seed));
    }
    if layers.recorder {
        sim = sim.with_recorder(Box::new(Recorder::for_config(
            &w.config,
            w.seed,
            KEYFRAME_INTERVAL,
            &scenario_line(w),
        )));
    }
    SimStack {
        sim,
        probed,
        jsonl,
        setup_ns: ns_since(t),
        round_ns: Vec::with_capacity(w.rounds as usize),
        round_cpu_ns: Vec::with_capacity(w.rounds as usize),
    }
}

impl Stepper for SimStack {
    fn step(&mut self) {
        let t = Instant::now();
        let c = cpu_ns();
        self.sim.step();
        self.round_cpu_ns.push(cpu_ns_since(c));
        self.round_ns.push(ns_since(t));
    }
}

impl SimStack {
    /// The finished run: digest, recording check, sink byte counts.
    pub fn finish(mut self) -> (Run, Probed) {
        let sim = &mut self.sim;
        if let Some(tel) = sim.telemetry_mut() {
            tel.flush();
        }
        self.probed.jsonl_bytes = self.jsonl.bytes();
        let violations = sim.violations().len() as u64;
        let system = sim.system();
        let mut digest = Ok(Digest::of(
            system.state(),
            system.consumed_total(),
            system.inserted_total(),
            violations,
        ));
        if let Some(recorder) = sim.take_recorder() {
            let t = Instant::now();
            let bytes = recorder.finish();
            self.probed.recording_finish_ns = ns_since(t);
            self.probed.recording_bytes = bytes.len() as u64;
            let rounds = self.round_ns.len() as u64;
            if let Err(e) = check_recording(&bytes, rounds, sim.system().state()) {
                digest = Err(e);
            }
        }
        let violation_rounds = violation_rounds(sim.violations());
        let run = Run {
            violation_rounds,
            round_cpu_ns: self.round_cpu_ns,
            ..timed_run(self.setup_ns, self.round_ns, digest)
        };
        (run, self.probed)
    }
}

/// Builds and drives the `Simulation` stack for `rounds` rounds.
pub(crate) fn sim_run(w: &Workload, rounds: u64, layers: Layers) -> (Run, Probed) {
    let mut stack = build_sim(w, layers);
    drive_rounds(&mut stack, rounds);
    stack.finish()
}

/// A built deployment, ready for its run.
pub(crate) struct NetStack {
    net: NetSystem,
    monitors: Vec<Box<dyn Monitor>>,
    recorder: Option<Box<Recorder>>,
    store: Option<Arc<TimedStore>>,
    registry: Registry,
    probed: Probed,
    jsonl: ByteCounter,
}

/// Builds the `NetSystem` deployment with `workers` pooled workers, the
/// workload's fault plan and message chaos, plus `layers`.
pub(crate) fn build_net(w: &Workload, workers: usize, layers: Layers) -> NetStack {
    let mut probed = Probed::default();
    let mut net = NetSystem::new(w.config.clone())
        .expect("benchmark configurations carry no entity budget")
        .with_plan(w.plan.clone())
        .with_worker_cap(workers);
    if let Some(chaos) = w.chaos {
        net = net.with_chaos(chaos);
    }
    let store = layers.probes.then(|| Arc::new(TimedStore::default()));
    if let Some(store) = &store {
        net = net.with_store(Arc::clone(store) as Arc<dyn SnapshotStore>);
    }
    let mut monitors: Vec<Box<dyn Monitor>> = Vec::new();
    if layers.monitors {
        monitors = standard_monitors(&w.config);
        if layers.probes {
            let (wrapped, timers) = time_monitors(monitors);
            monitors = wrapped;
            probed.monitors = timers;
        }
    }
    let jsonl = ByteCounter::default();
    let registry = Registry::new();
    if layers.telemetry {
        let log = EventLog::new().with_stream(Box::new(jsonl.clone()));
        net = net.with_telemetry(Arc::new(NetTelemetry::new(&registry).with_event_log(log)));
    }
    if layers.tracer {
        net = net.with_tracer(Tracer::new(w.seed));
    }
    let recorder = layers.recorder.then(|| {
        Box::new(Recorder::for_config(
            &w.config,
            w.seed,
            KEYFRAME_INTERVAL,
            &scenario_line(w),
        ))
    });
    NetStack {
        net,
        monitors,
        recorder,
        store,
        registry,
        probed,
        jsonl,
    }
}

/// Builds and runs the deployment for `rounds` rounds. Host time per round
/// is read off a [`RoundClock`] in the collector.
pub fn net_run(w: &Workload, rounds: u64, workers: usize, layers: Layers) -> (Run, Probed) {
    let t = Instant::now();
    let NetStack {
        net,
        mut monitors,
        recorder,
        store,
        registry,
        mut probed,
        jsonl,
    } = build_net(w, workers, layers);
    let gaps = Arc::new(Mutex::new(RoundGaps::default()));
    let setup_ns = ns_since(t);

    let start = Instant::now();
    monitors.push(Box::new(RoundClock::new(
        start,
        cpu_ns(),
        Arc::clone(&gaps),
    )));
    let outcome = net.run_monitored_recorded(rounds, monitors, recorder);
    let run_ns = ns_since(start);
    let RoundGaps { wall_ns, cpu_ns } = std::mem::take(
        &mut *gaps
            .lock()
            .expect("the collector has been joined, so no holder panicked"),
    );

    let mut run = Run {
        setup_ns,
        round_ns: wall_ns,
        round_cpu_ns: cpu_ns,
        run_ns,
        rounds,
        digest: Err(String::new()),
        violation_rounds: 0,
    };
    match outcome {
        Err(e) => run.digest = Err(format!("deployment error: {e}")),
        Ok((report, recording)) => {
            run.violation_rounds = violation_rounds(&report.violations);
            run.digest = Ok(Digest::of(
                &report.state,
                report.consumed,
                report.inserted,
                report.violations.len() as u64,
            ));
            if let Some(bytes) = recording {
                probed.recording_bytes = bytes.len() as u64;
                if let Err(e) = check_recording(&bytes, rounds, &report.state) {
                    run.digest = Err(e);
                }
            } else if layers.recorder {
                run.digest = Err("deployment returned no recording".into());
            }
            probed.jsonl_bytes = jsonl.bytes();
            if layers.probes {
                let store_ns: Vec<f64> = store
                    .as_ref()
                    .map(|s| s.append_ns().iter().map(|&ns| ns as f64).collect())
                    .unwrap_or_default();
                let barrier = registry.histogram("cellflow_net_barrier_wait_ns");
                let inbox = registry.histogram("cellflow_net_inbox_batch_size");
                probed.net = Some(NetStats {
                    barrier_wait_ns_p50: histogram_quantile(&barrier, 0.5),
                    barrier_wait_ns_p99: histogram_quantile(&barrier, 0.99),
                    cell_round_ns_p50: histogram_quantile(
                        &registry.histogram("cellflow_net_cell_round_ns"),
                        0.5,
                    ),
                    messages: registry.counter("cellflow_net_messages_sent_total").value(),
                    inbox_batch_mean: inbox.sum() as f64 / inbox.count().max(1) as f64,
                    chaos_dropped: report.chaos.dropped,
                    timeouts: registry.counter("cellflow_net_timeouts_total").value(),
                    store_appends: store_ns.len() as u64,
                    store_append_ns_p50: quantile(&store_ns, 0.5),
                });
            }
        }
    }
    (run, probed)
}
