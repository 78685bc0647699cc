//! The simulation driver.

use cellflow_core::monitor::{Monitor, MonitorCtx, MonitorViolation};
use cellflow_core::{safety, PartitionSchedule, RoundEvents, System, SystemConfig, TokenPolicy};

use crate::failure::{FailureModel, NoFailures};
use crate::{Metrics, SimTelemetry, TraceRecorder};

/// A [`System`] under a [`FailureModel`], with metrics and optional tracing.
///
/// Each [`Simulation::step`] applies the failure model for the round, then one
/// `update` transition, then records metrics/trace. With `check_safety`
/// enabled (default in debug builds), every round asserts the paper's `Safe`
/// predicate and Invariants 1–2 — so any safety regression aborts loudly
/// instead of producing silently wrong throughput numbers.
///
/// ```
/// use cellflow_core::{Params, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
/// use cellflow_sim::Simulation;
///
/// let config = SystemConfig::new(
///     GridDims::square(8),
///     CellId::new(1, 7),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(1, 0));
/// let mut sim = Simulation::new(config, 42);
/// sim.run(500);
/// assert!(sim.metrics().throughput() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulation {
    system: System,
    failure: Box<dyn FailureModel>,
    metrics: Metrics,
    trace: Option<TraceRecorder>,
    check_safety: bool,
    monitors: Vec<Box<dyn Monitor>>,
    violations: Vec<MonitorViolation>,
    telemetry: Option<SimTelemetry>,
    tracer: Option<cellflow_telemetry::Tracer>,
    partition: Option<PartitionSchedule>,
}

impl Simulation {
    /// Creates a failure-free simulation of `config`.
    ///
    /// `seed` parameterizes the randomized token policy if the config uses
    /// one; with the default deterministic policies it is absorbed into the
    /// `Randomized` salt only when you opt in via
    /// [`Simulation::with_randomized_tokens`].
    pub fn new(config: SystemConfig, seed: u64) -> Simulation {
        let _ = seed;
        Simulation {
            system: System::new(config),
            failure: Box::new(NoFailures),
            metrics: Metrics::new(),
            trace: None,
            check_safety: cfg!(debug_assertions),
            monitors: Vec::new(),
            violations: Vec::new(),
            telemetry: None,
            tracer: None,
            partition: None,
        }
    }

    /// Applies a scripted link-fault schedule: each round's cut mask is
    /// installed before the round runs (a cut slot reads as a silent
    /// neighbor), and rounds with any active cut count as ambient
    /// disturbance for the monitors' stabilization stopwatch — mirroring
    /// how the message-passing runtime treats suppressed announcements.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for a different grid.
    pub fn with_partition(mut self, schedule: PartitionSchedule) -> Simulation {
        assert_eq!(
            schedule.dims(),
            self.system.config().dims(),
            "partition schedule and system must share a grid"
        );
        self.partition = Some(schedule);
        self
    }

    /// Replaces the failure model.
    pub fn with_failure_model<F: FailureModel + 'static>(mut self, model: F) -> Simulation {
        self.failure = Box::new(model);
        self
    }

    /// Fans the engine's sparse phases out to `workers` shard threads.
    /// Values above 1 also drop the sharding threshold so the fan-out
    /// actually engages on small campaign grids — output stays byte-identical
    /// to sequential execution at every worker count.
    pub fn with_workers(mut self, workers: usize) -> Simulation {
        self.system.set_workers(workers);
        if workers > 1 {
            self.system.set_shard_min(1);
        }
        self
    }

    /// Switches the system's token policy to `Randomized` with this salt.
    pub fn with_randomized_tokens(mut self, salt: u64) -> Simulation {
        let config = self
            .system
            .config()
            .clone()
            .with_token_policy(TokenPolicy::Randomized { salt });
        let state = self.system.state().clone();
        let mut system = System::new(config);
        system.set_state(state);
        self.system = system;
        self
    }

    /// Attaches a trace recorder.
    pub fn with_trace(mut self, trace: TraceRecorder) -> Simulation {
        self.trace = Some(trace);
        self
    }

    /// Forces per-round safety checking on or off (defaults to on in debug
    /// builds, off in release).
    pub fn with_safety_checks(mut self, on: bool) -> Simulation {
        self.check_safety = on;
        self
    }

    /// Installs online monitors, evaluated against the global state after
    /// every round. Unlike [`Simulation::with_safety_checks`] (which panics),
    /// monitors *accumulate* violations — see [`Simulation::violations`] —
    /// which is what a chaos campaign wants: run to completion, then report.
    ///
    /// These are the same monitors the message-passing runtime evaluates in
    /// [`NetSystem::run_monitored`](../cellflow_net/struct.NetSystem.html),
    /// so a campaign can be judged identically on both runtimes.
    pub fn with_monitors(mut self, monitors: Vec<Box<dyn Monitor>>) -> Simulation {
        self.monitors = monitors;
        self
    }

    /// Attaches telemetry: per-round counters and latency into the
    /// bundle's registry, every round's events into its structured JSONL
    /// log (monitor violations dump the flight recorder when one is
    /// configured), and the core engine's Route/Signal/Move phase timers
    /// registered in the same registry.
    pub fn with_telemetry(mut self, telemetry: SimTelemetry) -> Simulation {
        self.system
            .attach_phase_timers(cellflow_telemetry::PhaseTimers::register(
                telemetry.registry(),
            ));
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a causal tracer: every round's telemetry stream gains a
    /// deterministic span tree (round → phase → shard, plus fault and
    /// event-bearing-cell leaves) whose ids are pure functions of the
    /// tracer seed. Requires telemetry with an event log to produce
    /// output; without [`Simulation::with_telemetry`] it only turns on the
    /// engine's (allocation-free) per-round phase attribution.
    pub fn with_tracer(mut self, tracer: cellflow_telemetry::Tracer) -> Simulation {
        self.system.enable_round_trace();
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a flight recorder: the opening keyframe is the current
    /// state, and every subsequent round records itself (see
    /// [`System::attach_recorder`]). Seal it with
    /// [`Simulation::take_recorder`] when the run completes.
    pub fn with_recorder(mut self, recorder: Box<cellflow_core::snapshot::Recorder>) -> Simulation {
        self.system.attach_recorder(recorder);
        self
    }

    /// Detaches and returns the flight recorder, if any.
    pub fn take_recorder(&mut self) -> Option<Box<cellflow_core::snapshot::Recorder>> {
        self.system.take_recorder()
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&SimTelemetry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the attached telemetry (e.g. to flush the stream).
    pub fn telemetry_mut(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_mut()
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system (seeding entities, manual
    /// failures).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace recorder, if attached.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Violations accumulated by the installed monitors.
    pub fn violations(&self) -> &[MonitorViolation] {
        &self.violations
    }

    /// One summary line per installed monitor.
    pub fn monitor_summaries(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.summary()).collect()
    }

    /// Executes one round: failures, then `update`, then bookkeeping.
    ///
    /// # Panics
    ///
    /// With safety checks enabled, panics if `Safe`, Invariant 1, or
    /// Invariant 2 is violated after the round — which the protocol
    /// guarantees never happens (Theorem 5); a panic here is a bug.
    pub fn step(&mut self) -> &RoundEvents {
        let round = self.system.round();
        let mut partitioned = false;
        if let Some(schedule) = &self.partition {
            self.system.set_link_cuts(schedule.mask_row(round));
            partitioned = schedule.active(round);
        }
        let failures = self.failure.apply(&mut self.system, round);
        let span = self.telemetry.as_ref().map(|tel| tel.round_ns.start());
        self.system.step();
        drop(span);
        let events = self.system.engine().events();
        self.metrics.record(events);
        self.metrics.record_failures(&failures);
        if let Some(tr) = &mut self.trace {
            tr.record(round, &failures, events);
        }
        let fresh_violations = self.violations.len();
        if !self.monitors.is_empty() {
            let ctx = MonitorCtx {
                config: self.system.config(),
                state: self.system.state(),
                round: self.system.round(),
                failed: &failures.failed,
                recovered: &failures.recovered,
                corrupted: &failures.corrupted,
                // The shared-variable model has no message fabric to be
                // noisy, but an active link-cut schedule is the same kind
                // of disturbance: stabilization is only promised once the
                // cuts heal.
                ambient_chaos: partitioned,
                consumed_total: self.system.consumed_total(),
                inserted_total: self.system.inserted_total(),
                changed: self.system.changed_cells(),
            };
            for monitor in self.monitors.iter_mut() {
                self.violations.extend(monitor.observe(&ctx));
            }
        }
        if let Some(tel) = &mut self.telemetry {
            // Rounds are tagged 1-based, matching the monitors' numbering
            // and the net collector's stream.
            match &self.tracer {
                None => tel.observe_round(
                    round + 1,
                    &failures,
                    events,
                    &self.violations[fresh_violations..],
                ),
                Some(tracer) => tel.observe_round_traced(
                    round + 1,
                    &failures,
                    events,
                    &self.violations[fresh_violations..],
                    tracer,
                    self.system.round_trace(),
                ),
            }
        }
        if self.check_safety {
            let (cfg, st) = (self.system.config(), self.system.state());
            if let Err(v) = safety::check_safe(cfg, st) {
                panic!("safety violated at round {round}: {v}");
            }
            if let Err(v) = safety::check_invariant1(cfg, st) {
                panic!("Invariant 1 violated at round {round}: {v}");
            }
            if let Err(v) = safety::check_invariant2(cfg, st) {
                panic!("Invariant 2 violated at round {round}: {v}");
            }
        }
        events
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{RandomFailRecover, Schedule};
    use cellflow_core::Params;
    use cellflow_grid::{CellId, GridDims};

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(8),
            CellId::new(1, 7),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
    }

    #[test]
    fn simulation_accumulates_metrics() {
        let mut sim = Simulation::new(config(), 1).with_safety_checks(true);
        sim.run(400);
        assert_eq!(sim.metrics().rounds(), 400);
        assert!(sim.metrics().throughput() > 0.0);
        assert_eq!(
            sim.metrics().consumed_total(),
            sim.system().consumed_total()
        );
    }

    #[test]
    fn trace_validates_on_long_run() {
        let mut sim = Simulation::new(config(), 1)
            .with_trace(TraceRecorder::new())
            .with_safety_checks(true);
        sim.run(300);
        let checked = sim.trace().unwrap().validate().expect("trace consistent");
        assert!(checked > 0);
    }

    #[test]
    fn random_failures_never_break_safety() {
        let mut sim = Simulation::new(config(), 3)
            .with_failure_model(RandomFailRecover::new(0.05, 0.1, 99))
            .with_safety_checks(true);
        sim.run(500); // step() panics on any violation
        assert_eq!(sim.metrics().rounds(), 500);
    }

    #[test]
    fn scheduled_carving_pins_flow() {
        let dims = GridDims::square(8);
        let path =
            cellflow_grid::Path::straight(CellId::new(1, 0), cellflow_geom::Dir::North, 8).unwrap();
        let mut sim = Simulation::new(config(), 1)
            .with_failure_model(Schedule::new().carve(path.carve_failures(dims)))
            .with_safety_checks(true);
        sim.run(400);
        assert!(sim.metrics().throughput() > 0.0);
        // Entities only ever lived on path cells.
        for (cell, _) in sim.system().state().entities(dims) {
            assert!(path.contains(cell), "entity off the carved path at {cell}");
        }
    }

    #[test]
    fn monitors_stay_quiet_on_a_healthy_run() {
        let cfg = config();
        let monitors = cellflow_core::standard_monitors(&cfg);
        let mut sim = Simulation::new(cfg, 1)
            .with_failure_model(
                cellflow_core::FaultPlan::new()
                    .crash_at(30, CellId::new(3, 3))
                    .recover_at(60, CellId::new(3, 3)),
            )
            .with_monitors(monitors);
        sim.run(300);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
        assert_eq!(sim.metrics().failed_total(), 1);
        assert_eq!(sim.metrics().recovered_total(), 1);
        let summaries = sim.monitor_summaries();
        assert_eq!(summaries.len(), 4);
        assert!(summaries.iter().any(|s| s.contains("stabilized")));
    }

    #[test]
    fn telemetry_stream_matches_metrics_and_times_phases() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer};

        let registry = Registry::new();
        let buffer = SharedBuffer::new();
        let tel = SimTelemetry::new(&registry)
            .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
        let mut sim = Simulation::new(config(), 1)
            .with_failure_model(
                cellflow_core::FaultPlan::new()
                    .crash_at(30, CellId::new(3, 3))
                    .recover_at(60, CellId::new(3, 3)),
            )
            .with_telemetry(tel);
        sim.run(200);
        sim.telemetry_mut().unwrap().flush();

        // The stream is schema-valid and agrees with the metrics.
        let stats = cellflow_telemetry::validate_stream(&buffer.contents()).unwrap();
        let kind = |k: &str| {
            stats
                .by_kind
                .iter()
                .find(|(n, _)| n == k)
                .map_or(0, |(_, c)| *c)
        };
        assert_eq!(kind("round_summary"), 200);
        assert_eq!(kind("fail") as u64, sim.metrics().failed_total());
        assert_eq!(kind("consume") as u64, sim.metrics().consumed_total());
        assert_eq!(stats.last_round, 200);

        // Counters mirror the metrics; engine phase timers recorded too.
        let mut consumed = None;
        let mut route_count = None;
        for m in registry.snapshot() {
            match m {
                cellflow_telemetry::MetricSnapshot::Counter { ref name, value }
                    if name == "cellflow_sim_consumed_total" =>
                {
                    consumed = Some(value)
                }
                cellflow_telemetry::MetricSnapshot::Histogram {
                    ref name, count, ..
                } if name == "cellflow_engine_route_ns" => route_count = Some(count),
                _ => {}
            }
        }
        assert_eq!(consumed, Some(sim.metrics().consumed_total()));
        assert_eq!(route_count, Some(200));
    }

    #[test]
    fn tracer_emits_causal_spans_and_reruns_byte_identically() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer, Trace, Tracer};

        let run = || {
            let buffer = SharedBuffer::new();
            let tel = SimTelemetry::new(&Registry::new())
                .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
            let mut sim = Simulation::new(config(), 1)
                .with_failure_model(
                    cellflow_core::FaultPlan::new()
                        .crash_at(30, CellId::new(3, 3))
                        .recover_at(60, CellId::new(3, 3)),
                )
                .with_telemetry(tel)
                .with_tracer(Tracer::new(42));
            sim.run(120);
            sim.telemetry_mut().unwrap().flush();
            buffer.contents()
        };
        let text = run();
        let stats = cellflow_telemetry::validate_stream(&text).unwrap();
        assert!(
            stats.by_kind.iter().any(|(k, _)| k == "span"),
            "no spans in {:?}",
            stats.by_kind
        );
        let trace = Trace::parse(&text).unwrap();
        trace.check_causality().unwrap();
        assert!(trace.spans.iter().any(|s| s.label == "fault"));
        assert!(trace.spans.iter().any(|s| s.label == "cell"));
        // Deterministic fields (everything but ns) identical across reruns.
        let strip_ns = |text: &str| -> Vec<String> {
            text.lines()
                .map(|l| match l.find(",\"ns\":") {
                    Some(k) => l[..k].to_string(),
                    None => l.to_string(),
                })
                .collect()
        };
        assert_eq!(strip_ns(&text), strip_ns(&run()));
    }

    #[test]
    fn tracer_absent_leaves_stream_byte_identical() {
        use cellflow_telemetry::{EventLog, Registry, SharedBuffer, Tracer};

        let run = |traced: bool| {
            let buffer = SharedBuffer::new();
            let tel = SimTelemetry::new(&Registry::new())
                .with_event_log(EventLog::new().with_stream(Box::new(buffer.clone())));
            let mut sim = Simulation::new(config(), 1).with_telemetry(tel);
            if traced {
                sim = sim.with_tracer(Tracer::new(7));
            }
            sim.run(60);
            sim.telemetry_mut().unwrap().flush();
            buffer.contents()
        };
        let plain = run(false);
        let traced = run(true);
        // The traced stream is the plain stream plus span lines.
        let plain_lines: Vec<&str> = plain.lines().collect();
        let non_span: Vec<&str> = traced
            .lines()
            .filter(|l| !l.contains("\"kind\":\"span\""))
            .collect();
        assert_eq!(plain_lines, non_span);
        assert!(traced.len() > plain.len());
    }

    #[test]
    fn violation_triggers_a_flight_dump() {
        use cellflow_core::monitor::{Monitor, MonitorCtx, MonitorViolation};
        use cellflow_telemetry::{EventLog, Registry};

        // A monitor that fires once, at round 50.
        struct TripAt50;
        impl Monitor for TripAt50 {
            fn name(&self) -> &'static str {
                "trip"
            }
            fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
                if ctx.round == 50 {
                    vec![MonitorViolation {
                        monitor: "trip",
                        round: ctx.round,
                        detail: "scripted".to_string(),
                    }]
                } else {
                    Vec::new()
                }
            }
            fn summary(&self) -> String {
                "trip".to_string()
            }
        }

        let dir = std::env::temp_dir().join(format!("cellflow-sim-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("flight.jsonl");
        let tel = SimTelemetry::new(&Registry::disabled())
            .with_event_log(EventLog::new().with_flight_path(dump.clone()));
        let mut sim = Simulation::new(config(), 1)
            .with_monitors(vec![Box::new(TripAt50)])
            .with_telemetry(tel);
        sim.run(80);
        assert_eq!(sim.telemetry().unwrap().log_stats().1, 1, "one dump");
        let dumped = std::fs::read_to_string(&dump).unwrap();
        let stats = cellflow_telemetry::validate_stream(&dumped).unwrap();
        assert_eq!(stats.violations, 1);
        assert!(stats.by_kind.iter().any(|(k, _)| k == "flight_header"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn randomized_tokens_still_safe_and_productive() {
        let mut sim = Simulation::new(config(), 1)
            .with_randomized_tokens(1234)
            .with_safety_checks(true);
        sim.run(400);
        assert!(sim.metrics().throughput() > 0.0);
    }
}
