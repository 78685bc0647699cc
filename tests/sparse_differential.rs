//! Property-based differential testing of the sparse active-set scheduler
//! and the sharded row-band executor: random grids, token policies,
//! crash/recover/corruption schedules, scripted partitions, and
//! endogenous-overload campaigns driven simultaneously through a dense
//! `System`, a sparse one, and a sparse+sharded one — asserting identical
//! `SystemState`, identical `RoundEvents`, and identical monitor verdicts
//! after every single round.
//!
//! The dense engine is the reference (itself pinned to the pure phase
//! composition by `engine_differential.rs`); the active-set scheduler and
//! the shard fan-out are the optimizations. This suite is what licenses
//! running every campaign — chaos, stabilize, cascade, partition — on the
//! sparse path by default.

use cellular_flows::core::monitor::MonitorViolation;
use cellular_flows::core::{
    expand_overload, standard_monitors, CampaignSpec, Corruption, Engine, ExecMode, FaultPlan,
    Monitor, OverloadTrigger, Params, PartitionPlan, System, SystemConfig, TokenPolicy,
};
use cellular_flows::core::monitor::MonitorCtx;
use cellular_flows::geom::Dir;
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::routing::Dist;
use cellular_flows::sim::FailureModel;
use proptest::prelude::*;

/// One scheduled disturbance in a differential run.
#[derive(Clone, Copy, Debug)]
enum Event {
    Crash,
    Recover,
    Corrupt(Corruption),
}

fn decode_dir(code: u64) -> Option<Dir> {
    match code % 5 {
        0 => None,
        k => Some(Dir::ALL[(k - 1) as usize]),
    }
}

/// Decodes `(kind, salt)` into a disturbance, covering every `Corruption`
/// variant plus crash and recovery.
fn decode_event(kind: u8, salt: u64, dist_cap: u32) -> Event {
    match kind % 10 {
        0 => Event::Crash,
        1 => Event::Recover,
        2 => Event::Corrupt(Corruption::Dist(Dist::Finite((salt % dist_cap as u64) as u32))),
        3 => Event::Corrupt(Corruption::Dist(Dist::Infinity)),
        4 => Event::Corrupt(Corruption::Next(decode_dir(salt))),
        5 => Event::Corrupt(Corruption::Token(decode_dir(salt))),
        6 => Event::Corrupt(Corruption::Signal(decode_dir(salt))),
        7 => Event::Corrupt(Corruption::NePrev { mask: (salt % 16) as u8 }),
        8 => Event::Corrupt(Corruption::Jostle { salt }),
        _ => Event::Corrupt(Corruption::Scramble { salt }),
    }
}

fn config(n: u16, policy_code: u8, extra_source: bool, capacity: Option<u32>) -> SystemConfig {
    let policy = match policy_code % 3 {
        0 => TokenPolicy::RoundRobin,
        1 => TokenPolicy::Randomized { salt: 0xD1FF },
        _ => TokenPolicy::FixedPriority,
    };
    let mut cfg = SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
    .with_token_policy(policy);
    if extra_source {
        cfg = cfg.with_source(CellId::new(n - 1, 0));
    }
    if let Some(c) = capacity {
        cfg = cfg.with_capacity(c);
    }
    cfg
}

/// The merging-corridor shape: sources on every other boundary cell, all
/// draining to the centre, so about half the grid is active.
fn dense_merge_config(n: u16) -> SystemConfig {
    let mut sources = Vec::new();
    for k in (0..n).step_by(2) {
        sources.extend([
            CellId::new(0, k),
            CellId::new(n - 1, k),
            CellId::new(k, 0),
            CellId::new(k, n - 1),
        ]);
    }
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(n / 2, n / 2),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_sources(sources)
}

/// A random disturbance schedule: `(round, (i, j), kind, salt)` tuples.
fn schedule_strategy(rounds: u64) -> impl Strategy<Value = Vec<(u64, (u16, u16), u8, u64)>> {
    proptest::collection::vec(
        (1..rounds, (0u16..8, 0u16..8), 0u8..10, 0u64..u64::MAX),
        0..12,
    )
}

/// One execution variant under test, with its own monitor suite.
struct Variant {
    system: System,
    monitors: Vec<Box<dyn Monitor>>,
    violations: Vec<MonitorViolation>,
}

impl Variant {
    fn new(cfg: &SystemConfig, mode: ExecMode, workers: usize) -> Variant {
        let mut system = System::new(cfg.clone());
        system.set_exec_mode(mode);
        if workers > 1 {
            system.set_workers(workers);
            system.set_shard_min(1); // engage sharding on these tiny grids
        }
        Variant {
            system,
            monitors: standard_monitors(cfg),
            violations: Vec::new(),
        }
    }

    /// Evaluates the monitor suite on the just-completed round.
    fn observe(&mut self, cfg: &SystemConfig, round: u64, corrupted: &[CellId]) {
        let ctx = MonitorCtx {
            config: cfg,
            state: self.system.state(),
            round: round + 1,
            failed: &[],
            recovered: &[],
            corrupted,
            ambient_chaos: false,
            consumed_total: self.system.consumed_total(),
            inserted_total: self.system.inserted_total(),
            changed: self.system.changed_cells(),
        };
        for monitor in self.monitors.iter_mut() {
            self.violations.extend(monitor.observe(&ctx));
        }
    }

    fn summaries(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.summary()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A dense `System`, a sparse one, and a sparse one sharded across
    /// three row-band workers agree on the full successor state, the full
    /// event record, and every monitor verdict, round for round, under
    /// arbitrary crash/recover/corruption schedules, scripted partitions
    /// (with heal), endogenous-overload campaigns on finite-capacity
    /// grids, and every token policy.
    #[test]
    fn sparse_and_sharded_match_dense_under_random_schedules(
        shape in (3u16..=6, 10u64..=60),
        knobs in (0u8..3, proptest::bool::ANY, proptest::bool::ANY),
        split in (0u64..20, 1u16..5), // round 0 = run without a partition
        schedule in schedule_strategy(60),
    ) {
        let (n, rounds) = shape;
        let (policy_code, extra_source, overloaded) = knobs;
        let (split_round, split_col) = split;
        let cfg = config(n, policy_code, extra_source, overloaded.then_some(2));
        let dims = cfg.dims();
        let dist_cap = cfg.dist_cap();

        // Endogenous overload: precompute the cascade the same way the
        // campaign runner does, then replay its plan on every variant
        // (one clone each — `apply` advances an internal cursor).
        let overload_plan = overloaded.then(|| {
            let base = cellular_flows::core::FaultPlan::new()
                .crash_at(2, CellId::new(1, n / 2));
            expand_overload(&cfg, &base, OverloadTrigger::new(2, 2), None, None, rounds).plan
        });
        let mut overload_plans = overload_plan.map(|p| [p.clone(), p.clone(), p]);

        // Scripted partition: a column split that heals mid-run.
        let partition = (split_round > 0).then(|| {
            PartitionPlan::for_grid(dims)
                .split_col(split_col % n, split_round, Some(split_round + 15))
                .expand(rounds)
        });

        let mut dense = Variant::new(&cfg, ExecMode::Dense, 1);
        let mut sparse = Variant::new(&cfg, ExecMode::Sparse, 1);
        let mut sharded = Variant::new(&cfg, ExecMode::Sparse, 3);

        for round in 0..rounds {
            let mut corrupted: Vec<CellId> = Vec::new();
            for &(when, (i, j), kind, salt) in &schedule {
                if when != round {
                    continue;
                }
                let cell = CellId::new(i % n, j % n);
                let event = decode_event(kind, salt, dist_cap);
                for v in [&mut dense, &mut sparse, &mut sharded] {
                    match event {
                        Event::Crash => v.system.fail(cell),
                        Event::Recover => v.system.recover(cell),
                        Event::Corrupt(c) => v.system.corrupt(cell, c),
                    }
                }
                if matches!(event, Event::Corrupt(_)) {
                    corrupted.push(cell);
                }
            }
            if let Some([pd, ps, ph]) = overload_plans.as_mut() {
                pd.apply(&mut dense.system, round);
                ps.apply(&mut sparse.system, round);
                ph.apply(&mut sharded.system, round);
            }
            if let Some(schedule) = &partition {
                for v in [&mut dense, &mut sparse, &mut sharded] {
                    v.system.set_link_cuts(schedule.mask_row(round));
                }
            }

            let dense_events = dense.system.step().clone();
            let sparse_events = sparse.system.step().clone();
            let sharded_events = sharded.system.step().clone();
            prop_assert_eq!(
                sparse.system.state(),
                dense.system.state(),
                "sparse state diverged at round {} (n = {}, policy {})",
                round, n, policy_code
            );
            prop_assert_eq!(
                sharded.system.state(),
                dense.system.state(),
                "sharded state diverged at round {} (n = {}, policy {})",
                round, n, policy_code
            );
            prop_assert_eq!(&sparse_events, &dense_events, "sparse events diverged at round {}", round);
            prop_assert_eq!(&sharded_events, &dense_events, "sharded events diverged at round {}", round);

            for v in [&mut dense, &mut sparse, &mut sharded] {
                v.observe(&cfg, round, &corrupted);
            }
            prop_assert_eq!(&sparse.violations, &dense.violations, "sparse verdicts diverged at round {}", round);
            prop_assert_eq!(&sharded.violations, &dense.violations, "sharded verdicts diverged at round {}", round);
        }
        prop_assert_eq!(sparse.summaries(), dense.summaries());
        prop_assert_eq!(sharded.summaries(), dense.summaries());
    }
}

/// The merging-corridor regime (about half the grid active) under a seeded
/// fault campaign: dense, sparse and two-worker sharded `System`s agree on
/// state, events and monitor verdicts every round. 23² ends mid bitmap
/// word and 70² spans two summary words of the scheduler's sets.
#[test]
fn dense_merge_grids_match_dense_under_a_fault_campaign() {
    for (n, rounds) in [(23u16, 160u64), (70, 80)] {
        let cfg = dense_merge_config(n);
        let spec = CampaignSpec {
            active_rounds: rounds / 2,
            corruptions: 3,
            ..CampaignSpec::default()
        };
        let plan = FaultPlan::random_campaign(&cfg, &spec, 7);
        let mut plans = [plan.clone(), plan.clone(), plan];
        let mut dense = Variant::new(&cfg, ExecMode::Dense, 1);
        let mut sparse = Variant::new(&cfg, ExecMode::Sparse, 1);
        let mut sharded = Variant::new(&cfg, ExecMode::Sparse, 2);
        for round in 0..rounds {
            let mut corrupted = Vec::new();
            for (plan, v) in plans
                .iter_mut()
                .zip([&mut dense, &mut sparse, &mut sharded])
            {
                corrupted = plan.apply(&mut v.system, round).corrupted;
            }
            let want = dense.system.step().clone();
            assert_eq!(
                sparse.system.step(),
                &want,
                "sparse events, n = {n}, round {round}"
            );
            assert_eq!(
                sharded.system.step(),
                &want,
                "sharded events, n = {n}, round {round}"
            );
            assert_eq!(
                sparse.system.state(),
                dense.system.state(),
                "n = {n}, round {round}"
            );
            assert_eq!(
                sharded.system.state(),
                dense.system.state(),
                "n = {n}, round {round}"
            );
            for v in [&mut dense, &mut sparse, &mut sharded] {
                v.observe(&cfg, round, &corrupted);
            }
            assert_eq!(
                sparse.violations, dense.violations,
                "n = {n}, round {round}"
            );
            assert_eq!(
                sharded.violations, dense.violations,
                "n = {n}, round {round}"
            );
        }
        assert_eq!(sparse.summaries(), dense.summaries());
        assert_eq!(sharded.summaries(), dense.summaries());
    }
}

/// The sparse zero-alloc claim, checked mechanically: once warm, a
/// steady-state sparse round grows no buffer — clearing a bitmap mark set
/// frees nothing, its work list keeps its capacity, the band scratch is
/// reused, and the active lists only shrink back to their high-water
/// marks. Checked on the one-source corridor and on dense-merge grids.
#[test]
fn steady_state_sparse_rounds_do_not_allocate() {
    for cfg in [
        config(8, 0, true, None),
        dense_merge_config(23),
        dense_merge_config(70),
    ] {
        let cells = cfg.dims().cell_count();
        let mut engine = Engine::new(cfg);
        assert_eq!(
            engine.exec_mode(),
            ExecMode::Sparse,
            "sparse is the default"
        );
        for _ in 0..500 {
            engine.step();
        }
        engine.reset_alloc_events();
        for _ in 0..500 {
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "steady-state sparse rounds must be allocation-free ({cells} cells)"
        );
        // And the scheduler is actually sparse: the steady flow keeps the
        // active set under the full grid.
        assert!(
            engine.active_cells() < cells,
            "active set never shrank ({cells} cells)"
        );
    }
}

/// A quiescent grid is O(active): with no sources there is nothing to do,
/// and the active set collapses to empty — rounds become no-ops rather
/// than full sweeps.
#[test]
fn quiescent_grids_run_empty_rounds() {
    let cfg = SystemConfig::new(
        GridDims::square(12),
        CellId::new(1, 11),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap();
    let mut engine = Engine::new(cfg);
    for _ in 0..600 {
        engine.step();
    }
    assert_eq!(engine.active_cells(), 0, "quiescent grid kept cells active");
}
