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
    expand_overload, standard_monitors, Corruption, Engine, ExecMode, Monitor, OverloadTrigger,
    Params, PartitionPlan, System, SystemConfig, TokenPolicy,
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

            let dense_events = dense.system.step();
            let sparse_events = sparse.system.step();
            let sharded_events = sharded.system.step();
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

/// The sparse zero-alloc claim, checked mechanically: once warm, a
/// steady-state sparse round grows no buffer — the epoch-stamped mark sets
/// recycle their backing stores, the band scratch is reused, and the
/// active lists only shrink back to their high-water marks.
#[test]
fn steady_state_sparse_rounds_do_not_allocate() {
    let cfg = config(8, 0, true, None);
    let mut engine = Engine::new(cfg);
    assert_eq!(engine.exec_mode(), ExecMode::Sparse, "sparse is the default");
    for _ in 0..500 {
        engine.step();
    }
    engine.reset_alloc_events();
    for _ in 0..500 {
        engine.step();
    }
    assert_eq!(engine.alloc_events(), 0, "steady-state sparse rounds must be allocation-free");
    // And the scheduler is actually sparse: the steady flow keeps the
    // active set well under the full 64-cell grid.
    assert!(engine.active_cells() < 64, "active set never shrank");
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
