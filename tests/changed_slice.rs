//! The engine's changed-cell slice against full scans.
//!
//! `System` refreshes its `SystemState` mirror from the slice alone, the
//! standard monitors re-check only the slice, and the flight recorder diffs
//! only the slice. Each of those is an optimization of a full scan, so this
//! suite drives seeded fault and corruption campaigns (plus hand-injected
//! unsafe states, so safety and routing violations really fire) through
//! both execution modes at one and two workers, and asserts after every
//! round that:
//!
//! * the mirror equals a fresh full export of the engine;
//! * slice-fed monitors return exactly the violations and summaries of a
//!   second set fed `changed: None`;
//! * the slice-fed recorder has produced exactly the bytes of a recorder
//!   fed the full state by hand.

use std::collections::BTreeMap;

use cellular_flows::core::monitor::{MonitorCtx, StabilizationMonitor};
use cellular_flows::core::snapshot::Recorder;
use cellular_flows::core::{
    standard_monitors, CampaignSpec, EntityId, ExecMode, FaultPlan, Monitor, Params, System,
    SystemConfig, SystemState,
};
use cellular_flows::grid::{CellId, GridDims};
use cellular_flows::routing::Dist;
use cellular_flows::sim::FailureModel;

const ROUNDS: u64 = 160;

fn params() -> Params {
    Params::from_milli(250, 50, 200).unwrap()
}

/// A 24² corridor: one source, one target, most of the grid idle.
fn corridor() -> SystemConfig {
    SystemConfig::new(GridDims::square(24), CellId::new(1, 23), params())
        .unwrap()
        .with_source(CellId::new(1, 0))
}

/// A 16² grid draining to its centre from every other boundary cell.
fn merge() -> SystemConfig {
    let n = 16;
    let mut sources = Vec::new();
    for k in (0..n).step_by(2) {
        sources.extend([
            CellId::new(0, k),
            CellId::new(n - 1, k),
            CellId::new(k, 0),
            CellId::new(k, n - 1),
        ]);
    }
    SystemConfig::new(GridDims::square(n), CellId::new(n / 2, n / 2), params())
        .unwrap()
        .with_sources(sources)
}

/// A seeded crash/recover campaign merged with a seeded corruption
/// campaign over the first `ROUNDS / 2` rounds.
fn campaign(config: &SystemConfig, seed: u64) -> FaultPlan {
    let active_rounds = ROUNDS / 2;
    let faults = CampaignSpec {
        active_rounds,
        ..CampaignSpec::default()
    };
    let corruptions = CampaignSpec {
        active_rounds,
        bursts: 0,
        blackouts: 0,
        flappers: 0,
        hard_crashes: 0,
        corruptions: 12,
        ..CampaignSpec::default()
    };
    FaultPlan::random_campaign(config, &faults, seed).merge(FaultPlan::random_campaign(
        config,
        &corruptions,
        seed ^ 0x5eed,
    ))
}

/// Crashes `victim`, then hands back the state with its `dist` unpinned
/// (a routing violation) and two of its entities overlapping under one
/// shared id with a neighbor (Theorem 5 and Invariant 2 violations). A
/// failed cell is frozen, so the damage persists until `victim` recovers.
fn tampered(system: &mut System, victim: CellId, twin: CellId) -> SystemState {
    system.fail(victim);
    let dims = system.config().dims();
    let mut state = system.state().clone();
    let spot = victim.center();
    let cell = state.cell_mut(dims, victim);
    cell.dist = Dist::Finite(0);
    cell.members.insert(EntityId(1_000_000), spot);
    cell.members.insert(EntityId(1_000_001), spot);
    state
        .cell_mut(dims, twin)
        .members
        .insert(EntityId(1_000_000), twin.center());
    state
}

/// The full suite of checks for one configuration, mode and worker count.
fn check(config: &SystemConfig, mode: ExecMode, workers: usize, seed: u64) {
    let label = format!("{} {mode:?} workers={workers}", config.dims());
    let dims = config.dims();
    let mut system = System::new(config.clone());
    system.set_exec_mode(mode);
    if workers > 1 {
        system.set_workers(workers);
        system.set_shard_min(1);
    }
    let mut plan = campaign(config, seed);
    let victim = CellId::new(dims.nx() - 2, dims.ny() / 3);
    let twin = CellId::new(dims.nx() - 3, dims.ny() / 3);
    let (tamper_round, heal_round) = (20, 45);

    // A tight stopwatch next to the standard one, so Corollary 7 bound
    // violations fire within the run.
    let suite = |config: &SystemConfig| {
        let mut monitors = standard_monitors(config);
        monitors.push(Box::new(StabilizationMonitor::with_bound(3)) as Box<dyn Monitor>);
        monitors
    };
    let mut sliced = suite(config);
    let mut full = suite(config);

    let scenario = "changed-slice differential";
    system.attach_recorder(Box::new(Recorder::for_config(config, seed, 8, scenario)));
    let mut by_hand = Recorder::for_config(config, seed, 8, scenario);
    by_hand.record(system.round(), system.state());

    let mut fired: BTreeMap<&str, usize> = BTreeMap::new();
    for round in 0..ROUNDS {
        let failures = plan.apply(&mut system, round);
        if round == tamper_round {
            let state = tampered(&mut system, victim, twin);
            system.set_state(state);
        }
        if round == heal_round {
            system.recover(victim);
        }
        system.step();

        assert_eq!(
            system.state(),
            &system.engine().export_state(),
            "{label}: mirror diverged from the engine at round {round}"
        );

        let ctx = MonitorCtx {
            config,
            state: system.state(),
            round: system.round(),
            failed: &failures.failed,
            recovered: &failures.recovered,
            corrupted: &failures.corrupted,
            ambient_chaos: false,
            consumed_total: system.consumed_total(),
            inserted_total: system.inserted_total(),
            changed: system.changed_cells(),
        };
        let whole = MonitorCtx {
            changed: None,
            ..ctx
        };
        for (s, f) in sliced.iter_mut().zip(full.iter_mut()) {
            let from_slice = s.observe(&ctx);
            let from_scan = f.observe(&whole);
            assert_eq!(
                from_slice,
                from_scan,
                "{label}: {} verdicts diverged at round {round}",
                s.name()
            );
            assert_eq!(s.summary(), f.summary(), "{label}: round {round}");
            *fired.entry(s.name()).or_default() += from_slice.len();
        }

        by_hand.record(system.round(), system.state());
    }
    let live = system.take_recorder().expect("recorder attached").finish();
    assert_eq!(live, by_hand.finish(), "{label}: recording bytes diverged");
    for name in ["safety", "routing", "conservation", "stabilization"] {
        assert!(
            fired.get(name).is_some_and(|&n| n > 0),
            "{label}: {name} never fired, so its slice path went unchecked: {fired:?}"
        );
    }
}

fn check_all(config: &SystemConfig, seed: u64) {
    for mode in [ExecMode::Sparse, ExecMode::Dense] {
        for workers in [1, 2] {
            check(config, mode, workers, seed);
        }
    }
}

#[test]
fn corridor_slices_match_full_scans() {
    check_all(&corridor(), 1);
}

#[test]
fn merging_flows_slices_match_full_scans() {
    check_all(&merge(), 2);
}
