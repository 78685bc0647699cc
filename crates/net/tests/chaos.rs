//! Chaos-engineering integration tests: seeded message faults, hard
//! crashes with re-spawn from the snapshot store, unrecoverable kills with timeout degradation, and
//! online monitors over the message-passing runtime.

use std::time::Duration;

use cellflow_core::{
    standard_monitors, CampaignSpec, FaultPlan, Params, System, SystemConfig, SystemState,
};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::{ChaosConfig, NetError, NetSystem};

fn config(n: u16) -> SystemConfig {
    SystemConfig::new(
        GridDims::square(n),
        CellId::new(1, n - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0))
}

fn reference_run(config: &SystemConfig, rounds: u64, plan: &FaultPlan) -> (SystemState, u64, u64) {
    use cellflow_core::FaultKind;
    let mut sys = System::new(config.clone());
    for round in 0..rounds {
        for event in plan.events_at(round) {
            match event.kind {
                FaultKind::Recover => sys.recover(event.cell),
                // Crash, HardCrash, and Kill all read as `fail` in the
                // shared-variable model — the differences are mechanical
                // (node restore, barrier membership), not behavioral.
                _ => sys.fail(event.cell),
            }
        }
        sys.step();
    }
    (
        sys.state().clone(),
        sys.consumed_total(),
        sys.inserted_total(),
    )
}

/// Same seed, same chaos: two runs of an identical chaos campaign produce
/// byte-identical reports despite real threading.
#[test]
fn chaos_runs_are_deterministic() {
    let chaos = ChaosConfig {
        seed: 0xC0FFEE,
        drop_rate: 0.15,
        delay_rate: 0.10,
        dup_rate: 0.10,
        reorder_rate: 0.20,
        until_round: Some(80),
    };
    let run = || {
        NetSystem::new(config(4))
            .unwrap()
            .with_chaos(chaos)
            .run(120)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.chaos.dropped > 0, "campaign was supposed to drop messages");
}

/// Duplication and reordering alone are absorbed by the keyed drains: the
/// deployment remains bit-identical to the shared-variable reference.
#[test]
fn dup_and_reorder_are_observationally_invisible() {
    let chaos = ChaosConfig {
        seed: 7,
        drop_rate: 0.0,
        delay_rate: 0.0,
        dup_rate: 0.35,
        reorder_rate: 0.35,
        until_round: None,
    };
    let cfg = config(5);
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_chaos(chaos)
        .run(150)
        .unwrap();
    assert!(net.chaos.duplicated > 0);
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 150, &FaultPlan::new());
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// A hard crash drops the cell's in-memory node; the scripted recovery
/// restores it from the snapshot store at the respawn round. On a lossless
/// fabric the whole run stays bit-identical to the reference under plain
/// fail/recover.
#[test]
fn hard_crash_respawn_matches_reference() {
    let plan = FaultPlan::new()
        .hard_crash_at(10, CellId::new(1, 2))
        .recover_at(40, CellId::new(1, 2))
        .hard_crash_at(55, CellId::new(0, 3))
        .recover_at(70, CellId::new(0, 3));
    let cfg = config(5);
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(plan.clone())
        .run(120)
        .unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 120, &plan);
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// A hard crash with no scripted recovery: the cell is gone for good, its
/// barrier seat is withdrawn, and the survivors finish the run normally.
#[test]
fn permanent_hard_crash_still_terminates() {
    let plan = FaultPlan::new().hard_crash_at(15, CellId::new(0, 2));
    let cfg = config(4);
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(plan.clone())
        .run(100)
        .unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 100, &plan);
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// A killed cell goes silent without handing its barrier seat over: the
/// survivors must *not* deadlock — the round times out and the run returns a
/// typed error naming the wedged round.
#[test]
fn kill_degrades_to_timeout_not_deadlock() {
    let plan = FaultPlan::new().kill_at(20, CellId::new(2, 2));
    let err = NetSystem::new(config(4))
        .unwrap()
        .with_plan(plan)
        .with_round_timeout(Duration::from_millis(200))
        .run(100)
        .unwrap_err();
    match err {
        NetError::Timeout { round, .. } => assert_eq!(round, 20),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// The timeout round in a kill-induced failure is deterministic (the
/// detecting cell is a thread-scheduling race, but the round is not).
#[test]
fn kill_timeout_round_is_deterministic() {
    let run = || {
        let plan = FaultPlan::new().kill_at(7, CellId::new(1, 1));
        NetSystem::new(config(3))
            .unwrap()
            .with_plan(plan)
            .with_round_timeout(Duration::from_millis(150))
            .run(50)
            .unwrap_err()
    };
    let (a, b) = (run(), run());
    match (&a, &b) {
        (NetError::Timeout { round: ra, .. }, NetError::Timeout { round: rb, .. }) => {
            assert_eq!(ra, rb)
        }
        other => panic!("expected two Timeouts, got {other:?}"),
    }
}

/// The headline guarantee: a generated fault campaign (bursts, blackout,
/// flapping, a hard crash) under message chaos completes with **zero**
/// monitor violations, and the quiet tail is long enough for the
/// stabilization stopwatch to certify recovery within the Theorem 10 bound.
#[test]
fn generated_campaign_is_safe_under_monitors() {
    let cfg = config(5);
    let spec = CampaignSpec {
        active_rounds: 80,
        ..CampaignSpec::default()
    };
    let plan = FaultPlan::random_campaign(&cfg, &spec, 0xBAD5EED);
    let chaos = ChaosConfig {
        seed: 0xBAD5EED,
        drop_rate: 0.05,
        delay_rate: 0.05,
        dup_rate: 0.10,
        reorder_rate: 0.10,
        until_round: Some(80),
    };
    let monitors = standard_monitors(&cfg);
    let report = NetSystem::new(cfg)
        .unwrap()
        .with_plan(plan)
        .with_chaos(chaos)
        .run_monitored(200, monitors)
        .unwrap();
    assert!(
        report.violations.is_empty(),
        "monitors fired: {:?}",
        report.violations
    );
    assert!(report.consumed > 0, "the flow never recovered");
    assert!(report
        .monitor_summaries
        .iter()
        .any(|s| s.contains("stabilized")));
}

/// Crash/recover campaigns on a lossless fabric remain differential even
/// when generated: the chaos vocabulary and the reference agree exactly.
#[test]
fn generated_flag_campaign_matches_reference() {
    let cfg = config(4);
    let spec = CampaignSpec {
        active_rounds: 60,
        hard_crashes: 0,
        kills: 0,
        ..CampaignSpec::default()
    };
    let plan = FaultPlan::random_campaign(&cfg, &spec, 99);
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(plan.clone())
        .run(100)
        .unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 100, &plan);
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// An expanded cascade campaign (endogenous overload crashes precomputed
/// into a scripted plan) runs identically on the message-passing runtime
/// and the shared-variable reference — one campaign, two runtimes.
#[test]
fn expanded_cascade_plan_is_runtime_equivalent() {
    use cellflow_core::{expand_overload, OverloadTrigger};
    let cfg = config(5).with_capacity(2);
    let base = FaultPlan::new().crash_at(8, CellId::new(1, 2));
    let outcome = expand_overload(&cfg, &base, OverloadTrigger::new(2, 2), None, None, 120);
    assert!(
        outcome.stats.overload_crashes > 0,
        "campaign produced no cascade: {:?}",
        outcome.stats
    );
    let net = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(outcome.plan.clone())
        .run(120)
        .unwrap();
    let (ref_state, ref_consumed, ref_inserted) = reference_run(&cfg, 120, &outcome.plan);
    assert_eq!(net.state.cells, ref_state.cells);
    assert_eq!(net.consumed, ref_consumed);
    assert_eq!(net.inserted, ref_inserted);
}

/// Optimistic restarts after overload crashes flow through the supervisor:
/// a restarted cell that overloads again exceeds its restart budget and is
/// quarantined (the flapping discipline of Como et al.), and the overload
/// telemetry counter sees the crashes.
#[test]
fn reoverloading_restarted_cell_hits_flapping_quarantine() {
    use std::sync::Arc;

    use cellflow_core::{expand_overload, FaultKind, OverloadTrigger};
    use cellflow_net::{NetTelemetry, RestartPolicy, SupervisorDecision};
    use cellflow_telemetry::Registry;

    let cfg = config(5).with_capacity(2);
    let base = FaultPlan::new().crash_at(8, CellId::new(1, 2));
    let outcome = expand_overload(&cfg, &base, OverloadTrigger::new(2, 2), None, Some(12), 160);
    // The expansion must contain a flapping cell: some cell overload-crashes
    // at least twice (its optimistic restart re-overloaded).
    let mut crash_counts = std::collections::BTreeMap::new();
    for e in outcome.plan.events() {
        if e.kind == FaultKind::OverloadCrash {
            *crash_counts.entry(e.cell).or_insert(0u32) += 1;
        }
    }
    let flapper = crash_counts
        .iter()
        .find(|&(_, &n)| n >= 2)
        .map(|(&c, _)| c)
        .expect("no cell flapped under optimistic restarts");

    let registry = Registry::new();
    let tel = Arc::new(NetTelemetry::new(&registry));
    let policy = RestartPolicy {
        restart_budget: 1,
        ..RestartPolicy::default()
    };
    let report = NetSystem::new(cfg.clone())
        .unwrap()
        .with_plan(outcome.plan.clone())
        .with_restart_policy(policy)
        .with_telemetry(Arc::clone(&tel))
        .run_monitored(200, standard_monitors(&cfg))
        .unwrap();

    // The flapper's repeat restart was quarantined.
    assert!(
        report.supervisor.iter().any(|d| matches!(
            d,
            SupervisorDecision::Quarantine { cell, .. } if *cell == flapper
        )),
        "no quarantine for flapper {flapper:?}: {:?}",
        report.supervisor
    );
    // And the net registry counted the scripted overload crashes.
    let by_name: std::collections::HashMap<String, cellflow_telemetry::MetricSnapshot> = registry
        .snapshot()
        .into_iter()
        .map(|m| (m.name().to_string(), m))
        .collect();
    match &by_name["cellflow_net_overload_crashes_total"] {
        cellflow_telemetry::MetricSnapshot::Counter { value, .. } => {
            assert!(*value > 0, "overload counter never moved")
        }
        other => panic!("unexpected snapshot {other:?}"),
    }
}
