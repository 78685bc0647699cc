//! Smoke tests: every workload for a few rounds, every metric emitted with
//! its unit, the ladder telescoping to its top rung, and every stack
//! reproducing the same digest. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cellflow_perfbench::bench::NET_PREFIX_ROUNDS;
use cellflow_perfbench::stacks::{net_run, system_run, Layers};
use cellflow_perfbench::workload::{pinned_digest, EPISODE_ROUNDS};
use cellflow_perfbench::{
    run, Digest, Kind, Options, Report, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
    PER_LAYER, TRACE_OVERHEAD,
};

const SMOKE_ROUNDS: u64 = 16;

fn smoke(kind: Kind, seed: u64, trace: bool) -> Report {
    let report = run(&Options {
        kind,
        seed,
        seconds: 0.01,
        trace,
        rounds: Some(SMOKE_ROUNDS),
    });
    assert!(
        report.correct,
        "{} seed {seed} trace {trace}: {:?}",
        kind.name(),
        report.problems
    );
    assert!(report.attempted >= SMOKE_ROUNDS);
    assert_eq!(report.failed, 0);
    report
}

fn assert_emits(report: &Report, expected: &[(&str, &str)]) {
    for &(name, unit) in expected {
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(metric.unit, unit, "unit of {name}");
        assert!(metric.value.is_finite(), "{name} = {}", metric.value);
    }
    assert_eq!(report.metrics.len(), expected.len());
}

fn digest_of<'a>(report: &'a Report, label: &str) -> &'a cellflow_perfbench::Digest {
    &report
        .digests
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no digest for {label}"))
        .1
}

#[test]
fn end_to_end_runs_emit_every_metric_with_its_unit() {
    for kind in Kind::ALL {
        let report = smoke(kind, DEFAULT_SEED, false);
        assert_emits(&report, &END_TO_END);
        for name in [
            "rounds_per_cpu_s",
            "observed_rounds_per_cpu_s",
            "setup_s",
            "round_cpu_ns_p50",
        ] {
            assert!(
                report.metric(name).unwrap() > 0.0,
                "{name} on {}",
                kind.name()
            );
        }
        assert_eq!(report.metric("ops_ok_share"), Some(1.0));
        assert_eq!(digest_of(&report, "plain"), digest_of(&report, "observed"));
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_a_telescoping_ladder() {
    let mut expected: Vec<(&str, &str)> = PER_LAYER.to_vec();
    expected.push(TRACE_OVERHEAD);
    for kind in Kind::ALL {
        let traced = smoke(kind, DEFAULT_SEED, true);
        assert_emits(&traced, &expected);
        assert!(traced.metric("trace_overhead_ratio").unwrap() > 0.0);

        // Rung deltas are the layers' self times and sum to the top rung.
        let rungs: Vec<f64> = traced.ladder.iter().map(|&(_, ns)| ns).collect();
        let names: Vec<&str> = traced.ladder.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "engine",
                "system",
                "sim",
                "monitors",
                "telemetry",
                "tracer",
                "recorder"
            ]
        );
        let deltas: f64 = rungs.windows(2).map(|w| w[1] - w[0]).sum();
        let top = *rungs.last().unwrap();
        assert!((rungs[0] + deltas - top).abs() <= 1e-6 * top.max(1.0));
        let metric = |name: &str| traced.metric(name).unwrap();
        assert_eq!(metric("engine.ns_per_round"), rungs[0]);
        assert_eq!(metric("system.self_ns_per_round"), rungs[1] - rungs[0]);
        assert_eq!(metric("sim.self_ns_per_round"), rungs[2] - rungs[1]);
        assert_eq!(metric("telemetry.ns_per_round"), rungs[4] - rungs[3]);
        assert_eq!(metric("trace.ns_per_round"), rungs[5] - rungs[4]);
        assert_eq!(metric("recording.ns_per_round"), rungs[6] - rungs[5]);

        // Every rung reproduces the stack it stands in for.
        let reference = *digest_of(&traced, "engine");
        for label in [
            "engine-sharded",
            "system",
            "sim",
            "monitors",
            "telemetry",
            "tracer",
            "recorder",
        ] {
            assert_eq!(
                *digest_of(&traced, label),
                reference,
                "{label} on {}",
                kind.name()
            );
        }
        let plain = smoke(kind, DEFAULT_SEED, false);
        match kind {
            Kind::ChaosNet => {
                assert_eq!(digest_of(&traced, "net-traced"), digest_of(&plain, "plain"));
                assert_eq!(
                    digest_of(&traced, "net-observed"),
                    digest_of(&plain, "plain")
                );
            }
            _ => {
                assert_eq!(*digest_of(&plain, "plain"), reference);
                assert_eq!(*digest_of(&traced, "observed"), reference);
                assert!(traced.metric("store.appends").unwrap() > 0.0);
            }
        }
    }
}

#[test]
fn held_out_seed_meets_the_invariants() {
    for kind in Kind::ALL {
        let report = smoke(kind, HELD_OUT_SEED, false);
        assert!(report.digests.iter().all(|(_, d)| d.invariants_hold()));
    }
}

#[test]
fn deployment_prefix_matches_the_shared_variable_reference() {
    for kind in [Kind::CorridorSparse, Kind::DenseMerge] {
        let w = Workload::new(kind, DEFAULT_SEED, EPISODE_ROUNDS);
        let rounds = NET_PREFIX_ROUNDS / 2;
        let (net, _) = net_run(&w, rounds, 2, Layers::PLAIN);
        let reference = system_run(&w, rounds).digest;
        assert_eq!(
            net.digest.map(Digest::ignoring_ids),
            reference.map(Digest::ignoring_ids),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn default_seed_reproduces_the_pinned_digests() {
    for kind in Kind::ALL {
        let w = Workload::new(kind, DEFAULT_SEED, EPISODE_ROUNDS);
        let digest = match kind {
            Kind::ChaosNet => net_run(&w, w.rounds, 2, Layers::PLAIN).0.digest,
            _ => system_run(&w, w.rounds).digest,
        };
        assert_eq!(digest, Ok(pinned_digest(kind)), "{}", kind.name());
    }
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let workloads =
        &spec[spec.find("\"workloads\"").unwrap()..spec.find("\"end_to_end\"").unwrap()];
    let listed: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert!(listed.len() >= 2);
    for name in listed {
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
    }
    for &(name, unit) in END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&TRACE_OVERHEAD))
    {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
