//! Subcommand implementations.

use cellflow_core::mc::BoundedSystem;
use cellflow_core::{safety, Params, System, SystemConfig};
use cellflow_dts::{check_invariant, ExploreConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::failure::RandomFailRecover;
use cellflow_sim::scenario;
use cellflow_sim::sweep::default_threads;
use cellflow_sim::table::format_table;
use cellflow_sim::{render, Simulation};

use crate::args::Flags;

/// Top-level usage text.
pub const USAGE: &str = "\
cellflow — safe and stabilizing distributed cellular flows (ICDCS 2010)

USAGE:
  cellflow run   [--n 8] [--rounds 500] [--l 250] [--rs 50] [--v 200]
                 [--pf 0.0] [--pr 0.0] [--seed 1] [--watch] [--heatmap]
  cellflow run3d [--n 4] [--nz 3] [--rounds 500]    the 3-D extension
  cellflow multi [--n 7] [--rounds 2000] [--capacity 1]
                                     crossing multi-commodity flows
  cellflow demo                      ASCII rendering of the paper's Figure 1
  cellflow fig7  [--rounds 2500]     regenerate Figure 7 (throughput vs rs)
  cellflow fig8  [--rounds 2500]     regenerate Figure 8 (throughput vs turns)
  cellflow fig9  [--rounds 20000]    regenerate Figure 9 (throughput vs pf)
  cellflow paths [--rounds 2500]     throughput vs path length
  cellflow mc    [--budget 2] [--fallible 1] [--recovery] [--capacity 0]
                 [--cut]             exhaustively model-check safety
                                     (--capacity C additionally checks
                                     occupancy ≤ C in every state; --cut
                                     severs the corridor mid-way with a
                                     permanent link partition and checks
                                     safety on the split topology)
  cellflow chaos [--n 6] [--rounds 300] [--seed 1] [--active 100]
                 [--drop 0.05] [--delay 0.05] [--dup 0.1] [--reorder 0.1]
                 [--bursts 2] [--blackouts 1] [--flappers 1] [--hard 1]
                 [--kills 0] [--timeout-ms 5000] [--shard-workers 1]
                                     seeded fault-injection campaign against
                                     the message-passing runtime, judged by
                                     online invariant monitors
  cellflow chaos --cascade [--n 5] [--rounds 160] [--seed 1] [--capacity 2]
                 [--threshold 2] [--sustain 2] [--backoff]
                 [--backoff-base 4] [--backoff-max 32] [--restart 0]
                 [--budget 4294967295] [--timeout-ms 5000]
                 [--shard-workers 1]
                                     cascading-failure campaign on a
                                     finite-capacity grid: overloaded cells
                                     crash endogenously and shed load onto
                                     neighbors (--backoff swaps crashes for
                                     randomized Feldmann-style pauses;
                                     --restart N optimistically restarts
                                     crashed cells, disciplined by the
                                     supervisor's restart --budget);
                                     byte-identical report per seed
  cellflow chaos --partition SPEC [--n 5] [--rounds 120] [--start 10]
                 [--heal 80] [--no-heal] [--settle B+2] [--seed 1]
                 [--timeout-ms 5000] [--shard-workers 1]
                                     scripted link-fault / split-brain
                                     campaign: SPEC is split@col=C,
                                     split@row=R, island@i0,j0,i1,j1, or
                                     flaky@MILLI (seeded intermittent cuts,
                                     MILLI/1000 per directed edge per
                                     round). Cuts run rounds [start, heal);
                                     the report certifies safety through
                                     the split and re-stabilization within
                                     2N²+2 of the heal, is sealed with a
                                     checksum, and is byte-identical per
                                     seed; the same schedule then replays
                                     on the message-passing deployment and
                                     must match the reference bit for bit
  cellflow stabilize [--n 6] [--seed 1] [--corruptions 3] [--active 30]
                 [--timeout-ms 5000]
                                     adversarial state-corruption campaign:
                                     certify re-stabilization within the
                                     2N²+2 bound (Theorem 10) on both the
                                     shared-variable reference and the
                                     deployment with durable-snapshot
                                     crash recovery; byte-identical report
                                     per seed, minimal counterexample on
                                     failure
  cellflow record [--scenario plain|cascade|partition|chaos|stabilize]
                 [--seed 1] [--keyframe-interval 16] [--record-out run.rec]
                 [scenario params as in the sibling command]
                                     run a scenario with the deterministic
                                     flight recorder attached and write a
                                     checksummed .rec recording: one full
                                     keyframe every --keyframe-interval
                                     rounds, compact state deltas between
                                     (chaos / cascade / partition /
                                     stabilize also accept --record FILE
                                     to capture their own run directly)
  cellflow replay FILE.rec           re-drive the recording's scenario from
                                     its header (seed, config, campaign)
                                     and verify the rerun is byte-identical
                                     frame by frame; on divergence, exits
                                     nonzero naming the first divergent
                                     round, cell, and register, and dumps
                                     the preceding rounds through the
                                     flight ring as FILE.divergence.jsonl
  cellflow diff A.rec B.rec [--round R]
                                     per-cell register diff (dist, next,
                                     token, signal, occupancy, …) between
                                     two recordings at --round (default:
                                     their first divergent round); exits
                                     nonzero when any register differs
  cellflow bisect A.rec B.rec        binary-search the first divergent
                                     round via the keyframe index and
                                     report the exact round, cell, and
                                     register, plus the flight-ring dump
                                     of the rounds leading up to it
  cellflow bench [--quick] [--out BENCH_PR3.json]
                 [--telemetry-out BENCH_PR5.json]
                 [--mega-out BENCH_PR8.json]
                 [--trace-overhead-out BENCH_PR9.json]
                 [--recording-overhead-out BENCH_PR10.json]
                                     machine-readable engine-vs-legacy perf
                                     baseline over the fixed scenario matrix
                                     (asserts equal semantics and zero
                                     steady-state allocations first), the
                                     telemetry-off vs telemetry-on overhead
                                     baseline, the mega-grid matrix
                                     (sparse active-set vs dense, sharded
                                     1/2/4/8-worker scaling, 64\u{b2} up to
                                     1024\u{b2}; --quick caps it at 128\u{b2}),
                                     the causal-tracing overhead baseline,
                                     and the flight-recording overhead
                                     baseline — all five back-to-back
  cellflow bench --check [--baseline-dir DIR]
                                     perf-regression harness: rerun every
                                     matrix in quick mode and compare
                                     against the committed BENCH_PR*.json
                                     baselines inside tolerance bands
                                     (speedups must not collapse, overhead
                                     ratios must not blow up, steady-state
                                     allocations must stay zero); exits
                                     nonzero on any regression
  cellflow metrics [--n 6] [--rounds 200] [--seed 1] [--prom] [--out FILE]
                 [--trace-out FILE]  run an instrumented reference sim and
                                     deployment, render per-phase latency
                                     tables (--prom additionally prints the
                                     Prometheus text exposition; --out
                                     writes it to FILE; --trace-out streams
                                     the sim's causal span trees as JSONL)
  cellflow inspect FILE [--rows 40]  validate a telemetry artifact and
                                     render it: JSONL event streams get a
                                     round timeline, Prometheus expositions
                                     a conformance summary, and .rec
                                     recordings a header report with every
                                     frame checksum verified
  cellflow trace FILE [--top 10] [--round R] [--wall]
                                     analyze the causal spans in a JSONL
                                     event stream: validate causality, then
                                     render per-round critical-path chains,
                                     the slowest-cell table, and the span
                                     profile; names the last-arriving cells
                                     of every timed-out round (--wall adds
                                     the measured-nanosecond sections)
  cellflow help                      this text

chaos and stabilize accept --telemetry [--trace-out F] [--flight-out F]
[--metrics-out F]: stream round events as schema-versioned JSONL, dump the
flight recorder on any monitor violation or timeout, and write the metric
registry as a Prometheus exposition. Adding --trace (which implies
--telemetry) stamps every message with its sender's deterministic
cell-round id and emits per-round causal span trees — round root, fault /
recover / corrupt leaves, the barrier's critical path, and per-cell work —
into the same stream, ready for `cellflow trace`.

--shard-workers W runs the shared-variable reference's sparse engine on W
row-band shard threads. Reports are byte-identical at every W — the CI
smoke job diffs W=1 against W=4 to pin that.

All lengths (--l, --rs, --v) are in milli-cells: 250 = 0.25 cell sides.";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    // `inspect`, `trace`, `replay`, `diff`, and `bisect` take positional
    // file paths, which the flag parser rejects.
    if cmd == "inspect" {
        return inspect(&argv[1..]);
    }
    if cmd == "trace" {
        return trace(&argv[1..]);
    }
    if cmd == "replay" {
        return crate::record::replay(&argv[1..]);
    }
    if cmd == "diff" {
        return crate::record::diff(&argv[1..]);
    }
    if cmd == "bisect" {
        return crate::record::bisect(&argv[1..]);
    }
    let flags = Flags::parse(&argv[1..])?;
    match cmd.as_str() {
        "run" => run(&flags),
        "run3d" => run3d(&flags),
        "multi" => multi(&flags),
        "demo" => flags.finish().and_then(|()| demo()),
        "fig7" => fig(&flags, Fig::Seven),
        "fig8" => fig(&flags, Fig::Eight),
        "fig9" => fig(&flags, Fig::Nine),
        "paths" => paths(&flags),
        "mc" => mc(&flags),
        "chaos" => chaos(&flags),
        "stabilize" => stabilize(&flags),
        "record" => crate::record::record(&flags),
        "bench" => bench(&flags),
        "metrics" => metrics(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn run(flags: &Flags) -> Result<(), String> {
    let n: u16 = flags.get("n", 8)?;
    if n < 2 {
        return Err("--n must be at least 2".into());
    }
    let rounds: u64 = flags.get("rounds", 500)?;
    let l: i64 = flags.get("l", 250)?;
    let rs: i64 = flags.get("rs", 50)?;
    let v: i64 = flags.get("v", 200)?;
    let pf: f64 = flags.get("pf", 0.0)?;
    let pr: f64 = flags.get("pr", 0.0)?;
    let seed: u64 = flags.get("seed", 1)?;
    let every: u64 = flags.get("every", 10)?;
    let watch = flags.has("watch");
    let show_heatmap = flags.has("heatmap");
    flags.finish()?;

    let params = Params::from_milli(l, rs, v).map_err(|e| e.to_string())?;
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0));
    let mut sim = Simulation::new(config, seed);
    if pf > 0.0 || pr > 0.0 {
        sim = sim.with_failure_model(RandomFailRecover::new(pf, pr, seed));
    }

    let mut heat = cellflow_sim::heatmap::OccupancyGrid::new(sim.system().config().dims());
    for round in 0..rounds {
        sim.step();
        if show_heatmap {
            heat.record(sim.system().config(), sim.system().state());
        }
        if watch && round % every.max(1) == 0 {
            println!("\x1B[2J\x1B[H-- round {round} --");
            println!(
                "{}",
                render::render(sim.system().config(), sim.system().state())
            );
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
    }

    let m = sim.metrics();
    println!("rounds:            {}", m.rounds());
    println!("inserted:          {}", m.inserted_total());
    println!("consumed:          {}", m.consumed_total());
    println!("in flight:         {}", sim.system().state().entity_count());
    println!("throughput:        {:.4}", m.throughput());
    println!("blocked per round: {:.2}", m.mean_blocked());
    match safety::check_safe(sim.system().config(), sim.system().state()) {
        Ok(()) => println!("safety:            OK (Theorem 5 predicate holds)"),
        Err(v) => println!("safety:            VIOLATED — {v}"),
    }
    if show_heatmap {
        println!(
            "\noccupancy heat map (9 = hottest cell {}):",
            heat.hottest()
        );
        println!("{}", heat.render());
    }
    Ok(())
}

fn run3d(flags: &Flags) -> Result<(), String> {
    use cellflow_cube::{safety, CellId3, Dims3, System3, SystemConfig3};
    let n: u16 = flags.get("n", 4)?;
    let nz: u16 = flags.get("nz", 3)?;
    if n < 2 || nz < 1 {
        return Err("--n must be ≥ 2 and --nz ≥ 1".into());
    }
    let rounds: u64 = flags.get("rounds", 500)?;
    let l: i64 = flags.get("l", 200)?;
    let rs: i64 = flags.get("rs", 50)?;
    let v: i64 = flags.get("v", 150)?;
    flags.finish()?;
    let params = Params::from_milli(l, rs, v).map_err(|e| e.to_string())?;
    let config = SystemConfig3::new(
        Dims3::new(n, n, nz),
        CellId3::new(n - 1, n - 1, nz - 1),
        params,
    )
    .map_err(|e| e.to_string())?
    .with_source(CellId3::new(0, 0, 0));
    let mut sky = System3::new(config);
    sky.run(rounds);
    println!("rounds:     {rounds}");
    println!("launched:   {}", sky.inserted_total());
    println!("landed:     {}", sky.consumed_total());
    println!("airborne:   {}", sky.state().entity_count());
    println!(
        "throughput: {:.4}",
        sky.consumed_total() as f64 / rounds.max(1) as f64
    );
    match safety::check_safe3(sky.config(), sky.state()) {
        Ok(()) => println!("safety:     OK (3-D separation predicate holds)"),
        Err(viol) => println!("safety:     VIOLATED — {viol}"),
    }
    Ok(())
}

fn multi(flags: &Flags) -> Result<(), String> {
    use cellflow_multiflow::{safety, FlowType, MultiConfig, MultiSystem};
    let n: u16 = flags.get("n", 7)?;
    if n < 5 {
        return Err("--n must be at least 5 for the crossing pattern".into());
    }
    let rounds: u64 = flags.get("rounds", 2_000)?;
    let capacity: usize = flags.get("capacity", 1)?;
    flags.finish()?;
    let params = Params::from_milli(200, 50, 150).expect("static parameters are valid");
    let mid = n / 2;
    let config = MultiConfig::new(GridDims::square(n), params)
        .map_err(|e| e.to_string())?
        .with_flow(FlowType(0), CellId::new(0, mid), CellId::new(n - 1, mid))
        .map_err(|e| e.to_string())?
        .with_flow(FlowType(1), CellId::new(mid, 0), CellId::new(mid, n - 1))
        .map_err(|e| e.to_string())?
        .with_flow(
            FlowType(2),
            CellId::new(n - 1, mid + 1),
            CellId::new(0, mid + 1),
        )
        .map_err(|e| e.to_string())?
        .with_cell_capacity(capacity);
    let mut sys = MultiSystem::new(config);
    sys.run(rounds);
    println!("rounds: {rounds}, cell capacity: {capacity}");
    for t in 0..3u8 {
        let ty = FlowType(t);
        println!(
            "  τ{t}: inserted {:4}  delivered {:4}  in flight {:3}",
            sys.inserted(ty),
            sys.consumed(ty),
            sys.state().entity_count_of(ty)
        );
    }
    match safety::check_safe_multi(sys.config(), sys.state()) {
        Ok(()) => println!("safety: OK (type-agnostic separation holds)"),
        Err((c, a, b)) => println!("safety: VIOLATED on {c}: {a} vs {b}"),
    }
    Ok(())
}

fn demo() -> Result<(), String> {
    let sys = scenario::fig1_demo();
    println!("The paper's Figure 1 schematic (4×4, target ⟨2,2⟩, source ⟨1,0⟩, ⟨2,1⟩ failed):\n");
    println!("{}", render::render(sys.config(), sys.state()));
    println!("T = target, S = source, x = failed, o = entity, arrows = next pointers");
    Ok(())
}

enum Fig {
    Seven,
    Eight,
    Nine,
}

fn fig(flags: &Flags, which: Fig) -> Result<(), String> {
    let threads = default_threads();
    match which {
        Fig::Seven => {
            let k: u64 = flags.get("rounds", 2_500)?;
            flags.finish()?;
            let series = cellflow_bench::fig7(k, threads);
            println!("Figure 7: throughput vs rs (8×8, l=0.25, K={k})\n");
            println!("{}", format_table("rs", &series));
        }
        Fig::Eight => {
            let k: u64 = flags.get("rounds", 2_500)?;
            flags.finish()?;
            let series = cellflow_bench::fig8(k, threads);
            println!("Figure 8: throughput vs turns (8×8, rs=0.05, K={k})\n");
            println!("{}", format_table("turns", &series));
        }
        Fig::Nine => {
            let k: u64 = flags.get("rounds", 20_000)?;
            let seeds: u64 = flags.get("seeds", 3)?;
            flags.finish()?;
            let series = cellflow_bench::fig9(k, threads, seeds);
            println!("Figure 9: throughput vs pf (8×8, rs=0.05, l=0.2, v=0.2, K={k})\n");
            println!("{}", format_table("pf", &series));
        }
    }
    Ok(())
}

fn paths(flags: &Flags) -> Result<(), String> {
    let k: u64 = flags.get("rounds", 2_500)?;
    flags.finish()?;
    let series = cellflow_bench::path_length(k, default_threads());
    println!("Throughput vs straight path length (8×8, l=0.25, rs=0.05, v=0.2, K={k})\n");
    println!("{}", format_table("len", &[series]));
    Ok(())
}

fn mc(flags: &Flags) -> Result<(), String> {
    let budget: u64 = flags.get("budget", 2)?;
    let fallible: usize = flags.get("fallible", 1)?;
    let recovery = flags.has("recovery");
    let capacity: u32 = flags.get("capacity", 0)?;
    let cut = flags.has("cut");
    flags.finish()?;

    let mut config = SystemConfig::new(
        GridDims::new(3, 1),
        CellId::new(2, 0),
        Params::from_milli(250, 50, 200).expect("static parameters are valid"),
    )
    .expect("static target is valid")
    .with_source(CellId::new(0, 0))
    .with_entity_budget(budget);
    if capacity > 0 {
        config = config.with_capacity(capacity);
    }

    let fallible_cells: Vec<CellId> = [CellId::new(1, 0), CellId::new(2, 0)]
        .into_iter()
        .take(fallible)
        .collect();
    println!(
        "Model checking a 3×1 corridor: budget={budget}, fallible={fallible_cells:?}, \
         recovery={recovery}, capacity={}, partition={}",
        if capacity > 0 {
            capacity.to_string()
        } else {
            "unbounded".to_string()
        },
        if cut {
            "⟨1,0⟩ ↮ ⟨2,0⟩ (permanent)"
        } else {
            "none"
        }
    );
    let cfg_for_check = config.clone();
    let mut sys = BoundedSystem::new(config).with_fallible(fallible_cells, recovery);
    if cut {
        // A permanent mid-corridor severance: both directions of the
        // ⟨1,0⟩ ↔ ⟨2,0⟩ edge read footnote-1 silence in every explored round.
        let masks = cellflow_core::PartitionPlan::for_grid(GridDims::new(3, 1))
            .cut_both(CellId::new(1, 0), CellId::new(2, 0), 0, None)
            .expand(1)
            .mask_row(0)
            .to_vec();
        sys = sys.with_link_cuts(masks);
    }
    let started = std::time::Instant::now();
    let result = check_invariant(
        &sys,
        |s| {
            safety::check_safe(&cfg_for_check, s).is_ok()
                && safety::check_invariant1(&cfg_for_check, s).is_ok()
                && safety::check_invariant2(&cfg_for_check, s).is_ok()
                && cellflow_core::overload::check_capacity(&cfg_for_check, s).is_ok()
        },
        &ExploreConfig {
            max_states: 5_000_000,
            max_depth: usize::MAX,
        },
    );
    match result {
        Ok(report) => {
            println!(
                "SAFE: {} states, {} transitions, exhaustive={}, {:.2?}",
                report.states_explored,
                report.transitions,
                report.exhaustive,
                started.elapsed()
            );
        }
        Err(violation) => {
            return Err(format!(
                "safety violated after {} steps: {:?}",
                violation.trace.len(),
                violation.state
            ))
        }
    }
    // Liveness (AG EF all-consumed) is only meaningful when crashed cells can
    // recover; a permanent mid-corridor crash legitimately traps entities,
    // and a permanent cut starves the corridor (dist saturates to ∞ across
    // the split, so the source stops inserting — safe degradation, not
    // delivery).
    if cut {
        println!("LIVE: skipped (a permanent partition legitimately starves delivery)");
    } else if recovery || fallible == 0 {
        let started = std::time::Instant::now();
        match cellflow_dts::check_possibly(
            &sys,
            |s| s.next_entity_id == budget && s.entity_count() == 0,
            &ExploreConfig {
                max_states: 5_000_000,
                max_depth: usize::MAX,
            },
        ) {
            Ok(live) => println!(
                "LIVE: AG EF all-consumed over {} states ({} goal states), {:.2?}",
                live.states,
                live.goal_states,
                started.elapsed()
            ),
            Err(trap) => {
                return Err(format!(
                    "trapped state found after {} steps",
                    trap.trace.len()
                ))
            }
        }
    } else {
        println!("LIVE: skipped (permanent failures can trap entities; pass --recovery)");
    }
    Ok(())
}

/// A seeded chaos campaign against the message-passing runtime: scripted
/// faults (bursts, blackouts, flapping, hard thread crashes, kills) plus
/// message-level chaos, judged by the online invariant monitors, with a
/// differential check against the shared-variable reference whenever the
/// campaign is one the reference can mirror (lossless fabric, no kills).
///
/// The report is **byte-identical across runs for the same seed**: it
/// contains no wall-clock timing, and a timeout names only the wedged round
/// (the detecting cell is a thread-scheduling race).
fn chaos(flags: &Flags) -> Result<(), String> {
    use cellflow_core::{standard_monitors, CampaignSpec, FaultPlan};
    use cellflow_net::{ChaosConfig, NetError, NetSystem};
    use cellflow_sim::FailureModel;

    if flags.has("cascade") {
        return cascade(flags);
    }
    let spec: String = flags.get("partition", String::new())?;
    if !spec.is_empty() {
        return partition(flags, &spec);
    }

    let n: u16 = flags.get("n", 6)?;
    if n < 3 {
        return Err("--n must be at least 3".into());
    }
    let rounds: u64 = flags.get("rounds", 300)?;
    let seed: u64 = flags.get("seed", 1)?;
    let active: u64 = flags.get("active", 100.min(rounds))?;
    let drop: f64 = flags.get("drop", 0.05)?;
    let delay: f64 = flags.get("delay", 0.05)?;
    let dup: f64 = flags.get("dup", 0.1)?;
    let reorder: f64 = flags.get("reorder", 0.1)?;
    let timeout_ms: u64 = flags.get("timeout-ms", 5_000)?;
    let shard_workers: usize = flags.get("shard-workers", 1)?;
    for (name, rate) in [
        ("drop", drop),
        ("delay", delay),
        ("dup", dup),
        ("reorder", reorder),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} must be a probability, got {rate}"));
        }
    }

    let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0));
    let spec = CampaignSpec {
        active_rounds: active,
        bursts: flags.get("bursts", 2)?,
        blackouts: flags.get("blackouts", 1)?,
        flappers: flags.get("flappers", 1)?,
        hard_crashes: flags.get("hard", 1)?,
        kills: flags.get("kills", 0)?,
        ..CampaignSpec::default()
    };
    let plan = FaultPlan::random_campaign(&config, &spec, seed);
    let recording_to = crate::record::record_flags(flags)?;
    let campaign = campaign_telemetry(flags, "chaos")?;
    let traced = flags.has("trace");
    flags.finish()?;
    let recorder = match &recording_to {
        Some((_, interval)) => {
            let sc = crate::record::RecScenario::Chaos {
                n,
                rounds,
                active,
                drop,
                delay,
                dup,
                reorder,
                bursts: spec.bursts,
                blackouts: spec.blackouts,
                flappers: spec.flappers,
                hard: spec.hard_crashes,
                kills: spec.kills,
            };
            Some(sc.recorder(seed, *interval)?)
        }
        None => None,
    };
    let chaos_cfg = ChaosConfig {
        seed,
        drop_rate: drop,
        delay_rate: delay,
        dup_rate: dup,
        reorder_rate: reorder,
        until_round: Some(active),
    };

    let census = plan.census();
    let (crashes, recoveries, hard, kills) = (
        census.crashes,
        census.recoveries,
        census.hard_crashes,
        census.kills,
    );
    println!("chaos campaign: {n}×{n} grid, {rounds} rounds, seed {seed}");
    println!(
        "fault plan:     {crashes} crashes, {recoveries} recoveries, {hard} hard, {kills} kills \
         (active first {active} rounds)"
    );
    println!(
        "message chaos:  drop {drop}, delay {delay}, dup {dup}, reorder {reorder} \
         (quiet after round {active})"
    );

    let monitors = standard_monitors(&config);
    let mut net = NetSystem::new(config.clone())
        .map_err(|e| e.to_string())?
        .with_plan(plan.clone())
        .with_chaos(chaos_cfg)
        .with_round_timeout(std::time::Duration::from_millis(timeout_ms.max(1)));
    if let Some(ct) = &campaign {
        net = net.with_telemetry(std::sync::Arc::clone(&ct.telemetry));
    }
    if traced {
        net = net.with_tracer(cellflow_telemetry::Tracer::new(seed));
    }
    let (report, recording) = match net.run_monitored_recorded(rounds, monitors, recorder) {
        Ok(pair) => pair,
        Err(NetError::Timeout { round, silent, .. }) => {
            // Deterministic by construction: the wedged round and the silent
            // set are properties of the plan, while the detecting cell is a
            // scheduling race — so the detector is not printed.
            println!("\nrun degraded:   round {round} timed out (a cell went silent and");
            println!("                never handed its barrier seat over — no deadlock)");
            println!("                silent: {}", fmt_silent(&silent));
            if recording_to.is_some() {
                println!("recording:      none written (a degraded run has no complete frames)");
            }
            if let Some(ct) = &campaign {
                ct.finish()?;
            }
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    if let Some(ct) = &campaign {
        ct.finish()?;
    }
    if let Some((out, _)) = &recording_to {
        crate::record::save_recording(out, recording)?;
    }

    println!(
        "\ninjected:       {} dropped, {} delayed, {} duplicated, {} reordered",
        report.chaos.dropped, report.chaos.delayed, report.chaos.duplicated, report.chaos.reordered
    );
    println!(
        "traffic:        {} inserted, {} consumed, {} in flight",
        report.inserted,
        report.consumed,
        report.state.entity_count()
    );
    println!("\nmonitors:");
    for summary in &report.monitor_summaries {
        println!("  {summary}");
    }
    if report.violations.is_empty() {
        println!("violations:     none");
    } else {
        println!("violations:     {}", report.violations.len());
        for v in &report.violations {
            println!("  {v}");
        }
    }

    // The reference can mirror the campaign exactly only when the fabric
    // loses nothing (dup/reorder are absorbed by the drains) and every
    // faulty cell keeps participating in the rounds (no kills).
    if drop == 0.0 && delay == 0.0 && kills == 0 {
        let mut reference = System::new(config);
        if shard_workers > 1 {
            // Not printed: the report must stay byte-identical across
            // worker counts, which is exactly what the CI smoke job diffs.
            reference.set_workers(shard_workers);
            reference.set_shard_min(1);
        }
        let mut model = plan;
        for round in 0..rounds {
            model.apply(&mut reference, round);
            reference.step();
        }
        let agree = report.state.cells == reference.state().cells
            && report.consumed == reference.consumed_total()
            && report.inserted == reference.inserted_total();
        if agree {
            println!("differential:   deployment ≡ shared-variable reference (bit-identical)");
        } else {
            return Err("differential: deployment DIVERGED from the reference".into());
        }
    } else {
        println!("differential:   skipped (lossy fabric or kills: the reference cannot mirror)");
    }
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} monitor violation(s) — see report above",
            report.violations.len()
        ))
    }
}

/// A cascading-failure campaign on a finite-capacity grid
/// (`cellflow chaos --cascade`): a scripted corridor crash piles traffic up
/// beneath the block, sustained overload crashes cells endogenously, and
/// the cascade propagates as shed load re-overloads neighbors. The
/// campaign is precomputed into an ordinary fault plan, judged by the full
/// monitor suite (including occupancy ≤ capacity) on the shared-variable
/// reference, then replayed on the message-passing deployment — with the
/// restart supervisor disciplining any optimistic `--restart` re-spawns
/// (flapping cells exhaust `--budget` and are quarantined).
///
/// `--backoff` swaps overload crashes for randomized, seeded
/// Feldmann-style admission pauses; the report then also shows the
/// unmitigated baseline so the two modes compare directly.
///
/// The report is **byte-identical across runs for the same seed**: no
/// wall-clock values are printed, and the reference block is sealed with
/// an FNV-1a checksum.
fn cascade(flags: &Flags) -> Result<(), String> {
    use cellflow_core::monitor::stabilization_bound;
    use cellflow_core::overload::{BackoffPolicy, OverloadTrigger};
    use cellflow_core::{expand_overload, standard_monitors, FaultPlan};
    use cellflow_net::{NetError, NetSystem, RestartPolicy};
    use cellflow_sim::cascade::{run_cascade_recorded, CascadeScenario};
    use cellflow_sim::{FailureModel, SimTelemetry};

    let n: u16 = flags.get("n", 5)?;
    if n < 4 {
        return Err("--n must be at least 4".into());
    }
    let rounds: u64 = flags.get("rounds", 160)?;
    let seed: u64 = flags.get("seed", 1)?;
    let capacity: u32 = flags.get("capacity", 2)?;
    if capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    let threshold: u32 = flags.get("threshold", capacity)?;
    let sustain: u32 = flags.get("sustain", 2)?;
    if threshold == 0 || sustain == 0 {
        return Err("--threshold and --sustain must be positive".into());
    }
    let backoff_on = flags.has("backoff");
    let backoff_base: u64 = flags.get("backoff-base", 4)?;
    let backoff_max: u64 = flags.get("backoff-max", 32)?;
    let restart: u64 = flags.get("restart", 0)?;
    let budget: u32 = flags.get("budget", u32::MAX)?;
    let timeout_ms: u64 = flags.get("timeout-ms", 5_000)?;
    let shard_workers: usize = flags.get("shard-workers", 1)?;
    if backoff_on && restart > 0 {
        return Err("--backoff and --restart are exclusive mitigation modes".into());
    }
    let recording_to = crate::record::record_flags(flags)?;
    flags.finish()?;

    let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0))
        .with_capacity(capacity);
    let bound = stabilization_bound(&config);
    // The congestion seed: block the corridor mid-way so traffic piles up
    // beneath the crash — the overload trigger does the rest.
    let base = FaultPlan::new().crash_at(8, CellId::new(1, n / 2));
    let trigger = OverloadTrigger::new(threshold, sustain);
    let backoff = backoff_on.then_some(BackoffPolicy {
        base: backoff_base.max(1),
        max: backoff_max.max(backoff_base.max(1)),
        seed,
    });
    let restart_after = (restart > 0).then_some(restart);

    let mitigation = if backoff_on {
        format!("backoff (base {backoff_base}, max {backoff_max}, seed {seed})")
    } else if restart > 0 {
        format!("optimistic restart after {restart} rounds (supervisor budget {budget})")
    } else {
        "none (overload crashes are permanent)".to_string()
    };
    println!("cascade campaign: {n}×{n} grid, capacity {capacity}, {rounds} rounds, seed {seed}");
    println!("trigger:          occupancy ≥ {threshold} sustained {sustain} rounds");
    println!("mitigation:       {mitigation}");

    let scenario = CascadeScenario {
        config: config.clone(),
        base: base.clone(),
        trigger,
        backoff,
        restart_after,
        rounds,
        settle: bound + 2,
        workers: shard_workers.max(1),
    };
    let recorder = match &recording_to {
        Some((_, interval)) => {
            let sc = crate::record::RecScenario::Cascade {
                n,
                rounds,
                capacity,
                threshold,
                sustain,
                backoff: backoff_on,
                base: backoff_base,
                max: backoff_max,
                restart,
            };
            Some(sc.recorder(seed, *interval)?)
        }
        None => None,
    };
    let registry = cellflow_telemetry::Registry::new();
    let (report, recording) =
        run_cascade_recorded(&scenario, Some(SimTelemetry::new(&registry)), recorder);
    if let Some((out, _)) = &recording_to {
        crate::record::save_recording(out, recording)?;
    }

    println!("\n== shared-variable reference ==\n");
    print!("{}", report.render());
    if backoff_on {
        // The unmitigated baseline the backoff run is judged against.
        let baseline = expand_overload(&config, &base, trigger, None, None, rounds);
        println!(
            "\nbackoff vs unmitigated: {} overload crashes -> {}, {} backoff pauses",
            baseline.stats.overload_crashes,
            report.outcome.stats.overload_crashes,
            report.outcome.stats.backoff_activations
        );
    }

    println!("\n== message-passing deployment ==\n");
    let policy = RestartPolicy {
        restart_budget: budget,
        ..RestartPolicy::default()
    };
    let net = NetSystem::new(config.clone())
        .map_err(|e| e.to_string())?
        .with_plan(report.outcome.plan.clone())
        .with_restart_policy(policy)
        .with_round_timeout(std::time::Duration::from_millis(timeout_ms.max(1)));
    let total_rounds = rounds + bound + 2;
    let net_report = match net.run_monitored(total_rounds, standard_monitors(&config)) {
        Ok(r) => r,
        Err(NetError::Timeout { round, silent, .. }) => {
            println!(
                "run degraded:   round {round} timed out; silent: {}",
                fmt_silent(&silent)
            );
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    if net_report.supervisor.is_empty() {
        println!("supervisor:     no interventions");
    } else {
        println!("supervisor:     {} interventions", net_report.supervisor.len());
        for d in &net_report.supervisor {
            println!("  {d:?}");
        }
    }
    println!(
        "traffic:        {} inserted, {} consumed, {} in flight",
        net_report.inserted,
        net_report.consumed,
        net_report.state.entity_count()
    );

    // Differential: the deployment must mirror the reference running the
    // same *effective* (supervisor-rewritten) plan.
    let (effective, _) = policy.rewrite(&report.outcome.plan);
    let mut reference = System::new(config);
    if shard_workers > 1 {
        reference.set_workers(shard_workers);
        reference.set_shard_min(1);
    }
    let mut model = effective;
    for round in 0..total_rounds {
        model.apply(&mut reference, round);
        reference.step();
    }
    if net_report.state.cells == reference.state().cells
        && net_report.consumed == reference.consumed_total()
        && net_report.inserted == reference.inserted_total()
    {
        println!("differential:   deployment ≡ shared-variable reference (bit-identical)");
    } else {
        return Err("differential: deployment DIVERGED from the reference".into());
    }

    // The telemetry the reference run recorded (counters only; values are
    // campaign properties, so the block stays byte-identical per seed).
    println!("\ntelemetry:");
    let mut counters: Vec<(String, u64)> = registry
        .snapshot()
        .into_iter()
        .filter_map(|m| match m {
            cellflow_telemetry::MetricSnapshot::Counter { name, value } => Some((name, value)),
            _ => None,
        })
        .filter(|(name, _)| {
            name.contains("overload") || name.contains("shed") || name.contains("backoff")
        })
        .collect();
    counters.sort();
    for (name, value) in counters {
        println!("  {name} {value}");
    }

    if report.stabilized_in_bound() {
        Ok(())
    } else {
        Err(format!(
            "cascade failed to re-stabilize within the {bound}-round bound \
             (rounds_to_stabilize: {:?})",
            report.rounds_to_stabilize
        ))
    }
}

/// Formats a timeout's silent-cell attribution for the degraded-run
/// messages. The list is a property of the fault plan (deterministic), so
/// printing it keeps reports byte-identical per seed.
fn fmt_silent(silent: &[CellId]) -> String {
    if silent.is_empty() {
        return "unattributed (every member checked in or cleanly left)".to_string();
    }
    silent
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a whitespace-free `--partition` SPEC into a [`PartitionPlan`]
/// over `dims`, with the cut window `[start, heal)` and `seed` feeding any
/// flaky-link spec. Validates bounds up front so a bad SPEC is a CLI error,
/// not a builder panic.
pub(crate) fn parse_partition_spec(
    spec: &str,
    dims: GridDims,
    start: u64,
    heal: Option<u64>,
    seed: u64,
) -> Result<cellflow_core::PartitionPlan, String> {
    use cellflow_core::PartitionPlan;
    let usage = || {
        format!(
            "bad --partition spec `{spec}` (expected split@col=C, split@row=R, \
             island@i0,j0,i1,j1, or flaky@MILLI)"
        )
    };
    let plan = PartitionPlan::for_grid(dims);
    let (kind, rest) = spec.split_once('@').ok_or_else(usage)?;
    match kind {
        "split" => {
            let (axis, idx) = rest.split_once('=').ok_or_else(usage)?;
            let k: u16 = idx.parse().map_err(|_| usage())?;
            match axis {
                "col" => {
                    if k < 1 || k >= dims.nx() {
                        return Err(format!(
                            "split column {k} out of range 1..{} for the {}×{} grid",
                            dims.nx(),
                            dims.nx(),
                            dims.ny()
                        ));
                    }
                    Ok(plan.split_col(k, start, heal))
                }
                "row" => {
                    if k < 1 || k >= dims.ny() {
                        return Err(format!(
                            "split row {k} out of range 1..{} for the {}×{} grid",
                            dims.ny(),
                            dims.nx(),
                            dims.ny()
                        ));
                    }
                    Ok(plan.split_row(k, start, heal))
                }
                _ => Err(usage()),
            }
        }
        "island" => {
            let coords: Vec<u16> = rest
                .split(',')
                .map(|p| p.parse().map_err(|_| usage()))
                .collect::<Result<_, _>>()?;
            let [i0, j0, i1, j1] = coords[..] else {
                return Err(usage());
            };
            let (a, b) = (CellId::new(i0, j0), CellId::new(i1, j1));
            if !dims.contains(a) || !dims.contains(b) {
                return Err(format!(
                    "island corners {a} / {b} out of the {}×{} grid",
                    dims.nx(),
                    dims.ny()
                ));
            }
            Ok(plan.island(a, b, start, heal))
        }
        "flaky" => {
            let milli: u32 = rest.parse().map_err(|_| usage())?;
            if milli > 1000 {
                return Err(format!("flaky rate {milli} exceeds 1000 (parts per thousand)"));
            }
            Ok(plan.flaky_links(seed, milli, start, heal))
        }
        _ => Err(usage()),
    }
}

/// A scripted link-fault / split-brain campaign (`cellflow chaos
/// --partition SPEC`): the plan expands once into a per-round edge mask,
/// the shared-variable reference runs the campaign under the full monitor
/// suite (including the split-brain [`ReachabilityMonitor`]
/// (cellflow_core::monitor::ReachabilityMonitor)) and certifies post-heal
/// re-stabilization within the 2N²+2 bound, and the same schedule then
/// replays on the message-passing deployment over a
/// [`LinkFaultTransport`](cellflow_net::LinkFaultTransport), which must
/// match the reference bit for bit.
///
/// The report is **byte-identical across runs for the same seed**: no
/// wall-clock values are printed, the reference block is sealed with an
/// FNV-1a checksum, and every deployment-side line is a property of the
/// plan (suppression counts, traffic, the silent set of any timeout).
fn partition(flags: &Flags, spec: &str) -> Result<(), String> {
    use cellflow_core::monitor::stabilization_bound;
    use cellflow_core::{standard_monitors, FaultPlan};
    use cellflow_net::{NetError, NetSystem};
    use cellflow_sim::partition::{run_partition_recorded, PartitionScenario};

    let n: u16 = flags.get("n", 5)?;
    if n < 3 {
        return Err("--n must be at least 3".into());
    }
    let rounds: u64 = flags.get("rounds", 120)?;
    let start: u64 = flags.get("start", 10)?;
    let seed: u64 = flags.get("seed", 1)?;
    let timeout_ms: u64 = flags.get("timeout-ms", 5_000)?;
    let shard_workers: usize = flags.get("shard-workers", 1)?;
    let heal = if flags.has("no-heal") {
        None
    } else {
        Some(flags.get("heal", (rounds * 2) / 3)?)
    };
    if let Some(h) = heal {
        if h <= start || h > rounds {
            return Err(format!(
                "--heal must lie in ({start}, {rounds}] (after --start, within --rounds)"
            ));
        }
    }

    let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0));
    let bound = stabilization_bound(&config);
    let settle: u64 = flags.get("settle", bound + 2)?;
    let recording_to = crate::record::record_flags(flags)?;
    flags.finish()?;
    let plan = parse_partition_spec(spec, GridDims::square(n), start, heal, seed)?;

    let heal_text = match heal {
        Some(h) => format!("heal at round {h}"),
        None => "never heals".to_string(),
    };
    println!("partition campaign: {n}×{n} grid, seed {seed}, spec {spec}");
    println!("cut window:         rounds [{start}, …), {heal_text}");
    println!("horizon:            {rounds} campaign + {settle} settle rounds (bound {bound})");

    println!("\n== shared-variable reference ==\n");
    let scenario = PartitionScenario {
        config: config.clone(),
        plan: plan.clone(),
        base: FaultPlan::new(),
        rounds,
        settle,
        workers: shard_workers.max(1),
    };
    let recorder = match &recording_to {
        Some((_, interval)) => {
            let sc = crate::record::RecScenario::Partition {
                n,
                rounds,
                spec: spec.to_string(),
                start,
                heal,
                settle,
            };
            Some(sc.recorder(seed, *interval)?)
        }
        None => None,
    };
    let (report, recording) = run_partition_recorded(&scenario, None, recorder);
    if let Some((out, _)) = &recording_to {
        crate::record::save_recording(out, recording)?;
    }
    print!("{}", report.render());

    println!("\n== message-passing deployment ==\n");
    let total_rounds = rounds + settle;
    let net = NetSystem::new(config.clone())
        .map_err(|e| e.to_string())?
        .with_partition(plan.clone())
        .with_round_timeout(std::time::Duration::from_millis(timeout_ms.max(1)));
    let net_report = match net.run_monitored(total_rounds, standard_monitors(&config)) {
        Ok(r) => r,
        Err(NetError::Timeout { round, silent, .. }) => {
            println!(
                "run degraded:   round {round} timed out; silent: {}",
                fmt_silent(&silent)
            );
            return Err("partitioned deployment wedged instead of degrading".into());
        }
        Err(e) => return Err(e.to_string()),
    };
    println!(
        "suppressed:     {} announcements on cut edges",
        net_report.links.suppressed
    );
    println!(
        "traffic:        {} inserted, {} consumed, {} in flight",
        net_report.inserted,
        net_report.consumed,
        net_report.state.entity_count()
    );
    if net_report.violations.is_empty() {
        println!("violations:     none");
    } else {
        println!("violations:     {}", net_report.violations.len());
        for v in &net_report.violations {
            println!("  {v}");
        }
    }

    // Differential: the deployment must mirror the reference driving the
    // same per-round cut masks through the engine.
    let schedule = plan.expand(total_rounds);
    let mut reference = System::new(config);
    if shard_workers > 1 {
        reference.set_workers(shard_workers);
        reference.set_shard_min(1);
    }
    for round in 0..total_rounds {
        reference.set_link_cuts(schedule.mask_row(round));
        reference.step();
    }
    if net_report.state.cells == reference.state().cells
        && net_report.consumed == reference.consumed_total()
        && net_report.inserted == reference.inserted_total()
    {
        println!("differential:   deployment ≡ shared-variable reference (bit-identical)");
    } else {
        return Err("differential: deployment DIVERGED from the reference".into());
    }

    if report.certified() && net_report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "partition campaign FAILED certification \
             (reference certified: {}, deployment violations: {})",
            report.certified(),
            net_report.violations.len()
        ))
    }
}

/// An adversarial state-corruption campaign with a mechanical stabilization
/// certificate (Theorem 10 / Corollary 7): seeded corruptions are driven
/// through the shared-variable reference by the certifier, then the same
/// campaign — plus a hard crash and a *dirty* crash that tears the
/// write-ahead record — runs against the message-passing deployment with a
/// durable snapshot store, so the re-spawn restores a deliberately stale
/// sealed snapshot the protocol must absorb.
///
/// The full report is **byte-identical across runs for the same seed** (no
/// wall-clock, no filesystem paths) and each block is sealed with an FNV-1a
/// checksum. A failed certificate is shrunk to a minimal counterexample and
/// the command exits nonzero.
fn stabilize(flags: &Flags) -> Result<(), String> {
    use cellflow_core::certify::{certify, corruption_events, fnv1a, shrink, CertifyOptions};
    use cellflow_core::monitor::{
        stabilization_bound, ConservationMonitor, Monitor, RoutingMonitor, SafetyMonitor,
        StabilizationMonitor, StabilizationProbe,
    };
    use cellflow_core::{CampaignSpec, FaultPlan};
    use cellflow_net::{DurableStore, NetError, NetSystem, TearSpec};
    use std::sync::Arc;

    let n: u16 = flags.get("n", 6)?;
    if n < 3 {
        return Err("--n must be at least 3".into());
    }
    let seed: u64 = flags.get("seed", 1)?;
    let corruptions: u32 = flags.get("corruptions", 3)?;
    let active: u64 = flags.get("active", 30)?;
    if active < 6 {
        return Err("--active must be at least 6".into());
    }
    let timeout_ms: u64 = flags.get("timeout-ms", 5_000)?;
    let campaign = campaign_telemetry(flags, "stabilize")?;
    let traced = flags.has("trace");
    let recording_to = crate::record::record_flags(flags)?;
    flags.finish()?;

    let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0));
    let bound = stabilization_bound(&config);

    // Seeded corruption-only campaign, shared by both phases.
    let spec = CampaignSpec {
        active_rounds: active,
        bursts: 0,
        blackouts: 0,
        flappers: 0,
        hard_crashes: 0,
        kills: 0,
        corruptions,
        ..CampaignSpec::default()
    };
    let plan = FaultPlan::random_campaign(&config, &spec, seed);
    let ops = corruption_events(&plan);

    println!("stabilization campaign: {n}×{n} grid, seed {seed}, bound {bound} rounds (2N²+2)");
    println!("\n== shared-variable certifier ==\n");
    let cert = certify(&config, &ops, &CertifyOptions::default());
    println!("{}", cert.render());
    if !cert.holds() {
        let minimal = shrink(&config, &ops, &CertifyOptions::default());
        println!("\nminimal counterexample ({} of {} corruptions):", minimal.len(), ops.len());
        for op in &minimal {
            println!(
                "  round {:>4}  cell ({},{})  {:?}",
                op.round,
                op.cell.i(),
                op.cell.j(),
                op.corruption
            );
        }
        return Err("stabilization certificate FAILED on the reference".into());
    }

    // Phase 2: the same corruptions against the deployment, plus a hard
    // crash (re-spawn from the sealed frozen-failed snapshot) and a dirty
    // tear (re-spawn from a deliberately *stale* sealed snapshot).
    let hard_victim = CellId::new(2, 1);
    let tear_victim = CellId::new(2, 2);
    let (hard_at, hard_respawn) = (active / 3, 2 * active / 3);
    let (tear_at, tear_respawn) = (active / 2, active / 2 + 10);
    let rounds = active.max(tear_respawn) + bound + 2;
    let net_plan = plan
        .hard_crash_at(hard_at, hard_victim)
        .recover_at(hard_respawn, hard_victim);

    let store_dir = std::env::temp_dir().join(format!(
        "cellflow-stabilize-{seed}-{}",
        std::process::id()
    ));
    let store = DurableStore::create(&store_dir).map_err(|e| e.to_string())?;
    let probe = StabilizationProbe::new();
    let monitors: Vec<Box<dyn Monitor>> = vec![
        Box::new(SafetyMonitor::new()),
        Box::new(RoutingMonitor::new()),
        Box::new(ConservationMonitor::new()),
        Box::new(StabilizationMonitor::new(&config).with_probe(&probe)),
    ];
    let mut net = NetSystem::new(config)
        .map_err(|e| e.to_string())?
        .with_plan(net_plan)
        .with_store(Arc::new(store))
        .with_tear(TearSpec {
            cell: tear_victim,
            round: tear_at,
            respawn: tear_respawn,
        })
        .with_round_timeout(std::time::Duration::from_millis(timeout_ms.max(1)));
    if let Some(ct) = &campaign {
        net = net.with_telemetry(Arc::clone(&ct.telemetry));
    }
    if traced {
        net = net.with_tracer(cellflow_telemetry::Tracer::new(seed));
    }
    let recorder = match &recording_to {
        Some((_, interval)) => {
            let sc = crate::record::RecScenario::Stabilize {
                n,
                corruptions,
                active,
            };
            Some(sc.recorder(seed, *interval)?)
        }
        None => None,
    };
    let outcome = net.run_monitored_recorded(rounds, monitors, recorder);
    std::fs::remove_dir_all(&store_dir).ok();
    if let Some(ct) = &campaign {
        ct.finish()?;
    }
    let (report, recording) = match outcome {
        Ok(pair) => pair,
        Err(NetError::Timeout { round, silent, .. }) => {
            return Err(format!(
                "deployment wedged: round {round} timed out; silent: {}",
                fmt_silent(&silent)
            ));
        }
        Err(e) => return Err(e.to_string()),
    };
    if let Some((out, _)) = &recording_to {
        crate::record::save_recording(out, recording)?;
    }

    let mut block = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(block, "deployment campaign: {rounds} rounds");
    let _ = writeln!(
        block,
        "  corruptions: {}, hard crash: ({},{}) at round {hard_at} (re-spawn {hard_respawn})",
        ops.len(),
        hard_victim.i(),
        hard_victim.j(),
    );
    let _ = writeln!(
        block,
        "  dirty tear:  ({},{}) at round {tear_at} (stale re-spawn {tear_respawn})",
        tear_victim.i(),
        tear_victim.j(),
    );
    let _ = writeln!(
        block,
        "  durable snapshots: write-ahead intent + per-round seal (torn tail repaired)"
    );
    let _ = writeln!(
        block,
        "  traffic: {} inserted, {} consumed, {} in flight",
        report.inserted,
        report.consumed,
        report.state.entity_count()
    );
    let _ = writeln!(block, "  last disturbance: round {}", probe.last_disturbance());
    let restab = match probe.rounds_to_stabilize() {
        Some(r) => format!("after {r} rounds (bound {bound})"),
        None => "NEVER within the run".to_string(),
    };
    let _ = writeln!(block, "  re-stabilized: {restab}");
    let _ = writeln!(block, "  violations: {}", report.violations.len());
    for v in &report.violations {
        let _ = writeln!(block, "    {v}");
    }
    let net_holds = report.violations.is_empty()
        && probe
            .rounds_to_stabilize()
            .is_some_and(|r| r <= bound);
    let _ = writeln!(
        block,
        "  verdict: {}",
        if net_holds { "CERTIFIED" } else { "FAILED" }
    );
    let _ = write!(block, "  checksum: {:016x}", fnv1a(block.as_bytes()));
    println!("\n== message-passing deployment ==\n");
    println!("{block}");
    if net_holds {
        Ok(())
    } else {
        Err("stabilization certificate FAILED on the deployment".into())
    }
}

/// The `--telemetry` bundle for a campaign command (`chaos`, `stabilize`):
/// a metric registry plus a [`cellflow_net::NetTelemetry`] streaming JSONL
/// events to disk with a flight recorder armed behind it.
struct CampaignTelemetry {
    registry: cellflow_telemetry::Registry,
    telemetry: std::sync::Arc<cellflow_net::NetTelemetry>,
    trace_out: String,
    flight_out: String,
    metrics_out: String,
}

/// Builds the bundle when `--telemetry` was given; `prefix` names the
/// default artifact files (`<prefix>.trace.jsonl` etc.).
fn campaign_telemetry(flags: &Flags, prefix: &str) -> Result<Option<CampaignTelemetry>, String> {
    use cellflow_telemetry::{EventLog, Registry};
    // `--trace` implies the telemetry bundle: causal spans ride the same
    // JSONL stream, so there is nowhere to put them without it.
    if !flags.has("telemetry") && !flags.has("trace") {
        return Ok(None);
    }
    let trace_out: String = flags.get("trace-out", format!("{prefix}.trace.jsonl"))?;
    let flight_out: String = flags.get("flight-out", format!("{prefix}.flight.jsonl"))?;
    let metrics_out: String = flags.get("metrics-out", format!("{prefix}.metrics.prom"))?;
    let registry = Registry::new();
    let log = EventLog::new()
        .with_stream_file(std::path::Path::new(&trace_out))
        .map_err(|e| format!("creating {trace_out}: {e}"))?
        .with_flight_path(std::path::PathBuf::from(&flight_out));
    let telemetry =
        std::sync::Arc::new(cellflow_net::NetTelemetry::new(&registry).with_event_log(log));
    Ok(Some(CampaignTelemetry {
        registry,
        telemetry,
        trace_out,
        flight_out,
        metrics_out,
    }))
}

impl CampaignTelemetry {
    /// Flushes the stream, writes the Prometheus exposition, and prints a
    /// summary. Only counts and paths go to stdout — no timing values — so
    /// a fixed seed still produces byte-identical output.
    fn finish(&self) -> Result<(), String> {
        self.telemetry.flush();
        let exposition = cellflow_telemetry::prometheus::render(&self.registry.snapshot());
        std::fs::write(&self.metrics_out, exposition)
            .map_err(|e| format!("writing {}: {e}", self.metrics_out))?;
        let (events, dumps) = self.telemetry.log_stats();
        println!("\ntelemetry:      {events} events -> {}", self.trace_out);
        println!("                exposition -> {}", self.metrics_out);
        if dumps > 0 {
            println!("                flight dump -> {}", self.flight_out);
        }
        Ok(())
    }
}

/// Runs a short instrumented campaign — the reference simulation (with the
/// engine's Route/Signal/Move phase timers) and the message-passing
/// deployment — into one registry, then renders the per-phase latency
/// tables. `--prom` additionally prints the Prometheus text exposition;
/// `--out FILE` writes the exposition to a file.
fn metrics(flags: &Flags) -> Result<(), String> {
    use cellflow_net::{NetSystem, NetTelemetry};
    use cellflow_sim::SimTelemetry;
    use cellflow_telemetry::{prometheus, report, Registry};

    let n: u16 = flags.get("n", 6)?;
    if n < 3 {
        return Err("--n must be at least 3".into());
    }
    let rounds: u64 = flags.get("rounds", 200)?;
    let seed: u64 = flags.get("seed", 1)?;
    let out: String = flags.get("out", String::new())?;
    let trace_out: String = flags.get("trace-out", String::new())?;
    let prom = flags.has("prom");
    flags.finish()?;

    let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
    let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
        .map_err(|e| e.to_string())?
        .with_source(CellId::new(1, 0));

    let registry = Registry::new();
    let mut sim_telemetry = SimTelemetry::new(&registry);
    if !trace_out.is_empty() {
        sim_telemetry = sim_telemetry.with_event_log(
            cellflow_telemetry::EventLog::new()
                .with_stream_file(std::path::Path::new(&trace_out))
                .map_err(|e| format!("creating {trace_out}: {e}"))?,
        );
    }
    let mut sim = Simulation::new(config.clone(), seed).with_telemetry(sim_telemetry);
    if !trace_out.is_empty() {
        // The reference sim's causal span trees (round → phase → shard,
        // plus event-bearing-cell leaves) ride the event stream.
        sim = sim.with_tracer(cellflow_telemetry::Tracer::new(seed));
    }
    sim.system_mut()
        .attach_scheduler_metrics(cellflow_telemetry::SchedulerMetrics::register(&registry));
    sim.run(rounds);
    if let Some(tel) = sim.telemetry_mut() {
        tel.flush();
    }
    let active = sim.system().active_cells();
    let total = usize::from(n) * usize::from(n);

    // Monitored run: the collector thread is what feeds the per-round
    // counters (`cellflow_net_rounds_total`), so the plain `run` would
    // leave them at zero.
    let telemetry = std::sync::Arc::new(NetTelemetry::new(&registry));
    NetSystem::new(config.clone())
        .map_err(|e| e.to_string())?
        .with_telemetry(std::sync::Arc::clone(&telemetry))
        .run_monitored(rounds, cellflow_core::standard_monitors(&config))
        .map_err(|e| e.to_string())?;

    let snapshot = registry.snapshot();
    println!("instrumented {n}x{n} grid, {rounds} rounds (reference sim + deployment)\n");
    println!(
        "active set: {active}/{total} cells ({:.1}% occupancy) in the final round\n",
        100.0 * active as f64 / total as f64
    );
    println!("{}", report::render_tables(&snapshot));
    if prom {
        println!("{}", prometheus::render(&snapshot));
    }
    if !out.is_empty() {
        std::fs::write(&out, prometheus::render(&snapshot))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if !trace_out.is_empty() {
        println!("wrote {trace_out} (render it with `cellflow trace {trace_out}`)");
    }
    Ok(())
}

/// Validates a telemetry artifact and renders it. JSONL event streams get
/// the per-kind census and a round timeline; Prometheus expositions get a
/// conformance summary. Exits nonzero on any schema violation.
fn inspect(args: &[String]) -> Result<(), String> {
    use cellflow_telemetry::{prometheus, report, validate_stream};

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("inspect needs a file: cellflow inspect <trace.jsonl> [--rows 40]".into());
    };
    let flags = Flags::parse(&args[1..])?;
    let rows: usize = flags.get("rows", 40)?;
    flags.finish()?;
    // Recordings are binary — route them before the text read.
    if path.ends_with(".rec") {
        return crate::record::inspect_rec(path);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path}:1: empty file (expected a JSONL event stream or a Prometheus exposition)"));
    }

    // Route by extension first — a schema-invalid JSONL line must be
    // reported as a JSONL error with its line number, not silently fed to
    // the Prometheus validator because it happens not to start with '{'.
    let is_jsonl = path.ends_with(".jsonl")
        || (!path.ends_with(".prom") && text.trim_start().starts_with('{'));
    if is_jsonl {
        let stats =
            validate_stream(&text).map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
        println!(
            "{path}: {} events, rounds {}..{}, {} violation(s), {} timeout(s)",
            stats.events, stats.first_round, stats.last_round, stats.violations, stats.timeouts
        );
        for (kind, count) in &stats.by_kind {
            println!("  {kind:<15} {count}");
        }
        println!();
        let timeline =
            report::render_timeline(&text, rows).map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
        println!("{timeline}");
    } else {
        let stats =
            prometheus::validate(&text).map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
        println!(
            "{path}: valid Prometheus exposition — {} metric families, {} samples",
            stats.families, stats.samples
        );
    }
    Ok(())
}

/// Analyzes the causal spans in a JSONL event stream (`--trace` output):
/// validates the span tree's causality (parents exist, close after their
/// children open), then renders per-round critical-path chains, the
/// slowest-cell attribution table, and the per-label span profile. For
/// every timed-out round the report names the last-arriving (silent)
/// cells. The default output derives only from deterministic span fields,
/// so two traces of the same seeded run render byte-identically; `--wall`
/// opts into the measured nanosecond sections.
fn trace(args: &[String]) -> Result<(), String> {
    use cellflow_telemetry::Trace;

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(
            "trace needs a file: cellflow trace <trace.jsonl> [--top 10] [--round R] [--wall]"
                .into(),
        );
    };
    let flags = Flags::parse(&args[1..])?;
    let top: usize = flags.get("top", 10)?;
    // Round tags are 1-based in the stream, so 0 doubles as "no filter".
    let round: u64 = flags.get("round", 0)?;
    let wall = flags.has("wall");
    flags.finish()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let parsed = Trace::parse(&text).map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
    if parsed.spans.is_empty() {
        return Err(format!(
            "{path}: stream has no span events (rerun the producing command with --trace)"
        ));
    }
    parsed
        .check_causality()
        .map_err(|msg| format!("{path}: causality violated: {msg}"))?;
    print!("{}", parsed.render(top, (round > 0).then_some(round), wall));
    Ok(())
}

fn bench(flags: &Flags) -> Result<(), String> {
    let quick = flags.has("quick");
    if flags.has("check") {
        // Regression mode: rerun every matrix in quick mode and compare
        // against the committed baselines inside the tolerance bands.
        let dir: String = flags.get("baseline-dir", ".".to_string())?;
        flags.finish()?;
        eprintln!("bench --check: comparing fresh quick runs against baselines in {dir}/ ...");
        let report = cellflow_bench::check::run(std::path::Path::new(&dir))?;
        print!("{}", report.render());
        return if report.passed() {
            Ok(())
        } else {
            Err(format!(
                "{} perf-regression check(s) failed against the committed baselines",
                report.failures().len()
            ))
        };
    }
    let out: String = flags.get("out", "BENCH_PR3.json".to_string())?;
    let tel_out: String = flags.get("telemetry-out", "BENCH_PR5.json".to_string())?;
    let mega_out: String = flags.get("mega-out", "BENCH_PR8.json".to_string())?;
    let trace_out: String = flags.get("trace-overhead-out", "BENCH_PR9.json".to_string())?;
    let rec_out: String = flags.get("recording-overhead-out", "BENCH_PR10.json".to_string())?;
    flags.finish()?;
    eprintln!(
        "running {} bench matrix (grids {:?})...",
        if quick { "quick" } else { "full" },
        cellflow_bench::perf::GRID_SIZES
    );
    let report = cellflow_bench::perf::run(quick);
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>9} {:>8}",
        "scenario", "legacy ns/rd", "engine ns/rd", "system ns/rd", "speedup", "peak"
    );
    for sc in &report.scenarios {
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>8.2}x {:>8}",
            sc.name,
            sc.legacy_ns_per_round,
            sc.engine_ns_per_round,
            sc.system_ns_per_round,
            sc.speedup_engine_vs_legacy,
            sc.peak_entities
        );
    }
    std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");

    eprintln!("running telemetry overhead matrix...");
    let overhead = cellflow_bench::telemetry_overhead::run(quick);
    println!(
        "\n{:<8} {:>12} {:>12} {:>9}",
        "scenario", "off ns/rd", "on ns/rd", "overhead"
    );
    for sc in &overhead.scenarios {
        println!(
            "{:<8} {:>12} {:>12} {:>8.3}x",
            sc.name, sc.telemetry_off_ns_per_round, sc.telemetry_on_ns_per_round, sc.overhead_ratio
        );
    }
    std::fs::write(&tel_out, overhead.to_json())
        .map_err(|e| format!("writing {tel_out}: {e}"))?;
    println!("wrote {tel_out}");

    eprintln!(
        "running {} mega-grid matrix (sparse vs dense, sharded scaling)...",
        if quick { "quick (128\u{b2} cap)" } else { "full (up to 1024\u{b2})" }
    );
    let mega = cellflow_bench::mega::run(quick);
    println!(
        "\n{:<10} {:>14} {:>14} {:>9} {:>11}  sharded ns/rd (workers)",
        "scenario", "dense ns/rd", "sparse ns/rd", "speedup", "occupancy"
    );
    for sc in &mega.scenarios {
        let curve: Vec<String> = sc
            .sharded_ns_per_round
            .iter()
            .map(|(w, ns)| format!("{w}:{ns}"))
            .collect();
        println!(
            "{:<10} {:>14} {:>14} {:>8.2}x {:>10.2}%  {}",
            sc.name,
            sc.dense_ns_per_round,
            sc.sparse_ns_per_round,
            sc.speedup_sparse_vs_dense,
            sc.occupancy * 100.0,
            curve.join(" ")
        );
    }
    std::fs::write(&mega_out, mega.to_json())
        .map_err(|e| format!("writing {mega_out}: {e}"))?;
    println!("wrote {mega_out}");

    eprintln!("running causal-tracing overhead matrix...");
    let trace = cellflow_bench::trace_overhead::run(quick);
    println!(
        "\n{:<8} {:>12} {:>12} {:>9}",
        "scenario", "off ns/rd", "on ns/rd", "overhead"
    );
    for sc in &trace.scenarios {
        println!(
            "{:<8} {:>12} {:>12} {:>8.3}x",
            sc.name, sc.trace_off_ns_per_round, sc.trace_on_ns_per_round, sc.overhead_ratio
        );
    }
    std::fs::write(&trace_out, trace.to_json())
        .map_err(|e| format!("writing {trace_out}: {e}"))?;
    println!("wrote {trace_out}");

    eprintln!("running flight-recording overhead matrix...");
    let recording = cellflow_bench::recording_overhead::run(quick);
    println!(
        "\n{:<8} {:>12} {:>12} {:>9} {:>9}",
        "scenario", "off ns/rd", "on ns/rd", "overhead", "bytes/rd"
    );
    for sc in &recording.scenarios {
        println!(
            "{:<8} {:>12} {:>12} {:>8.3}x {:>9}",
            sc.name,
            sc.recording_off_ns_per_round,
            sc.recording_on_ns_per_round,
            sc.overhead_ratio,
            sc.bytes_per_round
        );
    }
    std::fs::write(&rec_out, recording.to_json())
        .map_err(|e| format!("writing {rec_out}: {e}"))?;
    println!("wrote {rec_out}");
    Ok(())
}

/// Demo helper used by tests: a tiny system everyone can step.
#[allow(dead_code)]
pub fn tiny_system() -> System {
    System::new(
        SystemConfig::new(
            GridDims::square(3),
            CellId::new(2, 2),
            Params::from_milli(250, 50, 200).expect("valid"),
        )
        .expect("valid")
        .with_source(CellId::new(0, 0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_empty_succeed() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&argv("help")).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        let err = dispatch(&argv("frobnicate")).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn run_small() {
        assert!(dispatch(&argv("run --n 4 --rounds 50")).is_ok());
    }

    #[test]
    fn run_validates_params() {
        let err = dispatch(&argv("run --n 4 --v 900")).unwrap_err();
        assert!(err.contains("exceed"), "{err}");
        assert!(dispatch(&argv("run --n 1")).is_err());
    }

    #[test]
    fn demo_renders() {
        assert!(dispatch(&argv("demo")).is_ok());
    }

    #[test]
    fn figures_run_at_tiny_k() {
        assert!(dispatch(&argv("fig7 --rounds 40")).is_ok());
        assert!(dispatch(&argv("fig8 --rounds 40")).is_ok());
        assert!(dispatch(&argv("fig9 --rounds 40 --seeds 1")).is_ok());
        assert!(dispatch(&argv("paths --rounds 40")).is_ok());
    }

    #[test]
    fn mc_small_instance() {
        assert!(dispatch(&argv("mc --budget 1 --fallible 1")).is_ok());
    }

    #[test]
    fn chaos_campaign_small() {
        assert!(dispatch(&argv("chaos --n 4 --rounds 80 --active 40 --seed 3")).is_ok());
    }

    #[test]
    fn mc_with_capacity_invariant() {
        assert!(dispatch(&argv("mc --budget 2 --fallible 1 --capacity 2")).is_ok());
    }

    #[test]
    fn cascade_campaign_runs_in_every_mode() {
        assert!(dispatch(&argv("chaos --cascade --n 5 --rounds 120 --seed 2")).is_ok());
        assert!(dispatch(&argv("chaos --cascade --n 5 --rounds 120 --seed 2 --backoff")).is_ok());
        assert!(dispatch(&argv(
            "chaos --cascade --n 5 --rounds 120 --seed 2 --restart 12 --budget 1"
        ))
        .is_ok());
    }

    #[test]
    fn cascade_rejects_conflicting_mitigations() {
        let err = dispatch(&argv("chaos --cascade --backoff --restart 5")).unwrap_err();
        assert!(err.contains("exclusive"), "{err}");
        assert!(dispatch(&argv("chaos --cascade --capacity 0")).is_err());
    }

    #[test]
    fn chaos_lossless_campaign_is_differential() {
        assert!(dispatch(&argv(
            "chaos --n 4 --rounds 80 --active 40 --drop 0 --delay 0 --seed 5"
        ))
        .is_ok());
    }

    #[test]
    fn chaos_with_kill_degrades_cleanly() {
        // A kill wedges a round; the command reports the typed degradation
        // (not a deadlock, not a panic) and still exits successfully.
        assert!(dispatch(&argv(
            "chaos --n 4 --rounds 60 --active 30 --kills 1 --hard 0 --timeout-ms 300 --seed 2"
        ))
        .is_ok());
    }

    #[test]
    fn partition_split_campaign_certifies() {
        assert!(dispatch(&argv(
            "chaos --n 5 --partition split@col=2 --rounds 100 --start 10 --heal 70"
        ))
        .is_ok());
    }

    #[test]
    fn partition_island_and_flaky_campaigns_certify() {
        assert!(dispatch(&argv(
            "chaos --n 5 --partition island@3,3,4,4 --rounds 100 --heal 60"
        ))
        .is_ok());
        assert!(dispatch(&argv(
            "chaos --n 5 --partition flaky@200 --seed 9 --rounds 100 --heal 60"
        ))
        .is_ok());
    }

    #[test]
    fn partition_without_heal_fails_certification() {
        let err =
            dispatch(&argv("chaos --n 5 --partition split@row=2 --no-heal")).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
    }

    #[test]
    fn partition_rejects_bad_specs() {
        assert!(dispatch(&argv("chaos --partition nonsense")).is_err());
        assert!(dispatch(&argv("chaos --partition split@col=9")).is_err());
        assert!(dispatch(&argv("chaos --partition split@diag=2")).is_err());
        assert!(dispatch(&argv("chaos --partition island@1,1")).is_err());
        assert!(dispatch(&argv("chaos --partition flaky@2000")).is_err());
        assert!(dispatch(&argv("chaos --partition split@col=2 --heal 5 --start 10")).is_err());
    }

    #[test]
    fn mc_checks_the_partitioned_corridor() {
        assert!(dispatch(&argv("mc --budget 1 --fallible 0 --cut")).is_ok());
    }

    #[test]
    fn stabilize_certifies_small_campaign() {
        assert!(dispatch(&argv("stabilize --n 4 --seed 3")).is_ok());
    }

    #[test]
    fn stabilize_certifies_with_more_corruptions() {
        assert!(dispatch(&argv("stabilize --n 4 --seed 7 --corruptions 5 --active 20")).is_ok());
    }

    #[test]
    fn stabilize_rejects_bad_grids() {
        assert!(dispatch(&argv("stabilize --n 2")).is_err());
        assert!(dispatch(&argv("stabilize --active 2")).is_err());
    }

    #[test]
    fn chaos_rejects_bad_rates() {
        assert!(dispatch(&argv("chaos --drop 1.5")).is_err());
        assert!(dispatch(&argv("chaos --n 2")).is_err());
    }

    /// Scratch dir for telemetry-artifact tests, removed on drop.
    struct Scratch(std::path::PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "cellflow-cli-{tag}-{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }
        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn metrics_renders_and_exports() {
        let scratch = Scratch::new("metrics");
        let prom = scratch.path("metrics.prom");
        assert!(dispatch(&argv(&format!(
            "metrics --n 4 --rounds 60 --prom --out {prom}"
        )))
        .is_ok());
        let text = std::fs::read_to_string(&prom).expect("exposition written");
        let stats = cellflow_telemetry::prometheus::validate(&text).expect("valid exposition");
        assert!(stats.families >= 8, "engine + sim + net metrics present");
        // The inspect command accepts the exposition it just wrote.
        assert!(dispatch(&argv(&format!("inspect {prom}"))).is_ok());
    }

    #[test]
    fn chaos_telemetry_artifacts_validate_and_inspect() {
        let scratch = Scratch::new("chaos-tel");
        let (trace, flight, prom) = (
            scratch.path("chaos.trace.jsonl"),
            scratch.path("chaos.flight.jsonl"),
            scratch.path("chaos.metrics.prom"),
        );
        assert!(dispatch(&argv(&format!(
            "chaos --n 4 --rounds 80 --active 40 --seed 3 --telemetry \
             --trace-out {trace} --flight-out {flight} --metrics-out {prom}"
        )))
        .is_ok());
        let stream = std::fs::read_to_string(&trace).expect("trace written");
        let stats = cellflow_telemetry::validate_stream(&stream).expect("schema-valid stream");
        assert_eq!(stats.last_round, 80);
        let text = std::fs::read_to_string(&prom).expect("exposition written");
        cellflow_telemetry::prometheus::validate(&text).expect("valid exposition");
        // A clean campaign never trips the flight recorder.
        assert!(!std::path::Path::new(&flight).exists());
        // And the inspect command renders the stream it produced.
        assert!(dispatch(&argv(&format!("inspect {trace} --rows 10"))).is_ok());
    }

    #[test]
    fn chaos_timeout_with_telemetry_dumps_the_flight_recorder() {
        let scratch = Scratch::new("chaos-dump");
        let (trace, flight, prom) = (
            scratch.path("wedge.trace.jsonl"),
            scratch.path("wedge.flight.jsonl"),
            scratch.path("wedge.metrics.prom"),
        );
        assert!(dispatch(&argv(&format!(
            "chaos --n 4 --rounds 60 --active 30 --kills 1 --hard 0 --timeout-ms 300 \
             --seed 2 --telemetry --trace-out {trace} --flight-out {flight} \
             --metrics-out {prom}"
        )))
        .is_ok());
        let dump = std::fs::read_to_string(&flight).expect("flight dump written on timeout");
        let stats = cellflow_telemetry::validate_stream(&dump).expect("dump is schema-valid");
        assert_eq!(stats.timeouts, 1);
        assert!(dispatch(&argv(&format!("inspect {flight}"))).is_ok());
    }

    #[test]
    fn stabilize_telemetry_produces_valid_artifacts() {
        let scratch = Scratch::new("stab-tel");
        let (trace, flight, prom) = (
            scratch.path("stab.trace.jsonl"),
            scratch.path("stab.flight.jsonl"),
            scratch.path("stab.metrics.prom"),
        );
        assert!(dispatch(&argv(&format!(
            "stabilize --n 4 --seed 3 --telemetry --trace-out {trace} \
             --flight-out {flight} --metrics-out {prom}"
        )))
        .is_ok());
        let stream = std::fs::read_to_string(&trace).expect("trace written");
        let stats = cellflow_telemetry::validate_stream(&stream).expect("schema-valid stream");
        assert!(stats.events > 0);
        cellflow_telemetry::prometheus::validate(
            &std::fs::read_to_string(&prom).expect("exposition written"),
        )
        .expect("valid exposition");
    }

    #[test]
    fn inspect_rejects_garbage_and_missing_files() {
        let scratch = Scratch::new("inspect-bad");
        assert!(dispatch(&argv("inspect")).is_err());
        assert!(dispatch(&argv(&format!("inspect {}", scratch.path("absent.jsonl")))).is_err());
        let bad = scratch.path("bad.jsonl");
        std::fs::write(&bad, "{\"v\":1,\"round\":0}\n").expect("write");
        let err = dispatch(&argv(&format!("inspect {bad}"))).unwrap_err();
        assert!(err.contains(":1:"), "error cites the line: {err}");
    }

    #[test]
    fn inspect_routes_by_extension_and_rejects_empty_files() {
        let scratch = Scratch::new("inspect-route");
        let empty = scratch.path("empty.jsonl");
        std::fs::write(&empty, "").expect("write");
        let err = dispatch(&argv(&format!("inspect {empty}"))).unwrap_err();
        assert!(err.contains(":1: empty file"), "{err}");
        // A .jsonl file whose first line is not an object must still be
        // reported as a JSONL error with its line number, not handed to
        // the Prometheus validator.
        let bad = scratch.path("garbage.jsonl");
        std::fs::write(&bad, "not json at all\n").expect("write");
        let err = dispatch(&argv(&format!("inspect {bad}"))).unwrap_err();
        assert!(err.contains(":1:"), "error cites the line: {err}");
    }

    #[test]
    fn chaos_trace_artifacts_validate_and_render() {
        let scratch = Scratch::new("chaos-trace");
        let out = scratch.path("chaos.trace.jsonl");
        // `--trace` implies the telemetry bundle.
        assert!(dispatch(&argv(&format!(
            "chaos --n 4 --rounds 60 --active 30 --seed 3 --trace --trace-out {out} \
             --flight-out {} --metrics-out {}",
            scratch.path("f.jsonl"),
            scratch.path("m.prom"),
        )))
        .is_ok());
        let stream = std::fs::read_to_string(&out).expect("trace written");
        cellflow_telemetry::validate_stream(&stream).expect("schema-valid stream");
        let parsed = cellflow_telemetry::Trace::parse(&stream).expect("span events parse");
        assert!(!parsed.spans.is_empty(), "causal spans were emitted");
        parsed.check_causality().expect("span tree is causal");
        // The analysis command accepts the stream it just produced.
        assert!(dispatch(&argv(&format!("trace {out}"))).is_ok());
        assert!(dispatch(&argv(&format!("trace {out} --top 3 --round 5 --wall"))).is_ok());
    }

    #[test]
    fn trace_command_rejects_bad_streams() {
        let scratch = Scratch::new("trace-bad");
        assert!(dispatch(&argv("trace")).is_err());
        assert!(dispatch(&argv(&format!("trace {}", scratch.path("absent.jsonl")))).is_err());
        let bad = scratch.path("bad.jsonl");
        std::fs::write(&bad, "not json\n").expect("write");
        let err = dispatch(&argv(&format!("trace {bad}"))).unwrap_err();
        assert!(err.contains(":1:"), "error cites the line: {err}");
        // A schema-valid stream with no span events is useless to the
        // analyzer; say so instead of printing an empty report.
        let spanless = scratch.path("spanless.jsonl");
        std::fs::write(
            &spanless,
            "{\"v\":1,\"round\":1,\"kind\":\"round_summary\",\"consumed\":0,\
             \"inserted\":0,\"blocked\":0,\"moved\":0}\n",
        )
        .expect("write");
        let err = dispatch(&argv(&format!("trace {spanless}"))).unwrap_err();
        assert!(err.contains("no span events"), "{err}");
    }

    #[test]
    fn metrics_trace_out_streams_a_causal_trace() {
        let scratch = Scratch::new("metrics-trace");
        let out = scratch.path("sim.trace.jsonl");
        assert!(dispatch(&argv(&format!(
            "metrics --n 4 --rounds 60 --trace-out {out}"
        )))
        .is_ok());
        let stream = std::fs::read_to_string(&out).expect("trace written");
        let parsed = cellflow_telemetry::Trace::parse(&stream).expect("span events parse");
        assert!(!parsed.spans.is_empty());
        parsed.check_causality().expect("span tree is causal");
        assert!(dispatch(&argv(&format!("trace {out}"))).is_ok());
    }

    #[test]
    fn record_replay_round_trips_byte_identically() {
        let scratch = Scratch::new("record-replay");
        let rec = scratch.path("plain.rec");
        assert!(dispatch(&argv(&format!(
            "record --scenario plain --n 4 --rounds 30 --seed 7 --record-out {rec}"
        )))
        .is_ok());
        assert!(dispatch(&argv(&format!("replay {rec}"))).is_ok());
        assert!(dispatch(&argv(&format!("inspect {rec}"))).is_ok());
    }

    #[test]
    fn corrupt_recording_is_rejected_with_an_offset() {
        let scratch = Scratch::new("record-corrupt");
        let rec = scratch.path("plain.rec");
        assert!(dispatch(&argv(&format!(
            "record --scenario plain --n 4 --rounds 20 --seed 7 --record-out {rec}"
        )))
        .is_ok());
        let mut bytes = std::fs::read(&rec).expect("recording written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&rec, &bytes).expect("tamper");
        for cmd in ["inspect", "replay"] {
            let err = dispatch(&argv(&format!("{cmd} {rec}"))).unwrap_err();
            assert!(err.contains(&format!("{rec}:")), "{cmd}: {err}");
            assert!(err.contains("corrupt") || err.contains("checksum"), "{cmd}: {err}");
        }
        // Truncation is caught too, with the offset of the torn frame.
        bytes[mid] ^= 0xff;
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&rec, &bytes).expect("truncate");
        let err = dispatch(&argv(&format!("inspect {rec}"))).unwrap_err();
        assert!(err.contains(&format!("{rec}:")), "{err}");
    }

    #[test]
    fn diff_and_bisect_pin_seed_divergence() {
        let scratch = Scratch::new("record-diff");
        let (a, b) = (scratch.path("a.rec"), scratch.path("b.rec"));
        for (seed, path) in [(1, &a), (2, &b)] {
            assert!(dispatch(&argv(&format!(
                "record --scenario chaos --n 4 --rounds 30 --active 15 --hard 0 \
                 --seed {seed} --record-out {path}"
            )))
            .is_ok());
        }
        // Same recording: no differences, exit zero.
        assert!(dispatch(&argv(&format!("diff {a} {a}"))).is_ok());
        assert!(dispatch(&argv(&format!("bisect {a} {a}"))).is_ok());
        // Different seeds: diff exits nonzero naming the round, bisect
        // reports the divergence and writes the flight dump.
        let err = dispatch(&argv(&format!("diff {a} {b}"))).unwrap_err();
        assert!(err.contains("difference"), "{err}");
        assert!(dispatch(&argv(&format!("bisect {a} {b}"))).is_ok());
        let dump = format!("{a}.divergence.jsonl");
        let stream = std::fs::read_to_string(&dump).expect("divergence dump written");
        assert!(cellflow_telemetry::validate_stream(&stream).is_ok());
        assert!(stream.contains("divergence"));
    }

    #[test]
    fn campaign_record_flag_produces_replayable_recordings() {
        let scratch = Scratch::new("record-campaign");
        let rec = scratch.path("chaos.rec");
        assert!(dispatch(&argv(&format!(
            "chaos --n 4 --rounds 40 --active 20 --hard 0 --seed 3 --record {rec}"
        )))
        .is_ok());
        assert!(dispatch(&argv(&format!("replay {rec}"))).is_ok());
        let cascade = scratch.path("cascade.rec");
        assert!(dispatch(&argv(&format!(
            "chaos --cascade --n 4 --rounds 50 --seed 2 --record {cascade}"
        )))
        .is_ok());
        assert!(dispatch(&argv(&format!("replay {cascade}"))).is_ok());
    }

    #[test]
    fn bench_check_fails_cleanly_without_baselines() {
        let scratch = Scratch::new("bench-check");
        // An empty baseline dir is an error (the harness guards committed
        // files), reported without running any benchmark.
        let err = dispatch(&argv(&format!(
            "bench --check --baseline-dir {}",
            scratch.path("")
        )))
        .unwrap_err();
        assert!(err.contains("BENCH_PR3.json"), "{err}");
    }
}
