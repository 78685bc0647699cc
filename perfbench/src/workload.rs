//! The three workloads and the outcome digest every run is checked against.
//!
//! A workload is a grid, its sources and target, a run length, and — derived
//! from the seed alone — a fault campaign and (for `chaos-net`) message
//! chaos. The program under test receives only the generated inputs.

use cellflow_core::hash::fnv1a;
use cellflow_core::snapshot::encode_state;
use cellflow_core::{
    CampaignSpec, EntityId, FaultKind, FaultPlan, Params, SystemConfig, SystemState,
};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::ChaosConfig;

/// The seed whose digests are pinned in [`pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used to pin anything: runs on it are checked for the
/// invariants only, so claims can be re-checked on inputs not used to make
/// them.
pub const HELD_OUT_SEED: u64 = 7;

/// Rounds in one full-length episode: long enough for traffic to reach the
/// target on the 128² corridor and to fill the dense grid, and enough round
/// positions that their slowest 1% is twelve rounds.
pub const EPISODE_ROUNDS: u64 = 1200;

/// Keyframe interval of every flight recording the benchmark takes.
pub const KEYFRAME_INTERVAL: u64 = 16;

/// Which runtime carries a workload's end-to-end numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// `sim::Simulation` over the shared-variable `System`.
    Sim,
    /// The message-passing `net::NetSystem` deployment.
    Net,
}

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One source, one target, a 128² grid: under 1% of cells active, so
    /// the O(cells) work above the engine dominates.
    CorridorSparse,
    /// A 96² grid draining to its centre from half the boundary cells:
    /// about half the cells active, so the engine's phases matter.
    DenseMerge,
    /// The `cellflow chaos` deployment at 16²: barrier, transport, store
    /// and collector dominate.
    ChaosNet,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::CorridorSparse, Kind::DenseMerge, Kind::ChaosNet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CorridorSparse => "corridor-sparse",
            Kind::DenseMerge => "dense-merge",
            Kind::ChaosNet => "chaos-net",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The runtime whose stack is timed end to end.
    pub fn runtime(self) -> Runtime {
        match self {
            Kind::ChaosNet => Runtime::Net,
            _ => Runtime::Sim,
        }
    }

    /// Grid side length.
    pub fn side(self) -> u16 {
        match self {
            Kind::CorridorSparse => 128,
            Kind::DenseMerge => 96,
            Kind::ChaosNet => 16,
        }
    }
}

/// One generated input: configuration, fault plan, optional message chaos.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The seed the plan and chaos were drawn from.
    pub seed: u64,
    /// Rounds per run.
    pub rounds: u64,
    /// The grid, its sources and target.
    pub config: SystemConfig,
    /// The seeded fault campaign, active for the first quarter of the run.
    pub plan: FaultPlan,
    /// Message chaos for the deployment (same active window), if any.
    pub chaos: Option<ChaosConfig>,
}

impl Workload {
    /// Generates `kind`'s inputs for `seed` over `rounds` rounds.
    pub fn new(kind: Kind, seed: u64, rounds: u64) -> Workload {
        let n = kind.side();
        let params = Params::from_milli(250, 50, 200).expect("paper parameters are valid");
        let config = match kind {
            Kind::CorridorSparse | Kind::ChaosNet => {
                SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
                    .expect("corridor configuration is valid")
                    .with_source(CellId::new(1, 0))
            }
            Kind::DenseMerge => {
                let mut sources = Vec::new();
                for k in (0..n).step_by(2) {
                    sources.extend([
                        CellId::new(0, k),
                        CellId::new(n - 1, k),
                        CellId::new(k, 0),
                        CellId::new(k, n - 1),
                    ]);
                }
                SystemConfig::new(GridDims::square(n), CellId::new(n / 2, n / 2), params)
                    .expect("dense configuration is valid")
                    .with_sources(sources)
            }
        };
        let active = rounds / 4;
        let spec = CampaignSpec {
            active_rounds: active,
            ..CampaignSpec::default()
        };
        let plan = FaultPlan::random_campaign(&config, &spec, seed);
        let chaos = (kind == Kind::ChaosNet).then_some(ChaosConfig {
            seed,
            drop_rate: 0.05,
            delay_rate: 0.05,
            dup_rate: 0.1,
            reorder_rate: 0.1,
            until_round: Some(active),
        });
        Workload {
            kind,
            seed,
            rounds,
            config,
            plan,
            chaos,
        }
    }

    /// Applies round `round`'s scripted faults to a bare state, exactly as
    /// the `System` facade does through its `fail`/`recover`/`corrupt`
    /// entry points.
    pub fn apply_faults(&self, round: u64, state: &mut SystemState) {
        let dims = self.config.dims();
        for event in self.plan.events_at(round) {
            match event.kind {
                FaultKind::Recover => state.recover(dims, event.cell, self.config.target()),
                FaultKind::Crash
                | FaultKind::HardCrash
                | FaultKind::Kill
                | FaultKind::OverloadCrash => state.fail(dims, event.cell),
                FaultKind::Corrupt(c) => {
                    c.apply(&self.config, event.cell, state.cell_mut(dims, event.cell))
                }
            }
        }
    }
}

/// What a run produced: the totals, the violation count and a checksum of
/// the final state's canonical encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Entities consumed by the target.
    pub consumed: u64,
    /// Entities inserted by sources.
    pub inserted: u64,
    /// Monitor violations flagged.
    pub violations: u64,
    /// FNV-1a of `snapshot::encode_state` of the final state.
    pub state: u64,
    /// The same checksum with every cell's entity ids replaced by their rank
    /// in position order: the final layout, whoever minted the ids.
    pub layout: u64,
}

impl Digest {
    /// Digests a finished run.
    pub fn of(state: &SystemState, consumed: u64, inserted: u64, violations: u64) -> Digest {
        let mut anonymous = state.clone();
        anonymous.next_entity_id = 0;
        for cell in &mut anonymous.cells {
            let mut positions: Vec<_> = cell.members.values().copied().collect();
            positions.sort_unstable();
            cell.members = (0..).map(EntityId).zip(positions).collect();
        }
        Digest {
            consumed,
            inserted,
            violations,
            state: fnv1a(&encode_state(state)),
            layout: fnv1a(&encode_state(&anonymous)),
        }
    }

    /// This digest with entity identities left out. The deployment mints
    /// ids from a private pool per source (`rank << 32 | seq`), so with
    /// several sources it matches the shared-variable reference in
    /// positions, not ids.
    pub fn ignoring_ids(self) -> Digest {
        Digest {
            state: self.layout,
            ..self
        }
    }

    /// The invariants every run must meet on every seed: no violation, and
    /// entities are conserved (nothing consumed that was never inserted).
    pub fn invariants_hold(&self) -> bool {
        self.violations == 0 && self.consumed <= self.inserted
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "consumed={} inserted={} violations={} state={:#018x} layout={:#018x}",
            self.consumed, self.inserted, self.violations, self.state, self.layout
        )
    }
}

/// The digest a full-length run of `kind` on [`DEFAULT_SEED`] must
/// reproduce. For `chaos-net` this is the deployment's digest; the
/// shared-variable reference it is compared against differs, because the
/// lossy fabric changes what the cells see.
pub fn pinned_digest(kind: Kind) -> Digest {
    match kind {
        Kind::CorridorSparse => Digest {
            consumed: 95,
            inserted: 182,
            violations: 0,
            state: 0x1d48_35e4_a5fd_55f9,
            layout: 0x399d_2d73_c971_cff8,
        },
        Kind::DenseMerge => Digest {
            consumed: 551,
            inserted: 5532,
            violations: 0,
            state: 0x9bb8_07dd_2665_dd51,
            layout: 0x882c_809c_b71e_aeb7,
        },
        Kind::ChaosNet => Digest {
            consumed: 177,
            inserted: 190,
            violations: 0,
            state: 0x941a_621e_b7ee_15cc,
            layout: 0xf344_34b9_193a_596f,
        },
    }
}
