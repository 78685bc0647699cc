//! Online invariant monitors: the paper's theorems as per-round runtime
//! checks.
//!
//! The proofs in the paper are offline arguments about all reachable states;
//! a [`Monitor`] turns each into an *online* observer evaluated against every
//! round of an actual execution — by the lockstep simulator, the
//! message-passing runtime's collector thread, and the `cellflow chaos` CLI
//! alike:
//!
//! * [`SafetyMonitor`] — Theorem 5's `Safe(x)` plus Invariants 1 and 2, which
//!   hold in **every** reachable state despite crashes;
//! * [`RoutingMonitor`] — structural routing sanity derived from the Route
//!   function's definition (Figure 4) and the §IV failure model: pointers
//!   stay on the grid, `dist = 0` exactly at the live target, failed cells
//!   stay pinned at `∞`/`⊥`;
//! * [`ConservationMonitor`] — no entity is minted or destroyed outside the
//!   source/target protocol (`inserted − consumed = population`);
//! * [`StabilizationMonitor`] — a stopwatch for Lemma 6 / Corollary 7:
//!   routing must re-stabilize within `2·N² + 2` rounds of the last fault
//!   transition.
//!
//! Every standard monitor runs one per-cell check, driven either over the
//! round's changed cells ([`MonitorCtx::changed`]) or over every cell, and
//! keeps small per-cell caches so that a round costs O(changed cells). A
//! monitor falls back to a full pass whenever it cannot trust the slice:
//! no slice was given, it has never done a full pass, or the round does not
//! directly follow the last one it observed. When the caches suspect a
//! violation, the whole-grid oracles ([`safety`]'s checkers,
//! [`analysis::routing_stabilized`], the full routing sweep) produce the
//! report, so violation text is identical either way.
//!
//! Predicate `H` is deliberately **not** monitored here: Lemma 3 establishes
//! it at signal-computation time, and it legitimately fails in end-of-round
//! states (granted cells' entities move within the same round), which is all
//! a monitor gets to see.

use core::fmt;
use std::collections::HashMap;

use cellflow_grid::CellId;
use cellflow_routing::Dist;

use crate::engine::CellScope;
use crate::{analysis, safety, CellState, EntityId, SystemConfig, SystemState};

/// Everything a monitor may inspect about one completed round.
///
/// `round` is 1-based: after the first `update` transition the observers see
/// `round = 1`. `failed` / `recovered` list the fault transitions applied at
/// the start of that round (empty when the round ran undisturbed).
#[derive(Clone, Copy, Debug)]
pub struct MonitorCtx<'a> {
    /// The static configuration.
    pub config: &'a SystemConfig,
    /// The end-of-round state.
    pub state: &'a SystemState,
    /// Rounds completed so far (1-based).
    pub round: u64,
    /// Cells crashed at the start of this round.
    pub failed: &'a [CellId],
    /// Cells recovered at the start of this round.
    pub recovered: &'a [CellId],
    /// Cells whose state suffered a discontinuity at the start of this
    /// round: a transient corruption ([`FaultKind::Corrupt`]), or a re-spawn
    /// from a stale durable snapshot. The stabilization stopwatch restarts
    /// on such rounds, and entity conservation re-baselines (a corruption
    /// adversary / stale restore may legitimately change the population
    /// without a matching insert or consume).
    ///
    /// [`FaultKind::Corrupt`]: crate::FaultKind::Corrupt
    pub corrupted: &'a [CellId],
    /// `true` while ambient message chaos (dropped/delayed announcements)
    /// is active — the stabilization stopwatch treats such rounds as
    /// ongoing disturbance, since Lemma 6 only promises convergence once
    /// communication is reliable again.
    pub ambient_chaos: bool,
    /// Cumulative entities consumed by the target since round 0.
    pub consumed_total: u64,
    /// Cumulative entities inserted by sources since round 0.
    pub inserted_total: u64,
    /// Row-major indices (ascending) of the cells whose state may differ
    /// from the previous round's end state, fault writes included — the
    /// engine's changed slice ([`System::changed_cells`]). `None` means
    /// anything may have changed; monitors then check every cell.
    ///
    /// [`System::changed_cells`]: crate::System::changed_cells
    pub changed: Option<&'a [u32]>,
}

/// Decides, each round, which cells a caching monitor must re-check.
#[derive(Debug, Default)]
struct SliceGate {
    /// The round observed last, if any.
    last_round: Option<u64>,
}

impl SliceGate {
    /// The cells to re-check: the changed slice when the monitor's caches
    /// are `primed` (built by an earlier full pass) and this round directly
    /// follows the last one observed; every cell otherwise.
    fn scope<'a>(&mut self, ctx: &MonitorCtx<'a>, primed: bool) -> CellScope<'a> {
        let follows = self.last_round.is_some_and(|r| r + 1 == ctx.round);
        self.last_round = Some(ctx.round);
        let changed = if primed && follows { ctx.changed } else { None };
        CellScope::new(changed, ctx.state.cells.len())
    }
}

/// `cache` when it covers `n` cells, else a freshly built one — caches are
/// built on the first observation, never at construction.
fn cache_for<T>(
    cache: &mut Option<T>,
    n: usize,
    len: impl Fn(&T) -> usize,
    build: impl FnOnce() -> T,
) -> (&mut T, bool) {
    let primed = cache.as_ref().is_some_and(|c| len(c) == n);
    if !primed {
        *cache = Some(build());
    }
    (cache.as_mut().expect("cache was just ensured"), primed)
}

/// One property violation flagged by a monitor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MonitorViolation {
    /// [`Monitor::name`] of the reporting monitor.
    pub monitor: &'static str,
    /// The (1-based) round whose end state violated the property.
    pub round: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ round {}] {}", self.monitor, self.round, self.detail)
    }
}

/// An online observer of a protocol execution.
///
/// `Send` so the message-passing runtime can evaluate monitors on its
/// collector thread while node threads keep running.
pub trait Monitor: Send {
    /// Short stable identifier (used in reports and violations).
    fn name(&self) -> &'static str;

    /// Inspects one completed round; returns any violations it implies.
    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation>;

    /// One-line human-readable outcome for the final report.
    fn summary(&self) -> String;
}

/// Per-cell pass/fail flags from a monitor's per-cell check, with a count
/// of the failing cells so "any failure?" is O(1).
#[derive(Debug)]
struct CellFlags {
    flagged: Vec<bool>,
    count: usize,
}

impl CellFlags {
    fn new(n: usize) -> CellFlags {
        CellFlags {
            flagged: vec![false; n],
            count: 0,
        }
    }

    fn len(&self) -> usize {
        self.flagged.len()
    }

    fn set(&mut self, k: usize, on: bool) {
        if self.flagged[k] != on {
            self.flagged[k] = on;
            if on {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }
}

/// The [`SafetyMonitor`]'s per-cell view of the last state it checked.
#[derive(Debug)]
struct SafetyCache {
    /// Cells that break `Safe` or Invariant 1 on their own.
    bad: CellFlags,
    /// Per cell, the member ids it held when last checked.
    ids: Vec<Vec<EntityId>>,
    /// How many cells claim each entity id (Invariant 2 wants one).
    claims: HashMap<EntityId, u32>,
    /// Ids claimed by more than one cell.
    shared_ids: usize,
}

impl SafetyCache {
    fn new(n: usize) -> SafetyCache {
        SafetyCache {
            bad: CellFlags::new(n),
            ids: vec![Vec::new(); n],
            claims: HashMap::new(),
            shared_ids: 0,
        }
    }

    /// The per-cell check: re-derives cell `k`'s entries from `cell`.
    fn check(&mut self, config: &SystemConfig, k: usize, id: CellId, cell: &CellState) {
        let bad = safety::check_safe_cell(config, id, cell).is_err()
            || safety::check_invariant1_cell(config, id, cell).is_err();
        self.bad.set(k, bad);
        let ids = &mut self.ids[k];
        if ids.iter().eq(cell.members.keys()) {
            return;
        }
        for e in ids.drain(..) {
            let claims = self.claims.get_mut(&e).expect("held ids are counted");
            *claims -= 1;
            match *claims {
                0 => {
                    self.claims.remove(&e);
                }
                1 => self.shared_ids -= 1,
                _ => {}
            }
        }
        for &e in cell.members.keys() {
            let claims = self.claims.entry(e).or_insert(0);
            *claims += 1;
            if *claims == 2 {
                self.shared_ids += 1;
            }
            ids.push(e);
        }
    }
}

/// Theorem 5 safety plus Invariants 1–2, checked every round.
#[derive(Debug, Default)]
pub struct SafetyMonitor {
    rounds: u64,
    violations: u64,
    gate: SliceGate,
    cache: Option<SafetyCache>,
}

impl SafetyMonitor {
    /// A fresh monitor.
    pub fn new() -> SafetyMonitor {
        SafetyMonitor::default()
    }
}

impl Monitor for SafetyMonitor {
    fn name(&self) -> &'static str {
        "safety"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let n = ctx.state.cells.len();
        let (cache, primed) =
            cache_for(&mut self.cache, n, |c| c.bad.len(), || SafetyCache::new(n));
        let dims = ctx.config.dims();
        for k in self.gate.scope(ctx, primed) {
            cache.check(ctx.config, k, dims.id_at(k), &ctx.state.cells[k]);
        }
        let mut out = Vec::new();
        if cache.bad.count == 0 && cache.shared_ids == 0 {
            return out;
        }
        // A suspected violation: the whole-grid checkers name the first
        // offender in scan order.
        if let Err(v) = safety::check_safe(ctx.config, ctx.state) {
            out.push(MonitorViolation {
                monitor: self.name(),
                round: ctx.round,
                detail: format!("Theorem 5 violated: {v}"),
            });
        }
        if let Err(v) = safety::check_invariant1(ctx.config, ctx.state) {
            out.push(MonitorViolation {
                monitor: self.name(),
                round: ctx.round,
                detail: format!("Invariant 1 violated: {v}"),
            });
        }
        if let Err(v) = safety::check_invariant2(ctx.config, ctx.state) {
            out.push(MonitorViolation {
                monitor: self.name(),
                round: ctx.round,
                detail: format!("Invariant 2 violated: {v}"),
            });
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "safety: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// Structural routing sanity that holds in *every* reachable state,
/// stabilized or not (Figure 4's Route plus the §IV fail/recover
/// transitions):
///
/// * `next` and `signal`, when set, point at grid neighbors;
/// * the live target has `dist = 0`; no other live cell ever does;
/// * a failed cell stays pinned at `dist = ∞`, `next = ⊥` (nothing but
///   recovery may touch it).
#[derive(Debug, Default)]
pub struct RoutingMonitor {
    rounds: u64,
    violations: u64,
    gate: SliceGate,
    /// Cells whose last check flagged something.
    cache: Option<CellFlags>,
}

impl RoutingMonitor {
    /// A fresh monitor.
    pub fn new() -> RoutingMonitor {
        RoutingMonitor::default()
    }
}

/// The routing monitor's per-cell check: appends cell `id`'s violations
/// at `round` to `out`.
fn routing_faults(
    config: &SystemConfig,
    id: CellId,
    cell: &CellState,
    round: u64,
    out: &mut Vec<MonitorViolation>,
) {
    let mut flag = |detail: String| {
        out.push(MonitorViolation {
            monitor: "routing",
            round,
            detail,
        });
    };
    if cell.failed {
        if cell.dist != Dist::Infinity || cell.next.is_some() {
            flag(format!(
                "failed cell {id} not pinned: dist={:?} next={:?}",
                cell.dist, cell.next
            ));
        }
        return;
    }
    if let Some(n) = cell.next {
        if !id.is_neighbor(n) {
            flag(format!("cell {id} routes to non-neighbor {n}"));
        }
    }
    if let Some(s) = cell.signal {
        if !id.is_neighbor(s) {
            flag(format!("cell {id} grants non-neighbor {s}"));
        }
    }
    if id == config.target() {
        if cell.dist != Dist::Finite(0) {
            flag(format!(
                "live target {id} has dist {:?}, expected 0",
                cell.dist
            ));
        }
    } else if cell.dist == Dist::Finite(0) {
        flag(format!("non-target cell {id} claims dist 0"));
    }
}

/// Runs [`routing_faults`] over `cells`, refreshing their flags.
fn routing_sweep(
    ctx: &MonitorCtx<'_>,
    flags: &mut CellFlags,
    cells: CellScope<'_>,
    out: &mut Vec<MonitorViolation>,
) {
    let dims = ctx.config.dims();
    for k in cells {
        let before = out.len();
        routing_faults(
            ctx.config,
            dims.id_at(k),
            &ctx.state.cells[k],
            ctx.round,
            out,
        );
        flags.set(k, out.len() > before);
    }
}

impl Monitor for RoutingMonitor {
    fn name(&self) -> &'static str {
        "routing"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let n = ctx.state.cells.len();
        let (flags, primed) = cache_for(&mut self.cache, n, CellFlags::len, || CellFlags::new(n));
        let scope = self.gate.scope(ctx, primed);
        let full = matches!(scope, CellScope::All(_));
        let mut out = Vec::new();
        routing_sweep(ctx, flags, scope, &mut out);
        if !full && flags.count > 0 {
            // A suspected violation: the full sweep reports every flagged
            // cell in scan order.
            out.clear();
            routing_sweep(ctx, flags, CellScope::new(None, n), &mut out);
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "routing: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// Entity conservation: starting from the empty initial state, the current
/// population must equal `inserted − consumed` — transfers move entities,
/// never mint or destroy them.
///
/// Rounds with a state discontinuity ([`MonitorCtx::corrupted`]) are
/// allowed to shift the population (a stale-snapshot restore resurrects or
/// drops entities; an adversarial jostle may not, but the adversary gets
/// the benefit of the doubt for one round). The monitor *re-baselines* on
/// such rounds — recording the new offset between population and the
/// ledger — and then enforces conservation against that offset until the
/// next discontinuity. Losing entities to a fault is permitted; minting
/// them silently afterwards is still a violation.
#[derive(Debug, Default)]
pub struct ConservationMonitor {
    rounds: u64,
    violations: u64,
    offset: i64,
    gate: SliceGate,
    cache: Option<PopulationCache>,
}

/// Per-cell populations and their running total.
#[derive(Debug)]
struct PopulationCache {
    per_cell: Vec<u32>,
    total: i64,
}

impl ConservationMonitor {
    /// A fresh monitor.
    pub fn new() -> ConservationMonitor {
        ConservationMonitor::default()
    }
}

impl Monitor for ConservationMonitor {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let n = ctx.state.cells.len();
        let (cache, primed) = cache_for(
            &mut self.cache,
            n,
            |c| c.per_cell.len(),
            || PopulationCache {
                per_cell: vec![0; n],
                total: 0,
            },
        );
        for k in self.gate.scope(ctx, primed) {
            let m = ctx.state.cells[k].members.len() as u32;
            cache.total += i64::from(m) - i64::from(cache.per_cell[k]);
            cache.per_cell[k] = m;
        }
        let mut population = cache.total;
        let expected =
            (ctx.inserted_total - ctx.consumed_total.min(ctx.inserted_total)) as i64;
        if !ctx.corrupted.is_empty() {
            self.offset = population - expected;
            return Vec::new();
        }
        let mut out = Vec::new();
        if population != expected + self.offset {
            // A suspected violation: count the population from scratch.
            population = ctx.state.entity_count() as i64;
        }
        if population != expected + self.offset {
            out.push(MonitorViolation {
                monitor: self.name(),
                round: ctx.round,
                detail: format!(
                    "population {population} ≠ inserted {} − consumed {}{}",
                    ctx.inserted_total,
                    ctx.consumed_total,
                    if self.offset != 0 {
                        format!(" (fault offset {})", self.offset)
                    } else {
                        String::new()
                    }
                ),
            });
            self.violations += 1;
        }
        out
    }

    fn summary(&self) -> String {
        format!(
            "conservation: {} rounds checked, {} violations",
            self.rounds, self.violations
        )
    }
}

/// The round budget the [`StabilizationMonitor`] grants after a disturbance:
/// `2·cell_count + 2`, a conservative executable form of Lemma 6 /
/// Corollary 7's `O(N²)` routing-stabilization bound.
pub fn stabilization_bound(config: &SystemConfig) -> u64 {
    2 * config.dims().cell_count() as u64 + 2
}

/// A stopwatch for Lemma 6 / Corollary 7: after the last fault transition,
/// routing (in the sense of [`analysis::routing_stabilized`]) must
/// re-stabilize within [`stabilization_bound`] rounds. Reports at most one
/// violation per disturbance epoch.
#[derive(Debug)]
pub struct StabilizationMonitor {
    bound: u64,
    last_disturbance: u64,
    stabilized_at: Option<u64>,
    reported_epoch: bool,
    violations: u64,
    probe: Option<StabilizationProbe>,
    gate: SliceGate,
    cache: Option<RouteCache>,
}

/// The stabilization stopwatch's per-cell view: the failed set the
/// stabilized routes were derived from, those routes, and which cells
/// differ from them.
#[derive(Debug)]
struct RouteCache {
    failed: Vec<bool>,
    want: Vec<(Dist, Option<CellId>)>,
    unstable: CellFlags,
}

impl RouteCache {
    fn len(&self) -> usize {
        self.failed.len()
    }

    /// Rebuilds the failed set and the stabilized routes from `state`.
    fn rebuild(&mut self, config: &SystemConfig, state: &SystemState) {
        for (f, cell) in self.failed.iter_mut().zip(&state.cells) {
            *f = cell.failed;
        }
        self.want = analysis::stable_routes(config, state);
    }
}

/// A shared read-out of a [`StabilizationMonitor`]'s verdict, for callers
/// that hand their monitors to a runtime (which consumes them) but still
/// need the stopwatch numbers afterwards — e.g. the `cellflow stabilize`
/// certificate over a deployment run.
#[derive(Clone, Debug, Default)]
pub struct StabilizationProbe {
    inner: std::sync::Arc<std::sync::Mutex<ProbeInner>>,
}

#[derive(Clone, Copy, Debug, Default)]
struct ProbeInner {
    rounds_to_stabilize: Option<u64>,
    last_disturbance: u64,
    violations: u64,
}

impl StabilizationProbe {
    /// A fresh, unobserved probe.
    pub fn new() -> StabilizationProbe {
        StabilizationProbe::default()
    }

    /// Rounds from the last disturbance to stabilization, if the attached
    /// monitor last observed a stabilized state.
    pub fn rounds_to_stabilize(&self) -> Option<u64> {
        self.lock().rounds_to_stabilize
    }

    /// The round of the last disturbance the attached monitor saw.
    pub fn last_disturbance(&self) -> u64 {
        self.lock().last_disturbance
    }

    /// Total bound violations the attached monitor reported.
    pub fn violations(&self) -> u64 {
        self.lock().violations
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StabilizationMonitor {
    /// A stopwatch with the standard bound for `config`.
    pub fn new(config: &SystemConfig) -> StabilizationMonitor {
        StabilizationMonitor::with_bound(stabilization_bound(config))
    }

    /// A stopwatch with an explicit round budget.
    pub fn with_bound(bound: u64) -> StabilizationMonitor {
        StabilizationMonitor {
            bound,
            last_disturbance: 0,
            stabilized_at: None,
            reported_epoch: false,
            violations: 0,
            probe: None,
            gate: SliceGate::default(),
            cache: None,
        }
    }

    /// Attaches `probe`, which mirrors the stopwatch after every observed
    /// round.
    pub fn with_probe(mut self, probe: &StabilizationProbe) -> StabilizationMonitor {
        self.probe = Some(probe.clone());
        self
    }

    /// The round budget in force.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The round at which the current quiet epoch stabilized, if it has.
    pub fn stabilized_at(&self) -> Option<u64> {
        self.stabilized_at
    }

    /// Rounds from the last disturbance to stabilization, if stabilized.
    pub fn rounds_to_stabilize(&self) -> Option<u64> {
        self.stabilized_at.map(|r| r - self.last_disturbance)
    }
}

impl Monitor for StabilizationMonitor {
    fn name(&self) -> &'static str {
        "stabilization"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        if !ctx.failed.is_empty()
            || !ctx.recovered.is_empty()
            || !ctx.corrupted.is_empty()
            || ctx.ambient_chaos
        {
            // A new epoch starts; the clock restarts at this round.
            self.last_disturbance = ctx.round;
            self.stabilized_at = None;
            self.reported_epoch = false;
        }
        let n = ctx.state.cells.len();
        let (cache, primed) = cache_for(&mut self.cache, n, RouteCache::len, || RouteCache {
            failed: vec![false; n],
            want: Vec::new(),
            unstable: CellFlags::new(n),
        });
        let mut scope = self.gate.scope(ctx, primed);
        // ρ is a function of the failed set alone: rebuild it, and re-check
        // every cell against it, only when some cell's flag flipped.
        let flipped = !primed
            || scope
                .clone()
                .any(|k| ctx.state.cells[k].failed != cache.failed[k]);
        if flipped {
            cache.rebuild(ctx.config, ctx.state);
            scope = CellScope::new(None, n);
        }
        let dims = ctx.config.dims();
        for k in scope {
            let stable = analysis::cell_route_stable(
                ctx.config,
                dims.id_at(k),
                &ctx.state.cells[k],
                cache.want[k],
            );
            cache.unstable.set(k, !stable);
        }
        let out = if cache.unstable.count == 0 {
            if self.stabilized_at.is_none() {
                self.stabilized_at = Some(ctx.round);
            }
            Vec::new()
        } else {
            self.stabilized_at = None;
            let elapsed = ctx.round - self.last_disturbance;
            // A suspected violation is confirmed by the whole-grid check.
            if elapsed > self.bound
                && !self.reported_epoch
                && !analysis::routing_stabilized(ctx.config, ctx.state)
            {
                self.reported_epoch = true;
                self.violations += 1;
                vec![MonitorViolation {
                    monitor: self.name(),
                    round: ctx.round,
                    detail: format!(
                        "routing not stabilized {elapsed} rounds after the \
                         disturbance at round {} (bound {})",
                        self.last_disturbance, self.bound
                    ),
                }]
            } else {
                Vec::new()
            }
        };
        if let Some(probe) = &self.probe {
            *probe.lock() = ProbeInner {
                rounds_to_stabilize: self.rounds_to_stabilize(),
                last_disturbance: self.last_disturbance,
                violations: self.violations,
            };
        }
        out
    }

    fn summary(&self) -> String {
        match self.rounds_to_stabilize() {
            Some(rounds) => format!(
                "stabilization: stabilized {rounds} rounds after the last \
                 disturbance (bound {})",
                self.bound
            ),
            None => format!(
                "stabilization: NOT stabilized (last disturbance round {}, \
                 bound {}, {} violations)",
                self.last_disturbance, self.bound, self.violations
            ),
        }
    }
}

/// The capacity invariant, watched online: every cell's occupancy must stay
/// at or below the configured [`capacity`](SystemConfig::capacity).
///
/// A breach fires **once per violation episode**: the round a cell first
/// exceeds its capacity, not again while it stays over, and afresh if it
/// drains below and breaches anew. Overload campaigns hold cells over
/// capacity for many rounds — one violation per round would bury every
/// other monitor's output, while the episode edge is exactly the event a
/// cascade report wants to count.
#[derive(Debug)]
pub struct CapacityMonitor {
    capacity: u32,
    /// Per-cell episode latch: `true` while the cell is over capacity
    /// (built on the first observation).
    over: Option<Vec<bool>>,
    rounds: u64,
    violations: u64,
    /// Highest occupancy ever observed.
    peak: usize,
    gate: SliceGate,
}

impl CapacityMonitor {
    /// A monitor for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no capacity (there would be nothing to check).
    pub fn new(config: &SystemConfig) -> CapacityMonitor {
        CapacityMonitor {
            capacity: config
                .capacity()
                .expect("capacity monitoring requires a finite capacity"),
            over: None,
            rounds: 0,
            violations: 0,
            peak: 0,
            gate: SliceGate::default(),
        }
    }
}

impl Monitor for CapacityMonitor {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let dims = ctx.config.dims();
        let n = ctx.state.cells.len();
        let (over, primed) = cache_for(&mut self.over, n, Vec::len, || vec![false; n]);
        let mut out = Vec::new();
        // Occupancy and the latch of an unchanged cell are what they were
        // last round, so the changed cells alone yield the same breaches.
        for k in self.gate.scope(ctx, primed) {
            let occupancy = ctx.state.cells[k].members.len();
            self.peak = self.peak.max(occupancy);
            if occupancy > self.capacity as usize {
                if !over[k] {
                    over[k] = true;
                    self.violations += 1;
                    out.push(MonitorViolation {
                        monitor: "capacity",
                        round: ctx.round,
                        detail: format!(
                            "cell {} holds {occupancy} entities over capacity {}",
                            dims.id_at(k),
                            self.capacity
                        ),
                    });
                }
            } else {
                over[k] = false;
            }
        }
        out
    }

    fn summary(&self) -> String {
        format!(
            "capacity: {} rounds checked, peak occupancy {} of {}, {} breaches",
            self.rounds, self.peak, self.capacity, self.violations
        )
    }
}

/// Labels each cell with the identifier of its connected component under the
/// per-cell incoming link-cut `mask` (see
/// [`PartitionSchedule::mask_row`](crate::PartitionSchedule::mask_row)),
/// or `None` for failed cells.
///
/// Two live neighboring cells belong to the same component iff their shared
/// edge is open in **both** directions — a one-way cut already breaks the
/// request/grant handshake, so the transfer channel is down. Components are
/// numbered `0, 1, …` in cell-scan order, which makes the labeling
/// deterministic for rendering and reports.
///
/// # Panics
///
/// Panics if `mask.len()` differs from the number of cells.
pub fn component_map(
    config: &SystemConfig,
    state: &SystemState,
    mask: &[u8],
) -> Vec<Option<u32>> {
    let dims = config.dims();
    let n = dims.cell_count();
    assert_eq!(mask.len(), n, "mask row must match the grid");
    let mut comp: Vec<Option<u32>> = vec![None; n];
    let mut next_comp = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start].is_some() || state.cells[start].failed {
            continue;
        }
        let label = next_comp;
        next_comp += 1;
        comp[start] = Some(label);
        stack.push(start);
        while let Some(k) = stack.pop() {
            let id = dims.id_at(k);
            for (s, &dir) in cellflow_geom::Dir::ALL.iter().enumerate() {
                let Some(nid) = dims.neighbor(id, dir) else {
                    continue;
                };
                let nk = dims.index(nid);
                if comp[nk].is_some() || state.cells[nk].failed {
                    continue;
                }
                // k's incoming slot s faces `dir`; the neighbor hears k on
                // the opposite slot.
                let back = cellflow_geom::Dir::ALL
                    .iter()
                    .position(|&d| d == dir.opposite())
                    .expect("Dir::ALL covers every direction");
                if mask[k] & (1 << s) != 0 || mask[nk] & (1 << back) != 0 {
                    continue;
                }
                comp[nk] = Some(label);
                stack.push(nk);
            }
        }
    }
    comp
}

/// A split-brain observer for partition episodes: tracks the connected
/// components induced by a [`PartitionSchedule`](crate::PartitionSchedule),
/// re-checks Theorem 5 safety on every round an episode is active, and
/// asserts that no entity ever crosses a cut edge.
///
/// The standard suite's [`SafetyMonitor`] already checks safety every round;
/// this monitor's value is the *attribution* — its violations say "unsafe
/// **while partitioned**" and "entity crossed a **cut** edge", which is what
/// a partition campaign report needs to certify Theorem 5's
/// failure-obliviousness under link faults, not just cell crashes.
pub struct ReachabilityMonitor {
    schedule: crate::PartitionSchedule,
    /// Entity → cell of the previous observed round.
    prev: std::collections::HashMap<crate::EntityId, CellId>,
    rounds: u64,
    episode_rounds: u64,
    max_components: u32,
    violations: u64,
}

impl ReachabilityMonitor {
    /// A monitor enforcing `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for a different grid than `config`.
    pub fn new(config: &SystemConfig, schedule: crate::PartitionSchedule) -> ReachabilityMonitor {
        assert_eq!(
            schedule.dims(),
            config.dims(),
            "partition schedule and system must share a grid"
        );
        ReachabilityMonitor {
            schedule,
            prev: std::collections::HashMap::new(),
            rounds: 0,
            episode_rounds: 0,
            max_components: 0,
            violations: 0,
        }
    }

    /// The largest number of simultaneously live components observed.
    pub fn max_components(&self) -> u32 {
        self.max_components
    }

    /// How many observed rounds had at least one active cut.
    pub fn episode_rounds(&self) -> u64 {
        self.episode_rounds
    }
}

impl Monitor for ReachabilityMonitor {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        self.rounds += 1;
        let dims = ctx.config.dims();
        // `ctx.round` is 1-based; the schedule's mask rows are 0-based.
        let mask_round = ctx.round.saturating_sub(1);
        let mask = self.schedule.mask_row(mask_round);
        let active = self.schedule.active(mask_round);
        let mut out = Vec::new();

        let comp = component_map(ctx.config, ctx.state, mask);
        let components = comp.iter().flatten().copied().max().map_or(0, |m| m + 1);
        self.max_components = self.max_components.max(components);

        if active {
            self.episode_rounds += 1;
            if let Err(v) = safety::check_safe(ctx.config, ctx.state) {
                out.push(MonitorViolation {
                    monitor: self.name(),
                    round: ctx.round,
                    detail: format!("Theorem 5 violated while partitioned: {v}"),
                });
            }
        }

        // No entity may have crossed an edge whose *grant* direction is cut:
        // a mover must hear its next cell's grant that same round (the
        // request side is weaker — a standing token issued before the cut
        // may keep granting, which both executions honor).
        for (k, cell) in ctx.state.cells.iter().enumerate() {
            let here = dims.id_at(k);
            for &eid in cell.members.keys() {
                if let Some(&from) = self.prev.get(&eid) {
                    if from != here && self.schedule.is_cut(mask_round, here, from) {
                        out.push(MonitorViolation {
                            monitor: self.name(),
                            round: ctx.round,
                            detail: format!(
                                "entity {eid:?} crossed the cut edge {from} → {here}"
                            ),
                        });
                    }
                }
            }
        }
        self.prev.clear();
        for (k, cell) in ctx.state.cells.iter().enumerate() {
            let here = dims.id_at(k);
            for &eid in cell.members.keys() {
                self.prev.insert(eid, here);
            }
        }
        self.violations += out.len() as u64;
        out
    }

    fn summary(&self) -> String {
        format!(
            "reachability: {} rounds checked ({} partitioned), max {} components, {} violations",
            self.rounds, self.episode_rounds, self.max_components, self.violations
        )
    }
}

/// The standard monitor suite: safety, routing sanity, conservation, and the
/// stabilization stopwatch for `config` — plus the capacity invariant when
/// `config` gives cells a finite [`capacity`](SystemConfig::capacity)
/// (capacity-free configurations keep the original four monitors).
pub fn standard_monitors(config: &SystemConfig) -> Vec<Box<dyn Monitor>> {
    let mut monitors: Vec<Box<dyn Monitor>> = vec![
        Box::new(SafetyMonitor::new()),
        Box::new(RoutingMonitor::new()),
        Box::new(ConservationMonitor::new()),
        Box::new(StabilizationMonitor::new(config)),
    ];
    if config.capacity().is_some() {
        monitors.push(Box::new(CapacityMonitor::new(config)));
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, System, SystemConfig};
    use cellflow_grid::{CellId, GridDims};

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
    }

    fn observe_run(monitors: &mut [Box<dyn Monitor>], rounds: u64) -> Vec<MonitorViolation> {
        let mut sys = System::new(config());
        let mut all = Vec::new();
        for _ in 0..rounds {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: sys.changed_cells(),
            };
            for m in monitors.iter_mut() {
                all.extend(m.observe(&ctx));
            }
        }
        all
    }

    /// Corrupts a clean state in one monitor's domain.
    type Damage = fn(&mut SystemState, GridDims);

    /// Damage each standard monitor must catch, by monitor name.
    fn damages() -> [(&'static str, Damage); 5] {
        [
            ("safety", |s, dims| {
                let c = s.cell_mut(dims, CellId::new(1, 1));
                c.members
                    .insert(crate::EntityId(900), CellId::new(1, 1).center());
                c.members
                    .insert(crate::EntityId(901), CellId::new(1, 1).center());
            }),
            ("routing", |s, dims| {
                s.cell_mut(dims, CellId::new(1, 1)).dist = Dist::Finite(0);
            }),
            ("conservation", |s, dims| {
                let at = CellId::new(1, 1).center();
                s.cell_mut(dims, CellId::new(1, 1))
                    .members
                    .insert(crate::EntityId(900), at);
            }),
            ("stabilization", |s, dims| {
                s.cell_mut(dims, CellId::new(1, 1)).dist = Dist::Finite(9);
            }),
            ("capacity", |s, dims| {
                let at = CellId::new(1, 1).center();
                let above = at.translate(
                    cellflow_geom::Dir::North,
                    cellflow_geom::Fixed::from_milli(300),
                );
                let c = s.cell_mut(dims, CellId::new(1, 1));
                c.members.insert(crate::EntityId(900), at);
                c.members.insert(crate::EntityId(901), above);
            }),
        ]
    }

    /// A monitor may only trust a slice that continues the round it saw
    /// last, after a full pass: damage that lands in a skipped round, or
    /// before a monitor's first observation, is absent from the slice it
    /// is handed, and must still be reported.
    #[test]
    fn skipped_rounds_and_cold_monitors_fall_back_to_full_passes() {
        let cfg = SystemConfig::new(
            GridDims::square(4),
            CellId::new(3, 3),
            Params::from_milli(250, 50, 100).unwrap(),
        )
        .unwrap()
        .with_capacity(1);
        let dims = cfg.dims();
        let mut sys = System::new(cfg.clone());
        sys.run(10);
        let clean = sys.state().clone();
        assert!(analysis::routing_stabilized(&cfg, &clean));
        fn ctx<'a>(
            config: &'a SystemConfig,
            state: &'a SystemState,
            round: u64,
            changed: Option<&'a [u32]>,
        ) -> MonitorCtx<'a> {
            MonitorCtx {
                config,
                state,
                round,
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: 0,
                inserted_total: 0,
                changed,
            }
        }
        let monitor = |name: &str| -> Box<dyn Monitor> {
            if name == "stabilization" {
                return Box::new(StabilizationMonitor::with_bound(0));
            }
            standard_monitors(&cfg)
                .into_iter()
                .find(|m| m.name() == name)
                .expect("a standard monitor")
        };
        let nothing: &[u32] = &[];
        for (name, damage) in damages() {
            let mut bad = clean.clone();
            damage(&mut bad, dims);

            let mut cold = monitor(name);
            let seen = cold.observe(&ctx(&cfg, &bad, 1, Some(nothing)));
            assert!(!seen.is_empty(), "{name}: a cold monitor trusted the slice");

            let mut gap = monitor(name);
            assert!(
                gap.observe(&ctx(&cfg, &clean, 1, None)).is_empty(),
                "{name}"
            );
            assert!(
                gap.observe(&ctx(&cfg, &clean, 2, Some(nothing))).is_empty(),
                "{name}"
            );
            // Round 3 is never observed; the damage lands in it.
            let seen = gap.observe(&ctx(&cfg, &bad, 4, Some(nothing)));
            assert!(
                !seen.is_empty(),
                "{name}: damage in a skipped round went unseen"
            );
        }
    }

    #[test]
    fn clean_run_fires_no_monitor() {
        let cfg = config();
        let mut monitors = standard_monitors(&cfg);
        let violations = observe_run(&mut monitors, 60);
        assert_eq!(violations, Vec::new());
        for m in &monitors {
            assert!(m.summary().contains("0 violations") || m.name() == "stabilization");
        }
    }

    #[test]
    fn safety_monitor_flags_seeded_overlap() {
        let mut sys = System::new(config());
        // Bypass the protocol: plant two coincident entities by hand.
        let dims = sys.config().dims();
        let cell = CellId::new(1, 1);
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(900), cell.center());
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(901), cell.center());
        sys.set_state(state);
        let mut m = SafetyMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.state(),
            round: 1,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 2,
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("Theorem 5"));
        assert!(m.summary().contains("1 violations"));
        assert!(vs[0].to_string().contains("safety"));
    }

    #[test]
    fn routing_monitor_flags_corrupted_pointer() {
        let sys = System::new(config());
        let dims = sys.config().dims();
        let mut state = sys.state().clone();
        // ⟨0,0⟩ pointing at the far corner is never a legal route pointer.
        state.cell_mut(dims, CellId::new(0, 0)).next = Some(CellId::new(3, 3));
        let mut m = RoutingMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: &state,
            round: 3,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 0,
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("non-neighbor"));
    }

    #[test]
    fn conservation_monitor_flags_count_mismatch() {
        let sys = System::new(config());
        let mut m = ConservationMonitor::new();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.state(),
            round: 1,
            failed: &[],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: 5, // claims 5 inserted but the state is empty
            changed: None,
        };
        let vs = m.observe(&ctx);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("population"));
    }

    #[test]
    fn stabilization_stopwatch_restarts_on_disturbance() {
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        let mut m = StabilizationMonitor::new(&cfg);
        assert_eq!(m.bound(), 2 * 16 + 2);
        // Quiet start: stabilizes well within the bound.
        for _ in 0..10 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            assert_eq!(m.observe(&ctx), Vec::new());
        }
        assert!(m.rounds_to_stabilize().is_some());
        // A crash restarts the clock.
        let victim = CellId::new(2, 2);
        sys.fail(victim);
        sys.step();
        let ctx = MonitorCtx {
            config: sys.config(),
            state: sys.state(),
            round: sys.round(),
            failed: &[victim],
            recovered: &[],
            corrupted: &[],
            ambient_chaos: false,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: None,
        };
        m.observe(&ctx);
        assert_eq!(m.stabilized_at().is_some(), {
            // Whatever the immediate verdict, the epoch must have restarted.
            self::analysis::routing_stabilized(sys.config(), sys.state())
        });
        assert!(m.summary().contains("bound 34"));
    }

    #[test]
    fn stabilization_stopwatch_fires_past_bound() {
        // A tight artificial bound of 1 must fire on the unstabilized start.
        let mut m = StabilizationMonitor::with_bound(1);
        let mut sys = System::new(config());
        let mut fired = Vec::new();
        for _ in 0..4 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            fired.extend(m.observe(&ctx));
        }
        // Fires exactly once per epoch, not once per late round.
        assert_eq!(fired.len(), 1);
        assert!(fired[0].detail.contains("bound 1"));
    }

    #[test]
    fn conservation_rebaselines_on_corrupted_rounds() {
        let sys = System::new(config());
        let mut m = ConservationMonitor::new();
        let ctx = |round, corrupted: &'static [CellId], inserted| MonitorCtx {
            config: sys.config(),
            state: sys.state(),
            round,
            failed: &[],
            recovered: &[],
            corrupted,
            ambient_chaos: false,
            consumed_total: 0,
            inserted_total: inserted,
            changed: None,
        };
        static VICTIM: [CellId; 1] = [CellId::new(1, 1)];
        // Discontinuity round: the ledger says 3, the state holds 0. The
        // monitor re-baselines instead of firing.
        assert_eq!(m.observe(&ctx(1, &VICTIM, 3)), Vec::new());
        // Quiet rounds hold against the recorded offset of −3.
        assert_eq!(m.observe(&ctx(2, &[], 3)), Vec::new());
        // A later ledger shift without a discontinuity still fires.
        let vs = m.observe(&ctx(3, &[], 2));
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("fault offset -3"));
    }

    #[test]
    fn stabilization_restarts_on_corruption_and_probe_mirrors() {
        let cfg = config();
        let probe = StabilizationProbe::new();
        let mut m = StabilizationMonitor::new(&cfg).with_probe(&probe);
        let mut sys = System::new(cfg);
        for _ in 0..10 {
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            m.observe(&ctx);
        }
        assert!(probe.rounds_to_stabilize().is_some());
        assert_eq!(probe.violations(), 0);
        // A corruption restarts the epoch clock, mirrored by the probe.
        sys.step();
        let disturbed = MonitorCtx {
            config: sys.config(),
            state: sys.state(),
            round: sys.round(),
            failed: &[],
            recovered: &[],
            corrupted: &[CellId::new(2, 2)],
            ambient_chaos: false,
            consumed_total: sys.consumed_total(),
            inserted_total: sys.inserted_total(),
            changed: None,
        };
        m.observe(&disturbed);
        assert_eq!(probe.last_disturbance(), sys.round());
    }

    #[test]
    fn component_map_tracks_splits_and_failed_cells() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        // No cuts: one component covering all 16 cells.
        let comp = component_map(&cfg, sys.state(), &[0; 16]);
        assert!(comp.iter().all(|c| *c == Some(0)));
        // Split before column 2: exactly two components, divided on `i`.
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .split_col(2, 0, None)
            .expand(1);
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        for (k, c) in comp.iter().enumerate() {
            let id = cfg.dims().id_at(k);
            assert_eq!(*c, Some(u32::from(id.i() >= 2)), "cell {id}");
        }
        // A failed cell is in no component.
        sys.fail(CellId::new(0, 0));
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        assert_eq!(comp[cfg.dims().index(CellId::new(0, 0))], None);
        // A one-way cut alone already severs the component edge.
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .cut(CellId::new(0, 3), CellId::new(1, 3), 0, None)
            .expand(1);
        let comp = component_map(&cfg, sys.state(), schedule.mask_row(0));
        // The grid minus that edge is still connected elsewhere, so still
        // one component — but the edge itself must not be what connects it.
        assert_eq!(comp.iter().flatten().max(), Some(&0));
    }

    #[test]
    fn reachability_monitor_attributes_partition_rounds() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(2, 5, Some(20));
        let schedule = plan.expand(40);
        let mut m = ReachabilityMonitor::new(&cfg, schedule.clone());
        let mut sys = System::new(cfg.clone());
        for round in 0..40u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round: sys.round(),
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: schedule.active(round),
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            assert_eq!(m.observe(&ctx), Vec::new(), "round {round}");
        }
        assert_eq!(m.max_components(), 2);
        assert_eq!(m.episode_rounds(), 15);
        assert!(m.summary().contains("max 2 components"));
    }

    #[test]
    fn reachability_monitor_flags_entity_crossing_a_cut() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let schedule = PartitionPlan::for_grid(cfg.dims())
            .split_col(2, 0, None)
            .expand(10);
        let mut m = ReachabilityMonitor::new(&cfg, schedule);
        let mut sys = System::new(cfg.clone());
        let eid = sys
            .seed_entity(CellId::new(1, 1), CellId::new(1, 1).center())
            .unwrap();
        let observe = |m: &mut ReachabilityMonitor, sys: &System, round| {
            m.observe(&MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round,
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: true,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            })
        };
        assert_eq!(observe(&mut m, &sys, 1), Vec::new());
        // Teleport the entity across the cut by hand: ⟨1,1⟩ → ⟨2,1⟩.
        let dims = cfg.dims();
        let mut state = sys.state().clone();
        let pos = state
            .cell_mut(dims, CellId::new(1, 1))
            .members
            .remove(&eid)
            .unwrap();
        let _ = pos;
        state
            .cell_mut(dims, CellId::new(2, 1))
            .members
            .insert(eid, CellId::new(2, 1).center());
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 2);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("crossed the cut edge"));
    }

    #[test]
    fn capacity_monitor_fires_once_per_violation_episode() {
        let cfg = config().with_capacity(2);
        let mut sys = System::new(cfg.clone());
        let dims = cfg.dims();
        let cell = CellId::new(1, 1);
        let mut m = CapacityMonitor::new(&cfg);
        let observe = |m: &mut CapacityMonitor, sys: &System, round: u64| {
            let ctx = MonitorCtx {
                config: sys.config(),
                state: sys.state(),
                round,
                failed: &[],
                recovered: &[],
                corrupted: &[],
                ambient_chaos: false,
                consumed_total: sys.consumed_total(),
                inserted_total: sys.inserted_total(),
                changed: None,
            };
            m.observe(&ctx)
        };

        // Round 1: push the cell one over capacity — exactly one violation.
        let mut state = sys.state().clone();
        for e in 0..3u64 {
            state
                .cell_mut(dims, cell)
                .members
                .insert(crate::EntityId(900 + e), cell.center());
        }
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 1);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("over capacity 2"));

        // Rounds 2-4: still over capacity — the episode latch stays set.
        for round in 2..5 {
            assert_eq!(observe(&mut m, &sys, round), Vec::new());
        }

        // Round 5: drain below capacity — no violation, latch clears.
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .remove(&crate::EntityId(902));
        sys.set_state(state);
        assert_eq!(observe(&mut m, &sys, 5), Vec::new());

        // Round 6: breach anew — a fresh episode fires a second violation.
        let mut state = sys.state().clone();
        state
            .cell_mut(dims, cell)
            .members
            .insert(crate::EntityId(903), cell.center());
        sys.set_state(state);
        let vs = observe(&mut m, &sys, 6);
        assert_eq!(vs.len(), 1);
        assert!(m.summary().contains("2 breaches"));
    }
}
