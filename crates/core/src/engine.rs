//! The zero-clone round engine: a flat, arena-backed implementation of the
//! atomic `update` transition.
//!
//! The pure three-phase functions ([`route_phase`](crate::route_phase),
//! [`signal_phase`](crate::signal_phase), [`move_phase`](crate::move_phase))
//! are the *specification*: they mirror the paper's Figures 4–6 line by line
//! and keep Lemma 3's intermediate states `xR`, `xS` observable, but each
//! clones the full [`SystemState`] (three `O(cells · log)` allocation storms
//! per round). This module implements the *same transition relation* on a
//! flat representation tuned for throughput:
//!
//! * cell protocol registers live in a contiguous `Vec<CellCore>` (a `Copy`
//!   struct — no `BTreeSet`/`BTreeMap` per cell);
//! * `NEPrev` is a 4-bit neighbor mask over [`Dir::ALL`] instead of a
//!   `BTreeSet<CellId>`;
//! * entities are per-cell `Vec<(EntityId, Point)>` arenas kept sorted by
//!   identifier (matching `BTreeMap` iteration order);
//! * neighbor arena indices come from a [`NeighborTable`] precomputed once
//!   per configuration (cached on [`SystemConfig`], shared via `Arc`);
//! * `Route` writes into a second buffer which then *swaps* with the first
//!   (it reads neighbor distances, so it cannot run in place), while
//!   `Signal` and `Move` are aliasing-safe in place: `Signal` writes only a
//!   cell's own `ne_prev`/`token`/`signal` and reads neighbors' `next` and
//!   members (which it never writes); `Move` defers cross-cell arrivals to a
//!   reusable `incoming` scratch exactly like the reference.
//!
//! A steady-state [`Engine::step`] therefore performs **zero heap
//! allocation**: every buffer is reused, and the only allocations ever made
//! are capacity growth while entity counts or event volumes are still
//! ramping up. The engine counts those growth events
//! ([`Engine::alloc_events`]) so benchmarks and tests can assert the
//! steady-state claim mechanically.
//!
//! On top of the flat layout, the engine schedules rounds **sparsely** by
//! default ([`ExecMode::Sparse`]): per-round dirty tracking (distance
//! updates, occupancy flips, sticky signal registers, link-cut diffs,
//! fault/corruption point writes via [`Engine::load_cell`]) shrinks each
//! phase's sweep to the cells whose inputs changed, so a quiescent region
//! costs O(active), not O(N). Every scheduler set is a two-level bitmap
//! (one bit per cell, one summary bit per nonzero 64-cell word) whose scan
//! yields the phase's work list already in ascending row-major order in
//! O(len + N/4096) — the dense sweep's order, with no sort. When an active
//! list is long enough the phase fans out to worker threads over
//! contiguous bands of the sorted list ([`Engine::set_workers`]) with
//! results applied in band order — bit- and event-identical to the
//! sequential sweep. The dense mode remains available as the reference and
//! benchmark baseline.
//!
//! Equivalence with the pure phases — identical successor state *and*
//! identical [`RoundEvents`], per round, under crashes, recoveries and
//! corruptions — is enforced by `tests/engine_differential.rs` at the
//! workspace root, and sparse/sharded vs dense by
//! `tests/sparse_differential.rs`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use cellflow_geom::{sep_ok, Dir, Point};
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;
use cellflow_telemetry::{PhaseTimers, SchedulerMetrics};

use crate::signal::gap_free_toward;
use crate::{
    CellState, EntityId, Params, RoundEvents, SystemConfig, SystemState, TokenPolicy, Transfer,
};

/// Sentinel for "no neighbor in this direction" in [`NeighborTable`].
const NO_NBR: u32 = u32::MAX;

/// Slot order that visits a cell's neighbors in ascending `CellId` order.
///
/// Slots index [`Dir::ALL`] = `[East, West, North, South]`; `CellId`'s
/// derived ordering is lexicographic `(i, j)`, so for cell `⟨i,j⟩` the sorted
/// neighbor order is `W ⟨i−1,j⟩ < S ⟨i,j−1⟩ < N ⟨i,j+1⟩ < E ⟨i+1,j⟩`.
const SORTED_SLOTS: [usize; 4] = [1, 3, 2, 0];

/// Default active-list length below which sharded phases stay sequential:
/// spawning scoped workers costs tens of microseconds, so fan-out only pays
/// off once a phase has a few thousand cells to chew through.
const DEFAULT_SHARD_MIN: usize = 4096;

/// Precomputed grid topology: per-cell neighbor arena indices and
/// identifiers in [`Dir::ALL`] slot order, plus the target's arena index.
///
/// Built once per configuration and cached on
/// [`SystemConfig::topology`], so no phase ever recomputes
/// neighbor identifiers or row-major indices round over round.
pub struct NeighborTable {
    /// `CellId` of each arena index (row-major, [`GridDims::index`] order).
    ids: Vec<CellId>,
    /// Per cell, the arena index of the neighbor in each [`Dir::ALL`] slot
    /// (`NO_NBR` where the direction leaves the grid).
    nbr_idx: Vec<[u32; 4]>,
    /// Per cell, the neighbor `CellId` per slot (valid iff `nbr_idx` is).
    nbr_id: Vec<[CellId; 4]>,
    /// Arena index of the target cell.
    target_index: usize,
}

impl NeighborTable {
    /// Builds the table for `dims` with the given target cell.
    pub fn new(dims: GridDims, target: CellId) -> NeighborTable {
        let n = dims.cell_count();
        let mut ids = Vec::with_capacity(n);
        let mut nbr_idx = Vec::with_capacity(n);
        let mut nbr_id = Vec::with_capacity(n);
        for k in 0..n {
            let id = dims.id_at(k);
            ids.push(id);
            let mut idxs = [NO_NBR; 4];
            let mut cids = [id; 4];
            for (s, &dir) in Dir::ALL.iter().enumerate() {
                if let Some(nbr) = dims.neighbor(id, dir) {
                    idxs[s] = dims.index(nbr) as u32;
                    cids[s] = nbr;
                }
            }
            nbr_idx.push(idxs);
            nbr_id.push(cids);
        }
        NeighborTable {
            ids,
            nbr_idx,
            nbr_id,
            target_index: dims.index(target),
        }
    }

    /// The `CellId` at arena index `k`.
    pub fn id_at(&self, k: usize) -> CellId {
        self.ids[k]
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for an empty grid (never happens for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl std::fmt::Debug for NeighborTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborTable")
            .field("cells", &self.ids.len())
            .field("target_index", &self.target_index)
            .finish()
    }
}

/// One cell's protocol registers in flat form — everything from
/// [`CellState`](crate::CellState) except the member map, with `NEPrev`
/// packed into a 4-bit mask over [`Dir::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCore {
    /// Estimated hop distance to the target (`dist`).
    pub dist: Dist,
    /// Routing successor (`next`).
    pub next: Option<CellId>,
    /// Current token holder (`token`).
    pub token: Option<CellId>,
    /// Granted neighbor this round (`signal`).
    pub signal: Option<CellId>,
    /// `NEPrev` as a bitmask: bit `s` set ⇔ the neighbor in `Dir::ALL[s]`
    /// is a nonempty predecessor.
    pub ne_mask: u8,
    /// The §IV crash flag.
    pub failed: bool,
}

impl Default for CellCore {
    /// Matches [`CellState::initial`](crate::CellState::initial).
    fn default() -> CellCore {
        CellCore {
            dist: Dist::Infinity,
            next: None,
            token: None,
            signal: None,
            ne_mask: 0,
            failed: false,
        }
    }
}

/// How [`Engine::step`] executes a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Recompute every cell every round — the PR 3 baseline, O(N) per round
    /// regardless of activity. Kept as the differential and benchmark
    /// reference.
    Dense,
    /// Active-set scheduling (the default): `Route`/`Signal`/`Move` run only
    /// on cells whose inputs changed since they last ran, so quiescent
    /// regions cost nothing. State- and event-identical to [`ExecMode::Dense`]
    /// — see the invariant notes on [`Sched`] and the differential suite in
    /// `tests/sparse_differential.rs`.
    Sparse,
}

/// A cell set kept as a two-level bitmap: `bits` holds one bit per cell and
/// `summary` one bit per nonzero `bits` word. Insertion is two ORs; clearing
/// and the ascending scan visit only the summary and the words it selects,
/// so both cost O(len + cells/4096) and the work lists come out sorted
/// without a sort.
#[derive(Clone, Debug)]
struct MarkSet {
    cells: usize,
    bits: Vec<u64>,
    summary: Vec<u64>,
    /// The members in ascending order, as of the last [`MarkSet::scan`].
    list: Vec<u32>,
}

impl MarkSet {
    fn with_cells(n: usize) -> MarkSet {
        let words = n.div_ceil(64);
        MarkSet {
            cells: n,
            bits: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            list: Vec::new(),
        }
    }

    /// Empties the set, zeroing only the words the summary selects; list
    /// capacity is retained.
    fn begin(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut sel = std::mem::take(s);
            while sel != 0 {
                self.bits[si * 64 + sel.trailing_zeros() as usize] = 0;
                sel &= sel - 1;
            }
        }
        self.list.clear();
    }

    fn insert(&mut self, k: u32) {
        let w = k as usize / 64;
        self.bits[w] |= 1 << (k % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Inserts every cell — the conservative reset after anything that may
    /// have rewritten arbitrary registers (`load_state`, a mode switch).
    fn fill_all(&mut self) {
        self.bits.fill(!0);
        self.summary.fill(!0);
        if let Some(last) = self.bits.last_mut() {
            *last >>= (64 - self.cells % 64) % 64;
        }
        if let Some(last) = self.summary.last_mut() {
            *last >>= (64 - self.bits.len() % 64) % 64;
        }
    }

    /// Visits the members in ascending order and drops each one `keep`
    /// rejects.
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut sel = *s;
            while sel != 0 {
                let wi = si * 64 + sel.trailing_zeros() as usize;
                sel &= sel - 1;
                let mut w = self.bits[wi];
                let mut kept = w;
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    if !keep(wi as u32 * 64 + b) {
                        kept &= !(1 << b);
                    }
                }
                self.bits[wi] = kept;
                if kept == 0 {
                    *s &= !(1 << (wi % 64));
                }
            }
        }
    }

    /// Rebuilds `list` from the members `keep` accepts (dropping the rest),
    /// in ascending order.
    fn scan_retain(&mut self, mut keep: impl FnMut(u32) -> bool, allocs: &mut u64) {
        let mut list = std::mem::take(&mut self.list);
        list.clear();
        self.retain(|k| {
            let kept = keep(k);
            if kept {
                push_tracked(&mut list, k, allocs);
            }
            kept
        });
        self.list = list;
    }

    /// Rebuilds `list` as every member in ascending order.
    fn scan(&mut self, allocs: &mut u64) {
        self.scan_retain(|_| true, allocs);
    }
}

/// `|a ∪ b ∪ c|`, reading only the words the summaries select.
fn union_len(a: &MarkSet, b: &MarkSet, c: &MarkSet) -> usize {
    let mut len = 0;
    for si in 0..a.summary.len() {
        let mut sel = a.summary[si] | b.summary[si] | c.summary[si];
        while sel != 0 {
            let wi = si * 64 + sel.trailing_zeros() as usize;
            sel &= sel - 1;
            len += (a.bits[wi] | b.bits[wi] | c.bits[wi]).count_ones() as usize;
        }
    }
    len
}

/// The cells a slice consumer must visit: an explicit changed slice, or
/// every index `0..n` when the slice is `None` ("anything may have
/// changed"). Yields row-major indices in ascending order either way.
#[derive(Clone, Debug)]
pub(crate) enum CellScope<'a> {
    /// Every cell.
    All(std::ops::Range<usize>),
    /// Only the listed cells.
    Changed(std::slice::Iter<'a, u32>),
}

impl<'a> CellScope<'a> {
    /// The scope `changed` describes on an `n`-cell grid.
    pub(crate) fn new(changed: Option<&'a [u32]>, n: usize) -> CellScope<'a> {
        match changed {
            None => CellScope::All(0..n),
            Some(slice) => CellScope::Changed(slice.iter()),
        }
    }
}

impl Iterator for CellScope<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            CellScope::All(range) => range.next(),
            CellScope::Changed(it) => it.next().map(|&k| k as usize),
        }
    }
}

/// `Signal`'s per-cell result: the three registers Figure 5 writes back.
#[derive(Clone, Copy, Debug)]
struct SigOut {
    mask: u8,
    token: Option<CellId>,
    signal: Option<CellId>,
}

/// One shard worker's `Route` output: `(cell, dist, next)` for cells whose
/// routed registers actually changed.
#[derive(Clone, Debug, Default)]
struct RouteBand {
    upd: Vec<(u32, Dist, Option<CellId>)>,
    allocs: u64,
}

/// One shard worker's `Signal` output, in ascending cell order.
#[derive(Clone, Debug, Default)]
struct SigBand {
    out: Vec<(u32, SigOut)>,
    allocs: u64,
}

/// One shard worker's `Move` output: events and deferred arrivals.
/// Bands are merged in ascending band order, which restores the exact
/// row-major event record the sequential sweep produces.
#[derive(Clone, Debug, Default)]
struct MoveOut {
    moved: Vec<CellId>,
    consumed: Vec<EntityId>,
    transfers: Vec<Transfer>,
    incoming: Vec<(u32, EntityId, Point)>,
    allocs: u64,
}

/// Where `Move`'s per-cell kernel writes: either the engine's own event
/// buffers (sequential sweeps) or a per-band [`MoveOut`] (shard workers).
struct MoveSink<'a> {
    moved: &'a mut Vec<CellId>,
    consumed: &'a mut Vec<EntityId>,
    transfers: &'a mut Vec<Transfer>,
    incoming: &'a mut Vec<(u32, EntityId, Point)>,
    allocs: &'a mut u64,
}

/// Per-worker scratch buffers for sharded phases, kept allocated between
/// rounds. Band 0 doubles as the sequential sparse path's scratch.
#[derive(Clone, Debug)]
struct ShardScratch {
    route: Vec<RouteBand>,
    sig: Vec<SigBand>,
    mv: Vec<MoveOut>,
}

impl ShardScratch {
    fn with_bands(n: usize) -> ShardScratch {
        ShardScratch {
            route: vec![RouteBand::default(); n],
            sig: vec![SigBand::default(); n],
            mv: vec![MoveOut::default(); n],
        }
    }
}

/// The active-set scheduler's state. The correctness invariant, per phase:
/// a cell may be skipped only if re-running the phase on it would write back
/// exactly the registers it already holds and emit no event. Concretely:
///
/// * **Route** — a cell's routed `(dist, next)` is a pure function of its
///   neighbors' `dist`, its own `failed` flag and its incoming-cut mask, so
///   `route_now` holds every cell for which any of those changed since it
///   last ran (neighbor dist writes mark neighbors; cut diffs mark the
///   reading cell; a [`Engine::load_cell`] point write marks the cell and
///   its neighbors; a wholesale [`Engine::load_state`] marks everything).
/// * **Signal** — a skipped cell must be *idle*: registers `(0, ⊥, ⊥)` and
///   no requester. Any cell that finishes `Signal` with a nonzero register
///   re-marks itself ("sticky"); requester appearance is covered by
///   occupancy flips and `next` changes, both of which mark the four
///   neighbors of the changed cell.
/// * **Move** — only nonempty cells move, so the sweep list is exactly the
///   incrementally-maintained occupancy set.
/// * **Pressure** — the leaky integrator is zero and stays zero outside
///   `pressured` (cells with nonzero pressure or members).
///
/// A skipped cell reads exactly like footnote 1's silent-but-correct
/// neighbor: its `dist`/`next`/`signal` announcements are whatever it last
/// wrote, which is precisely what a dense round would have rewritten
/// unchanged.
#[derive(Clone, Debug)]
struct Sched {
    /// Cells whose `Route` inputs changed: recompute this round.
    route_now: MarkSet,
    /// `Route` dirty marks accumulating for the next round.
    route_next: MarkSet,
    /// Cells whose `Signal` must run this round.
    sig_now: MarkSet,
    /// `Signal` marks accumulating for the next round (sticky cells,
    /// occupancy flips, cut diffs).
    sig_next: MarkSet,
    /// Every nonempty cell (plus cells that drained since `Move` last
    /// scanned it, which that scan drops): after the scan, `occupied.list`
    /// is the `Move` work list.
    occupied: MarkSet,
    /// Cells with nonzero pressure or members — everywhere else the
    /// integrator is 0 and `⌊0/2⌋ + 0 = 0`, so skipping is exact.
    pressured: MarkSet,
    /// Distinct cells any phase ran on in the most recent round.
    last_active: usize,
    /// Run the next round on full sets (construction, `load_state`, mode
    /// switches — anything that may have rewritten arbitrary registers).
    mark_all: bool,
}

impl Sched {
    fn with_cells(n: usize) -> Sched {
        Sched {
            route_now: MarkSet::with_cells(n),
            route_next: MarkSet::with_cells(n),
            sig_now: MarkSet::with_cells(n),
            sig_next: MarkSet::with_cells(n),
            occupied: MarkSet::with_cells(n),
            pressured: MarkSet::with_cells(n),
            last_active: n,
            mark_all: true,
        }
    }
}

/// The sorted (ascending `CellId`) neighbor candidates selected by `mask` on
/// cell `k`.
fn candidates_of(topo: &NeighborTable, k: usize, mask: u8) -> ([CellId; 4], usize) {
    let mut cands = [topo.ids[k]; 4];
    let mut cn = 0;
    for &s in &SORTED_SLOTS {
        if mask & (1 << s) != 0 {
            cands[cn] = topo.nbr_id[k][s];
            cn += 1;
        }
    }
    (cands, cn)
}

/// `Route`'s per-cell kernel (Figure 4) for a non-failed, non-target cell:
/// the `argmin (dist, id)` over readable neighbors, visited in
/// ascending-`CellId` order ([`SORTED_SLOTS`]) with strict-`<` keep-first
/// replacement so the id tie-break never has to run. A cut slot reads as a
/// silent neighbor: `dist = ∞`.
fn route_core(
    topo: &NeighborTable,
    front: &[CellCore],
    cut: u8,
    cap: u32,
    k: usize,
) -> (Dist, Option<CellId>) {
    let nbr_idx = &topo.nbr_idx[k];
    let mut best = Dist::Infinity;
    // 4 = "no finite-distance neighbor": both the zero-neighbor case and the
    // all-∞ case produce (∞, ⊥), exactly like the kernel.
    let mut best_slot = 4usize;
    for &s in &SORTED_SLOTS {
        let ni = nbr_idx[s];
        if ni == NO_NBR || cut & (1 << s) != 0 {
            continue;
        }
        let d = front[ni as usize].dist;
        if d < best {
            best = d;
            best_slot = s;
        }
    }
    if best_slot < 4 {
        let dist = best.succ(cap);
        let next = if dist.is_finite() {
            Some(topo.nbr_id[k][best_slot])
        } else {
            None
        };
        (dist, next)
    } else {
        (Dist::Infinity, None)
    }
}

/// `Signal`'s per-cell kernel (Figure 5) for a non-failed cell: computes the
/// requester mask and the token/signal decision without writing anything, so
/// shard workers can run it concurrently against the shared `front`.
#[allow(clippy::too_many_arguments)]
fn signal_core(
    topo: &NeighborTable,
    front: &[CellCore],
    members: &[Vec<(EntityId, Point)>],
    cut: u8,
    params: Params,
    policy: TokenPolicy,
    round: u64,
    k: usize,
) -> SigOut {
    let id = topo.ids[k];
    let nbr_idx = &topo.nbr_idx[k];
    let mut mask = 0u8;
    for (s, &ni) in nbr_idx.iter().enumerate() {
        // A cut slot's request announcement never arrives.
        if ni == NO_NBR || cut & (1 << s) != 0 {
            continue;
        }
        let ni = ni as usize;
        if front[ni].next == Some(id) && !members[ni].is_empty() {
            mask |= 1 << s;
        }
    }

    let mut token = front[k].token;
    // A transient fault may have left a non-neighbor in the token register;
    // treat it as ⊥ so `Signal` self-stabilizes instead of trusting the
    // corrupted value.
    if token.is_some_and(|t| !id.is_neighbor(t)) {
        token = None;
    }

    // Idle fast path: no requester and no token means `choose_from` on an
    // empty candidate set — ⊥ token, ⊥ signal, no event. Most of a
    // steady-state grid takes this exit; the sparse scheduler's skip
    // condition is exactly "this exit would run and the registers already
    // hold its output".
    if mask == 0 && token.is_none() {
        return SigOut {
            mask: 0,
            token: None,
            signal: None,
        };
    }

    let (cands, cn) = candidates_of(topo, k, mask);
    let cands = &cands[..cn];

    if token.is_none() {
        token = policy.choose_from(cands, id, round);
    }

    let (signal, new_token) = match token {
        None => (None, None),
        Some(tok) => {
            let dir = id
                .dir_to(tok)
                .expect("token is always one of the cell's neighbors");
            if gap_free_toward(params, id, dir, members[k].iter().map(|e| &e.1)) {
                let rotated = if cn > 1 {
                    policy.rotate_from(cands, tok, id, round)
                } else if cn == 1 {
                    Some(cands[0])
                } else {
                    None
                };
                (Some(tok), rotated)
            } else {
                (None, Some(tok))
            }
        }
    };

    SigOut {
        mask,
        token: new_token,
        signal,
    }
}

/// `Move`'s per-cell kernel (Figure 6): advances `members_k`, emitting
/// events and deferred cross-cell arrivals into `out`. All permission reads
/// (`signal`, `failed`) come from registers `Move` never writes, and the
/// only mutation is the cell's own member arena — which is why disjoint
/// bands of cells can run concurrently.
fn move_cell_into(
    config: &SystemConfig,
    topo: &NeighborTable,
    front: &[CellCore],
    link_cuts: &[u8],
    members_k: &mut Vec<(EntityId, Point)>,
    k: usize,
    out: &mut MoveSink<'_>,
) {
    let c = front[k];
    if c.failed || members_k.is_empty() {
        return;
    }
    let Some(nx) = c.next else { return };
    let id = topo.ids[k];
    let dir = id.dir_to(nx).expect("next is always a neighbor");
    if !link_cuts.is_empty() {
        let s = Dir::ALL
            .iter()
            .position(|&d| d == dir)
            .expect("Dir::ALL covers every direction");
        // The grant announcement from a cut neighbor never arrives: the cell
        // reads signal = ⊥ and stays put.
        if link_cuts[k] & (1 << s) != 0 {
            return;
        }
    }
    let dims = config.dims();
    let params = config.params();
    let v = params.v();
    let h = params.half_l();
    let target = config.target();
    let nxi = dims.index(nx);
    let nc = front[nxi];
    if nc.failed || nc.signal != Some(id) {
        return;
    }
    push_tracked(out.moved, id, out.allocs);
    let boundary = id.boundary(dir);
    let mut w = 0usize;
    for r in 0..members_k.len() {
        let (eid, pos) = members_k[r];
        let new_pos = pos.translate(dir, v);
        let far_edge = new_pos.along(dir.axis()) + h * dir.sign();
        let crossed = if dir.sign() > 0 {
            far_edge > boundary
        } else {
            far_edge < boundary
        };
        if crossed {
            if nx == target {
                push_tracked(out.consumed, eid, out.allocs);
            } else {
                // Enter the receiving cell flush at its near edge.
                let entry_edge = nx.boundary(dir.opposite());
                let snapped = new_pos.with_along(dir.axis(), entry_edge + h * dir.sign());
                push_tracked(out.incoming, (nxi as u32, eid, snapped), out.allocs);
                push_tracked(
                    out.transfers,
                    Transfer {
                        entity: eid,
                        from: id,
                        to: nx,
                    },
                    out.allocs,
                );
            }
        } else {
            members_k[w] = (eid, new_pos);
            w += 1;
        }
    }
    members_k.truncate(w);
}

/// The double-buffered round engine. See the [module docs](self) for the
/// layout and aliasing argument.
///
/// Drive it directly for maximum throughput (benchmarks do), or through
/// [`System`](crate::System), which keeps a [`SystemState`] mirror in sync
/// for monitors, safety checks and serialization by copying each round's
/// changed cells ([`Engine::changed_cells`]).
///
/// ```
/// use cellflow_core::engine::Engine;
/// use cellflow_core::{Params, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
///
/// let config = SystemConfig::new(
///     GridDims::square(8),
///     CellId::new(1, 7),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(1, 0));
/// let mut engine = Engine::new(config);
/// let mut consumed = 0u64;
/// for _ in 0..200 {
///     consumed += engine.step().consumed.len() as u64;
/// }
/// assert!(consumed > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    config: SystemConfig,
    topo: Arc<NeighborTable>,
    /// Current cell registers ("front" buffer).
    front: Vec<CellCore>,
    /// Scratch buffer `Route` writes into before swapping with `front`.
    back: Vec<CellCore>,
    /// Per-cell entity arenas, sorted by `EntityId` (BTreeMap order).
    members: Vec<Vec<(EntityId, Point)>>,
    next_entity_id: u64,
    round: u64,
    events: RoundEvents,
    /// Deferred cross-cell arrivals `(arena index, entity, position)`.
    incoming: Vec<(u32, EntityId, Point)>,
    /// Per-cell congestion pressure: a leaky integrator
    /// `p ← ⌊p/2⌋ + occupancy`, updated once per round. Bounded by
    /// `2 · max occupancy`, so a cell pinned at its capacity plateaus at
    /// twice that value while a transient spike washes out within a few
    /// rounds — the signal the cascade heat maps render. Derived telemetry,
    /// not protocol state: it survives [`Engine::load_state`] and
    /// [`Engine::load_cell`] (fault injection) and is zeroed only at
    /// construction.
    pressure: Vec<u64>,
    /// Exact `ne_prev` sets that cannot be encoded as a neighbor mask
    /// (injected via [`Engine::load_state`] from hand-built states; dropped
    /// as soon as `Signal` rewrites the cell). Empty in any reachable state.
    ne_override: Vec<(u32, BTreeSet<CellId>)>,
    /// Per-cell incoming-cut masks for the *next* round (bit `s` set ⇔ the
    /// neighbor in `Dir::ALL[s]` is unreadable — its announcements are
    /// suppressed, so the cell reads `dist = ∞`, "no request", `signal = ⊥`
    /// from that side, exactly footnote 1's silent-neighbor semantics).
    /// Empty (the default) means no link faults; set per round via
    /// [`Engine::set_link_cuts`]. Transient input, not protocol state: it
    /// survives [`Engine::load_state`] and is never exported.
    link_cuts: Vec<u8>,
    /// Number of buffer-growth (re)allocations since the last reset.
    alloc_events: u64,
    /// Per-phase span timers, attached when telemetry is enabled. `None`
    /// (the default) keeps [`Engine::step`] on the untimed fast path — a
    /// single branch per round, no clock reads.
    timers: Option<PhaseTimers>,
    /// Scheduler occupancy instrumentation (active/skipped cells, per-shard
    /// phase timing), attached when telemetry is enabled.
    sched_metrics: Option<SchedulerMetrics>,
    /// Per-round phase attribution for the causal tracer (see
    /// [`RoundTrace`]); refreshed in place when enabled, otherwise inert.
    round_trace: RoundTrace,
    /// Dense (recompute everything) or sparse (active sets) execution.
    mode: ExecMode,
    /// Worker threads for sharded sparse phases (1 = sequential).
    workers: usize,
    /// Minimum active-list length before a phase fans out to workers;
    /// below it the thread hand-off costs more than the sweep.
    shard_min: usize,
    /// Active-set scheduler state (dirty sets, occupancy, pressure list).
    sched: Sched,
    /// Per-worker band scratch, reused round over round.
    shards: ShardScratch,
    /// Flight recorder, when a recording is being captured. `None` (the
    /// default) keeps [`Engine::step`] on the unrecorded fast path — a
    /// single branch per round, no state export, no allocation.
    recorder: Option<Box<crate::snapshot::Recorder>>,
    /// Cells whose exported state may differ from what it was when the
    /// previous [`Engine::step`] returned (see [`Engine::changed_cells`]).
    changed: MarkSet,
    /// `changed` stands for every cell: no step has returned yet, the last
    /// round was dense, or [`Engine::load_state`] rewrote the arenas.
    changed_all: bool,
    /// `changed` holds the slice the last step published; the next write
    /// (a step or [`Engine::load_cell`]) opens a fresh set.
    changed_sealed: bool,
}

/// One round's phase attribution for the causal tracer: how many cells each
/// phase actually swept, across how many shard bands, and how long it took.
///
/// Plain `Copy` data refreshed in place every round — reading it allocates
/// nothing, so tracing preserves the engine's zero-allocation steady state.
/// The cell/band counts are deterministic (they mirror the scheduler's
/// sorted work lists); only the `*_ns` fields read the wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Whether the engine is filling this struct each round.
    pub enabled: bool,
    /// Cells swept by `Route` (the whole grid in dense mode).
    pub route_cells: u64,
    /// Cells swept by `Signal`.
    pub signal_cells: u64,
    /// Cells swept by `Move`.
    pub move_cells: u64,
    /// Shard bands `Route` fanned out to (1 = sequential).
    pub route_bands: u32,
    /// Shard bands `Signal` fanned out to.
    pub signal_bands: u32,
    /// Shard bands `Move` fanned out to.
    pub move_bands: u32,
    /// Measured `Route` nanoseconds (wall clock; nondeterministic).
    pub route_ns: u64,
    /// Measured `Signal` nanoseconds.
    pub signal_ns: u64,
    /// Measured `Move` nanoseconds (includes source insertion).
    pub move_ns: u64,
}

/// Pushes tracking capacity growth: bumps `allocs` when the push must
/// reallocate.
fn push_tracked<T>(v: &mut Vec<T>, item: T, allocs: &mut u64) {
    if v.len() == v.capacity() {
        *allocs += 1;
    }
    v.push(item);
}

/// Sorted insert into an entity arena (replaces the position on an existing
/// identifier, mirroring `BTreeMap::insert`).
fn insert_member(v: &mut Vec<(EntityId, Point)>, eid: EntityId, pos: Point, allocs: &mut u64) {
    match v.binary_search_by_key(&eid, |e| e.0) {
        Ok(i) => v[i].1 = pos,
        Err(i) => {
            if v.len() == v.capacity() {
                *allocs += 1;
            }
            v.insert(i, (eid, pos));
        }
    }
}

impl Engine {
    /// Creates an engine in the initial state of `config` at round 0.
    pub fn new(config: SystemConfig) -> Engine {
        let topo = config.topology();
        let n = config.dims().cell_count();
        let mut engine = Engine {
            config,
            topo,
            front: vec![CellCore::default(); n],
            back: vec![CellCore::default(); n],
            members: vec![Vec::new(); n],
            next_entity_id: 0,
            round: 0,
            events: RoundEvents::default(),
            incoming: Vec::new(),
            pressure: vec![0; n],
            ne_override: Vec::new(),
            link_cuts: Vec::new(),
            alloc_events: 0,
            timers: None,
            sched_metrics: None,
            round_trace: RoundTrace::default(),
            mode: ExecMode::Sparse,
            workers: 1,
            shard_min: DEFAULT_SHARD_MIN,
            sched: Sched::with_cells(n),
            shards: ShardScratch::with_bands(1),
            recorder: None,
            changed: MarkSet::with_cells(n),
            changed_all: true,
            changed_sealed: false,
        };
        engine.front[engine.topo.target_index].dist = Dist::Finite(0);
        engine
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The round number the *next* [`Engine::step`] will execute.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Overrides the round counter (it parameterizes
    /// [`TokenPolicy::Randomized`](crate::TokenPolicy::Randomized) choices).
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// The next fresh [`EntityId`] sources will mint.
    pub fn next_entity_id(&self) -> u64 {
        self.next_entity_id
    }

    /// Total entities currently in the system.
    pub fn entity_count(&self) -> usize {
        self.members.iter().map(|m| m.len()).sum()
    }

    /// Current occupancy (entity count) of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn occupancy(&self, cell: CellId) -> usize {
        self.members[self.config.dims().index(cell)].len()
    }

    /// Current congestion pressure of `cell`: the leaky occupancy integrator
    /// `p ← ⌊p/2⌋ + occupancy`, as of the most recent [`Engine::step`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn pressure(&self, cell: CellId) -> u64 {
        self.pressure[self.config.dims().index(cell)]
    }

    /// Events of the most recent round.
    pub fn events(&self) -> &RoundEvents {
        &self.events
    }

    /// Buffer-growth allocations since construction or the last
    /// [`Engine::reset_alloc_events`]. After a warm-up at steady state this
    /// stays constant: a round that grows no buffer allocates nothing.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Zeroes the growth counter (call after warm-up, before measuring).
    pub fn reset_alloc_events(&mut self) {
        self.alloc_events = 0;
    }

    /// Attaches per-phase span timers (the `cellflow_engine_*_ns`
    /// histograms). Rounds then record Route/Signal/Move and whole-round
    /// nanoseconds; detach by attaching timers from a disabled registry, or
    /// never attach to keep the untimed fast path.
    pub fn attach_phase_timers(&mut self, timers: PhaseTimers) {
        self.timers = if timers.round.is_enabled() {
            Some(timers)
        } else {
            None
        };
    }

    /// Turns on per-round phase attribution: every subsequent
    /// [`Engine::step`] refreshes the [`RoundTrace`] readable via
    /// [`Engine::round_trace`]. Adds one `Instant` read per phase and no
    /// allocations; leave off (the default) for the untraced fast path.
    pub fn enable_round_trace(&mut self) {
        self.round_trace.enabled = true;
    }

    /// The most recent round's phase attribution (all-zero until
    /// [`Engine::enable_round_trace`] and a first step).
    pub fn round_trace(&self) -> RoundTrace {
        self.round_trace
    }

    /// Attaches a flight recorder: the current state is recorded immediately
    /// (the recording's opening keyframe, at the engine's current round) and
    /// every subsequent [`Engine::step`] records its post-round state.
    /// Replaces any recorder already attached.
    pub fn attach_recorder(&mut self, mut recorder: Box<crate::snapshot::Recorder>) {
        recorder.record_engine(self);
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the flight recorder, if one is attached —
    /// callers seal it with [`Recorder::finish`](crate::snapshot::Recorder::finish).
    pub fn take_recorder(&mut self) -> Option<Box<crate::snapshot::Recorder>> {
        self.recorder.take()
    }

    /// `true` while a flight recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records the just-completed round into the attached recorder. The
    /// take/put-back dance lets the recorder borrow `self` immutably for the
    /// state export while remaining owned by it.
    fn record_round(&mut self) {
        if let Some(mut recorder) = self.recorder.take() {
            recorder.record_engine(self);
            self.recorder = Some(recorder);
        }
    }

    /// Sets the incoming-cut masks the next [`Engine::step`] honors: one
    /// mask per cell, bit `s` suppressing reads from the neighbor in
    /// `Dir::ALL[s]` (see [`PartitionSchedule::mask_row`]). The first call
    /// with any nonzero mask allocates the buffer once; steady-state
    /// campaigns then update it in place, preserving the zero-allocation
    /// claim.
    ///
    /// [`PartitionSchedule::mask_row`]: crate::PartitionSchedule::mask_row
    ///
    /// # Panics
    ///
    /// Panics if `masks` has the wrong number of cells.
    pub fn set_link_cuts(&mut self, masks: &[u8]) {
        assert_eq!(
            masks.len(),
            self.front.len(),
            "mask row must match the grid"
        );
        if self.link_cuts.is_empty() {
            if masks.iter().all(|&m| m == 0) {
                return;
            }
            for (k, &m) in masks.iter().enumerate() {
                if m != 0 {
                    self.mark_cut_changed(k as u32);
                }
            }
            self.link_cuts = masks.to_vec();
        } else {
            for (k, (&new, old)) in masks.iter().zip(self.link_cuts.iter_mut()).enumerate() {
                if *old != new {
                    *old = new;
                    self.sched.route_next.insert(k as u32);
                    self.sched.sig_next.insert(k as u32);
                }
            }
        }
    }

    /// A cell's incoming-cut mask changed: its `Route` argmin and `Signal`
    /// requester mask read different inputs next round.
    fn mark_cut_changed(&mut self, k: u32) {
        self.sched.route_next.insert(k);
        self.sched.sig_next.insert(k);
    }

    /// Restores the no-link-faults default (all edges readable).
    pub fn clear_link_cuts(&mut self) {
        for k in 0..self.link_cuts.len() {
            if self.link_cuts[k] != 0 {
                self.mark_cut_changed(k as u32);
            }
        }
        self.link_cuts.clear();
    }

    /// Imports `state` into the arenas (replacing everything). `ne_prev`
    /// sets that are not representable as a neighbor mask are retained
    /// verbatim so [`Engine::store_state`] loses nothing. The next round
    /// recomputes every cell and publishes "every cell" as its changed
    /// slice; to edit one cell, [`Engine::load_cell`] is far cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong number of cells.
    pub fn load_state(&mut self, state: &SystemState) {
        assert_eq!(
            state.cells.len(),
            self.front.len(),
            "state size must match the grid"
        );
        self.ne_override.clear();
        for (k, cs) in state.cells.iter().enumerate() {
            self.import_cell(k, cs);
        }
        self.next_entity_id = state.next_entity_id;
        // Arbitrary registers may have been rewritten: the next sparse round
        // must recompute everything, and every cell counts as changed.
        self.sched.mark_all = true;
        self.open_changed();
        self.changed_all = true;
    }

    /// Overwrites one cell's registers and members with `cell` — the point
    /// write behind fault injection (crash, recovery, corruption). The cell
    /// and its four neighbors are marked dirty for `Route` and `Signal`
    /// (their inputs read this cell's `dist`, `next`, `failed` and
    /// occupancy), the occupancy and pressure sets learn about new
    /// members, and the cell joins the next step's changed slice.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn load_cell(&mut self, id: CellId, cell: &CellState) {
        let k = self.config.dims().index(id);
        self.open_changed();
        self.import_cell(k, cell);
        let ku = k as u32;
        let Engine {
            sched,
            topo,
            changed,
            members,
            ..
        } = self;
        changed.insert(ku);
        sched.route_next.insert(ku);
        sched.sig_next.insert(ku);
        for &ni in &topo.nbr_idx[k] {
            if ni != NO_NBR {
                sched.route_next.insert(ni);
                sched.sig_next.insert(ni);
            }
        }
        if !members[k].is_empty() {
            note_occupied(sched, topo, ku);
        }
    }

    /// Writes one exported cell into the arenas: registers, the `ne_prev`
    /// mask (or a verbatim override when no mask can encode it), members.
    fn import_cell(&mut self, k: usize, cs: &CellState) {
        if !self.ne_override.is_empty() {
            self.ne_override.retain(|(i, _)| *i != k as u32);
        }
        let mut mask = 0u8;
        let mut representable = cs.ne_prev.len() <= 4;
        if representable {
            'encode: for &m in &cs.ne_prev {
                for s in 0..4 {
                    if self.topo.nbr_idx[k][s] != NO_NBR && self.topo.nbr_id[k][s] == m {
                        mask |= 1 << s;
                        continue 'encode;
                    }
                }
                representable = false;
                break;
            }
        }
        if !representable {
            self.ne_override.push((k as u32, cs.ne_prev.clone()));
            mask = 0;
        }
        self.front[k] = CellCore {
            dist: cs.dist,
            next: cs.next,
            token: cs.token,
            signal: cs.signal,
            ne_mask: mask,
            failed: cs.failed,
        };
        let mem = &mut self.members[k];
        mem.clear();
        mem.extend(cs.members.iter().map(|(&e, &p)| (e, p)));
    }

    /// Exports the arenas into `state` in place, reusing its allocations:
    /// per-cell `BTreeSet`/`BTreeMap` structures are rebuilt only when their
    /// contents actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong number of cells.
    pub fn store_state(&self, state: &mut SystemState) {
        assert_eq!(
            state.cells.len(),
            self.front.len(),
            "state size must match the grid"
        );
        for (k, cs) in state.cells.iter_mut().enumerate() {
            self.store_cell(k, cs);
        }
        state.next_entity_id = self.next_entity_id;
    }

    /// Exports cell `k` into `cs` in place — the one per-cell store behind
    /// [`Engine::store_state`] and every slice-driven mirror refresh.
    /// Returns whether `cs` changed.
    pub(crate) fn store_cell(&self, k: usize, cs: &mut CellState) -> bool {
        let c = self.front[k];
        let mut changed = cs.dist != c.dist
            || cs.next != c.next
            || cs.token != c.token
            || cs.signal != c.signal
            || cs.failed != c.failed;
        cs.dist = c.dist;
        cs.next = c.next;
        cs.token = c.token;
        cs.signal = c.signal;
        cs.failed = c.failed;
        let overridden = self
            .ne_override
            .iter()
            .find(|(i, _)| *i == k as u32)
            .map(|(_, set)| set);
        if let Some(set) = overridden {
            if cs.ne_prev != *set {
                cs.ne_prev = set.clone();
                changed = true;
            }
        } else {
            let (cands, cn) = candidates_of(&self.topo, k, c.ne_mask);
            let unchanged = cs.ne_prev.len() == cn
                && cs.ne_prev.iter().zip(cands[..cn].iter()).all(|(a, b)| a == b);
            if !unchanged {
                cs.ne_prev.clear();
                cs.ne_prev.extend(cands[..cn].iter().copied());
                changed = true;
            }
        }
        let mem = &self.members[k];
        let same_keys = cs.members.len() == mem.len()
            && cs.members.keys().zip(mem.iter()).all(|(a, (b, _))| a == b);
        if same_keys {
            for (slot, (_, p)) in cs.members.values_mut().zip(mem.iter()) {
                if *slot != *p {
                    *slot = *p;
                    changed = true;
                }
            }
        } else {
            cs.members.clear();
            cs.members.extend(mem.iter().copied());
            changed = true;
        }
        changed
    }

    /// The cells whose exported [`CellState`] may differ from what it was
    /// when the previous [`Engine::step`] returned: ascending row-major
    /// indices of every cell a phase, source insertion or
    /// [`Engine::load_cell`] actually wrote. `None` means "every cell" — a
    /// dense round, the first round, or a round after
    /// [`Engine::load_state`]. Read it right after a step: after a point
    /// write it is `None` until the next step publishes the slice.
    ///
    /// Mirrors, monitors and recorders refresh exactly these cells to stay
    /// O(changed cells) per round.
    pub fn changed_cells(&self) -> Option<&[u32]> {
        (self.changed_sealed && !self.changed_all).then_some(self.changed.list.as_slice())
    }

    /// Starts a fresh changed set on the first write after a step returned.
    fn open_changed(&mut self) {
        if self.changed_sealed {
            self.changed_sealed = false;
            self.changed_all = false;
            self.changed.begin();
        }
    }

    /// Allocates and returns a fresh [`SystemState`] mirror (convenience for
    /// tests; hot paths should reuse one via [`Engine::store_state`]).
    pub fn export_state(&self) -> SystemState {
        let mut state = self.config.initial_state();
        self.store_state(&mut state);
        state
    }

    /// Executes one atomic `update` transition — `Route; Signal; Move` — and
    /// returns the round's events. Equivalent, state for state and event for
    /// event, to [`update`](crate::update) on the mirrored representation,
    /// in both [`ExecMode`]s and at every worker count.
    pub fn step(&mut self) -> &RoundEvents {
        self.events.consumed.clear();
        self.events.transfers.clear();
        self.events.inserted.clear();
        self.events.grants.clear();
        self.events.blocked.clear();
        self.events.moved.clear();
        self.open_changed();

        match self.mode {
            ExecMode::Dense => self.round_dense(),
            ExecMode::Sparse => self.round_sparse(),
        }

        // Dense rounds keep no dirty tracking: every cell may have changed.
        if self.mode == ExecMode::Dense {
            self.changed_all = true;
        } else if !self.changed_all {
            self.changed.scan(&mut self.alloc_events);
        }
        self.changed_sealed = true;
        self.round += 1;
        if self.recorder.is_some() {
            self.record_round();
        }
        &self.events
    }

    /// The PR 3 reference round: every phase sweeps every cell.
    fn round_dense(&mut self) {
        // Spans hold only Arc handles and `RoundTrace` is plain `Copy`
        // data: starting/stopping a span or stamping a phase mark reads the
        // clock but never allocates, so the steady-state zero-allocation
        // claim holds with timing and tracing on too.
        let timers = self.timers.clone();
        let trace = self.round_trace.enabled;
        let whole = timers.as_ref().map(|t| t.round.start());

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.route.start());
        self.route();
        std::mem::swap(&mut self.front, &mut self.back);
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.route_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.signal.start());
        self.signal();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.signal_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.mv.start());
        self.do_move();
        self.insert_sources();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.move_ns = elapsed_ns(t0);
        }
        drop(whole);

        if trace {
            let all = self.front.len() as u64;
            self.round_trace.route_cells = all;
            self.round_trace.signal_cells = all;
            self.round_trace.move_cells = all;
            self.round_trace.route_bands = 1;
            self.round_trace.signal_bands = 1;
            self.round_trace.move_bands = 1;
        }

        for (p, m) in self.pressure.iter_mut().zip(self.members.iter()) {
            *p = *p / 2 + m.len() as u64;
        }

        self.sched.last_active = self.front.len();
        if let Some(m) = &self.sched_metrics {
            m.active_cells.set(self.front.len() as i64);
        }
    }

    /// The active-set round: each phase sweeps only its dirty list, fanning
    /// out to shard workers when the list is long enough.
    fn round_sparse(&mut self) {
        self.begin_round_sparse();
        let timers = self.timers.clone();
        let trace = self.round_trace.enabled;
        let whole = timers.as_ref().map(|t| t.round.start());

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.route.start());
        self.route_sparse();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.route_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.signal.start());
        self.signal_sparse();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.signal_ns = elapsed_ns(t0);
        }

        let mark = trace.then(Instant::now);
        let span = timers.as_ref().map(|t| t.mv.start());
        self.move_sparse();
        self.insert_sources();
        drop(span);
        if let Some(t0) = mark {
            self.round_trace.move_ns = elapsed_ns(t0);
        }
        drop(whole);

        if trace {
            // The phase lists stay intact until the next round's rotation,
            // so the counts can be read back here, after the sweeps. Band
            // counts recompute `band_count` on the same lengths the phases
            // saw, so they match what actually ran.
            let route_len = self.sched.route_now.list.len();
            let sig_len = self.sched.sig_now.list.len();
            let move_len = self.sched.occupied.list.len();
            self.round_trace.route_cells = route_len as u64;
            self.round_trace.signal_cells = sig_len as u64;
            self.round_trace.move_cells = move_len as u64;
            self.round_trace.route_bands = self.band_count(route_len) as u32;
            self.round_trace.signal_bands = self.band_count(sig_len) as u32;
            self.round_trace.move_bands = self.band_count(move_len) as u32;
        }
        self.update_pressure_sparse();
    }

    /// Rotates the dirty sets: marks accumulated since the last round become
    /// this round's work. After anything that rewrote arbitrary state
    /// (`load_state`, a mode switch) the sets are refilled wholesale and the
    /// occupancy/pressure sets rebuilt from the arenas.
    fn begin_round_sparse(&mut self) {
        let Engine {
            sched,
            members,
            pressure,
            ..
        } = self;
        if sched.mark_all {
            sched.mark_all = false;
            sched.route_now.fill_all();
            sched.sig_now.fill_all();
            // Pending marks are subsumed by the full sweep.
            sched.route_next.begin();
            sched.sig_next.begin();
            sched.occupied.begin();
            sched.pressured.begin();
            for (k, m) in members.iter().enumerate() {
                if !m.is_empty() {
                    sched.occupied.insert(k as u32);
                }
                if pressure[k] > 0 || !m.is_empty() {
                    sched.pressured.insert(k as u32);
                }
            }
        } else {
            std::mem::swap(&mut sched.route_now, &mut sched.route_next);
            sched.route_next.begin();
            std::mem::swap(&mut sched.sig_now, &mut sched.sig_next);
            sched.sig_next.begin();
        }
    }

    /// Bands a phase list fans out to: the worker count once the list
    /// clears the sharding threshold, else 1 (sequential).
    fn band_count(&self, len: usize) -> usize {
        if self.workers > 1 && len >= self.shard_min {
            self.workers.min(self.shards.route.len())
        } else {
            1
        }
    }

    /// Sparse `Route`: computes updates for the dirty list (possibly on
    /// shard workers — they only read `front`), then applies them
    /// sequentially in band order, which equals ascending cell order.
    fn route_sparse(&mut self) {
        let cap = self.config.dist_cap();
        self.sched.route_now.scan(&mut self.alloc_events);
        let nbands = self.band_count(self.sched.route_now.list.len());
        {
            let Engine {
                sched,
                topo,
                front,
                link_cuts,
                shards,
                sched_metrics,
                ..
            } = self;
            let list: &[u32] = &sched.route_now.list;
            if list.is_empty() {
                return;
            }
            let topo: &NeighborTable = topo;
            let front: &[CellCore] = front;
            let cuts: &[u8] = link_cuts;
            let timing = sched_metrics.as_ref().map(|m| &m.shard_phase);
            let bands = &mut shards.route[..nbands];
            if nbands == 1 {
                route_band(topo, front, cuts, cap, list, &mut bands[0]);
            } else {
                let chunk = list.len().div_ceil(nbands);
                crossbeam::thread::scope(|scope| {
                    for (band, ks) in bands.iter_mut().zip(list.chunks(chunk)) {
                        scope.spawn(move |_| {
                            let t0 = timing.map(|_| Instant::now());
                            route_band(topo, front, cuts, cap, ks, band);
                            if let (Some(h), Some(t0)) = (timing, t0) {
                                h.observe(elapsed_ns(t0));
                            }
                        });
                    }
                })
                .expect("route shard worker panicked");
            }
        }
        self.apply_route_bands(nbands);
    }

    /// Writes the banded `Route` updates into `front` and propagates dirt:
    /// a changed `dist` re-routes the neighbors next round; a changed `next`
    /// feeds their requester masks in **this** round's `Signal`.
    fn apply_route_bands(&mut self, nbands: usize) {
        let Engine {
            sched,
            topo,
            front,
            alloc_events,
            shards,
            changed,
            ..
        } = self;
        for band in &mut shards.route[..nbands] {
            *alloc_events += band.allocs;
            band.allocs = 0;
            for &(k, dist, next) in &band.upd {
                let ku = k as usize;
                changed.insert(k);
                let c = &mut front[ku];
                let dist_changed = c.dist != dist;
                let next_changed = c.next != next;
                c.dist = dist;
                c.next = next;
                let nbrs = &topo.nbr_idx[ku];
                if dist_changed {
                    for &ni in nbrs {
                        if ni != NO_NBR {
                            sched.route_next.insert(ni);
                        }
                    }
                }
                if next_changed {
                    for &ni in nbrs {
                        if ni != NO_NBR {
                            sched.sig_now.insert(ni);
                        }
                    }
                }
            }
            band.upd.clear();
        }
    }

    /// Sparse `Signal`: kernel outputs are computed for the dirty list
    /// (shard workers read the shared pre-write snapshot — `Signal` never
    /// reads a neighbor's signal registers, so this matches the in-place
    /// sweep), then applied in ascending cell order with events emitted
    /// exactly where the dense sweep emits them.
    fn signal_sparse(&mut self) {
        let params = self.config.params();
        let policy = self.config.token_policy();
        let round = self.round;
        self.sched.sig_now.scan(&mut self.alloc_events);
        let nbands = self.band_count(self.sched.sig_now.list.len());
        {
            let Engine {
                sched,
                topo,
                front,
                members,
                link_cuts,
                shards,
                sched_metrics,
                ..
            } = self;
            let list: &[u32] = &sched.sig_now.list;
            if list.is_empty() {
                return;
            }
            let topo: &NeighborTable = topo;
            let front: &[CellCore] = front;
            let members: &[Vec<(EntityId, Point)>] = members;
            let cuts: &[u8] = link_cuts;
            let timing = sched_metrics.as_ref().map(|m| &m.shard_phase);
            let bands = &mut shards.sig[..nbands];
            if nbands == 1 {
                signal_band(
                    topo, front, members, cuts, params, policy, round, list, &mut bands[0],
                );
            } else {
                let chunk = list.len().div_ceil(nbands);
                crossbeam::thread::scope(|scope| {
                    for (band, ks) in bands.iter_mut().zip(list.chunks(chunk)) {
                        scope.spawn(move |_| {
                            let t0 = timing.map(|_| Instant::now());
                            signal_band(topo, front, members, cuts, params, policy, round, ks, band);
                            if let (Some(h), Some(t0)) = (timing, t0) {
                                h.observe(elapsed_ns(t0));
                            }
                        });
                    }
                })
                .expect("signal shard worker panicked");
            }
        }
        self.apply_signal_bands(nbands);
    }

    /// Writes banded `Signal` outputs back, emits grant/block events, and
    /// re-marks sticky cells: anything finishing with a nonzero register
    /// must run again next round (the skip precondition is the idle triple).
    fn apply_signal_bands(&mut self, nbands: usize) {
        let Engine {
            sched,
            topo,
            front,
            events,
            ne_override,
            alloc_events,
            shards,
            changed,
            ..
        } = self;
        for band in &mut shards.sig[..nbands] {
            *alloc_events += band.allocs;
            band.allocs = 0;
            for &(k, out) in &band.out {
                let ku = k as usize;
                let id = topo.ids[ku];
                match (out.signal, out.token) {
                    (Some(grantee), _) => {
                        push_tracked(&mut events.grants, (id, grantee), alloc_events);
                    }
                    (None, Some(holder)) => {
                        push_tracked(&mut events.blocked, (id, holder), alloc_events);
                    }
                    (None, None) => {}
                }
                let c = &mut front[ku];
                let mut wrote =
                    c.ne_mask != out.mask || c.token != out.token || c.signal != out.signal;
                c.ne_mask = out.mask;
                c.token = out.token;
                c.signal = out.signal;
                if !ne_override.is_empty() {
                    let before = ne_override.len();
                    ne_override.retain(|(i, _)| *i != k);
                    wrote |= ne_override.len() != before;
                }
                if wrote {
                    changed.insert(k);
                }
                if out.mask != 0 || out.token.is_some() || out.signal.is_some() {
                    sched.sig_next.insert(k);
                }
            }
            band.out.clear();
        }
    }

    /// Sparse `Move`: scans the occupancy set (dropping drained cells),
    /// sweeps exactly the nonempty cells in ascending order (banded over
    /// disjoint member sub-slices when sharded), then marks drained cells'
    /// neighbors and applies deferred arrivals with occupancy tracking.
    fn move_sparse(&mut self) {
        let members = &self.members;
        self.sched
            .occupied
            .scan_retain(|k| !members[k as usize].is_empty(), &mut self.alloc_events);
        let nbands = self.band_count(self.sched.occupied.list.len());
        {
            let Engine {
                config,
                topo,
                front,
                members,
                link_cuts,
                incoming,
                events,
                sched,
                shards,
                alloc_events,
                sched_metrics,
                changed,
                ..
            } = self;
            let list: &[u32] = &sched.occupied.list;
            if !list.is_empty() {
                let topo: &NeighborTable = topo;
                let front: &[CellCore] = front;
                let cuts: &[u8] = link_cuts;
                let config: &SystemConfig = config;
                if nbands == 1 {
                    let mut sink = MoveSink {
                        moved: &mut events.moved,
                        consumed: &mut events.consumed,
                        transfers: &mut events.transfers,
                        incoming,
                        allocs: alloc_events,
                    };
                    for &k in list {
                        move_cell_into(
                            config,
                            topo,
                            front,
                            cuts,
                            &mut members[k as usize],
                            k as usize,
                            &mut sink,
                        );
                    }
                } else {
                    let chunk = list.len().div_ceil(nbands);
                    let timing = sched_metrics.as_ref().map(|m| &m.shard_phase);
                    let bands = &mut shards.mv[..nbands];
                    crossbeam::thread::scope(|scope| {
                        // Bands are contiguous runs of the sorted list, so
                        // splitting the member arenas at each band's last
                        // cell + 1 hands every worker a disjoint sub-slice.
                        let mut rest: &mut [Vec<(EntityId, Point)>] = members;
                        let mut offset = 0usize;
                        for (band, ks) in bands.iter_mut().zip(list.chunks(chunk)) {
                            let hi = *ks.last().expect("chunks are nonempty") as usize + 1;
                            let (seg, tail) = rest.split_at_mut(hi - offset);
                            let lo = offset;
                            rest = tail;
                            offset = hi;
                            scope.spawn(move |_| {
                                let t0 = timing.map(|_| Instant::now());
                                let mut sink = MoveSink {
                                    moved: &mut band.moved,
                                    consumed: &mut band.consumed,
                                    transfers: &mut band.transfers,
                                    incoming: &mut band.incoming,
                                    allocs: &mut band.allocs,
                                };
                                for &k in ks {
                                    move_cell_into(
                                        config,
                                        topo,
                                        front,
                                        cuts,
                                        &mut seg[k as usize - lo],
                                        k as usize,
                                        &mut sink,
                                    );
                                }
                                if let (Some(h), Some(t0)) = (timing, t0) {
                                    h.observe(elapsed_ns(t0));
                                }
                            });
                        }
                    })
                    .expect("move shard worker panicked");
                    // Merge in ascending band order = ascending cell order =
                    // the sequential sweep's event record.
                    for band in bands {
                        *alloc_events += band.allocs;
                        band.allocs = 0;
                        drain_tracked(&mut events.moved, &mut band.moved, alloc_events);
                        drain_tracked(&mut events.consumed, &mut band.consumed, alloc_events);
                        drain_tracked(&mut events.transfers, &mut band.transfers, alloc_events);
                        drain_tracked(incoming, &mut band.incoming, alloc_events);
                    }
                }
                // Every cell that moved rewrote its members.
                let dims = config.dims();
                for &id in &events.moved {
                    changed.insert(dims.index(id) as u32);
                }
                // Cells that drained stop being requesters: their neighbors'
                // masks change next round.
                for &k in list {
                    if members[k as usize].is_empty() {
                        for &ni in &topo.nbr_idx[k as usize] {
                            if ni != NO_NBR {
                                sched.sig_next.insert(ni);
                            }
                        }
                    }
                }
            }
        }
        // Arrivals grow `occupied`: count activity while each phase set
        // still holds exactly the cells its phase swept.
        self.note_round_activity();
        self.apply_incoming(true);
    }

    /// Applies deferred cross-cell arrivals in emission order. With `track`
    /// (sparse rounds), receiving cells join the changed set, and cells
    /// gaining their first occupant are folded into the occupancy and
    /// pressure sets and their neighbors marked for `Signal`.
    fn apply_incoming(&mut self, track: bool) {
        let mut incoming = std::mem::take(&mut self.incoming);
        for &(to, eid, pos) in &incoming {
            let tu = to as usize;
            let was_empty = self.members[tu].is_empty();
            insert_member(&mut self.members[tu], eid, pos, &mut self.alloc_events);
            if track {
                self.changed.insert(to);
                if was_empty {
                    note_occupied(&mut self.sched, &self.topo, to);
                }
            }
        }
        incoming.clear();
        self.incoming = incoming;
    }

    /// Sparse pressure update: the leaky integrator is identically zero off
    /// the set (`⌊0/2⌋ + 0 = 0`), so only its cells are touched; a cell
    /// leaves the set once it decays to zero while empty.
    fn update_pressure_sparse(&mut self) {
        let (pressure, members) = (&mut self.pressure, &self.members);
        self.sched.pressured.retain(|k| {
            let k = k as usize;
            pressure[k] = pressure[k] / 2 + members[k].len() as u64;
            pressure[k] != 0
        });
    }

    /// Counts the distinct cells this round's phases ran on and publishes
    /// the occupancy gauges when scheduler metrics are attached.
    fn note_round_activity(&mut self) {
        let Engine {
            sched,
            sched_metrics,
            front,
            ..
        } = self;
        sched.last_active = union_len(&sched.route_now, &sched.sig_now, &sched.occupied);
        if let Some(m) = sched_metrics {
            m.active_cells.set(sched.last_active as i64);
            m.skipped_cells
                .add((front.len() - sched.last_active) as u64);
        }
    }

    /// `Route` (Figure 4): writes the routed registers into `back`; the
    /// caller swaps the buffers. Mirrors
    /// [`route_phase`](crate::route_phase): the hand-rolled loop below
    /// computes [`route_update`](cellflow_routing::route_update)'s
    /// `argmin (dist, id)` by visiting the slots
    /// in ascending-`CellId` order ([`SORTED_SLOTS`]) with strict-`<`
    /// keep-first replacement, so the id comparison never has to run. The
    /// differential suite pins the two implementations together.
    fn route(&mut self) {
        let cap = self.config.dist_cap();
        let topo = &*self.topo;
        let front = &self.front;
        let back = &mut self.back;
        for k in 0..front.len() {
            let mut c = front[k];
            if !c.failed && k != topo.target_index {
                let cut = if self.link_cuts.is_empty() {
                    0
                } else {
                    self.link_cuts[k]
                };
                let (dist, next) = route_core(topo, front, cut, cap, k);
                c.dist = dist;
                c.next = next;
            }
            back[k] = c;
        }
    }

    /// `Signal` (Figure 5), in place on `front`. Safe without a second
    /// buffer: it writes only a cell's own `ne_mask`/`token`/`signal` and
    /// reads neighbors' `next` (never written here) and member arenas
    /// (never written here). Grant/block events are emitted inline in the
    /// same row-major order the reference derives them.
    fn signal(&mut self) {
        let params = self.config.params();
        let policy = self.config.token_policy();
        let round = self.round;
        for k in 0..self.front.len() {
            if self.front[k].failed {
                continue;
            }
            let cut = if self.link_cuts.is_empty() {
                0
            } else {
                self.link_cuts[k]
            };
            // Reading the kernel off the front buffer mid-sweep is exact:
            // `Signal` never reads a neighbor's ne_mask/token/signal, so the
            // registers already rewritten for earlier cells are invisible.
            let out = signal_core(
                &self.topo,
                &self.front,
                &self.members,
                cut,
                params,
                policy,
                round,
                k,
            );
            let id = self.topo.ids[k];
            match (out.signal, out.token) {
                (Some(grantee), _) => {
                    push_tracked(&mut self.events.grants, (id, grantee), &mut self.alloc_events);
                }
                (None, Some(holder)) => {
                    push_tracked(&mut self.events.blocked, (id, holder), &mut self.alloc_events);
                }
                (None, None) => {}
            }
            let c = &mut self.front[k];
            c.ne_mask = out.mask;
            c.token = out.token;
            c.signal = out.signal;
            if !self.ne_override.is_empty() {
                self.ne_override.retain(|(i, _)| *i != k as u32);
            }
        }
    }

    /// `Move` (Figure 6), in place. All permission reads (`signal`,
    /// `failed`) come from registers `Move` never writes; cross-cell
    /// arrivals are deferred to the `incoming` scratch and applied after the
    /// sweep, exactly like [`move_phase`](crate::move_phase).
    fn do_move(&mut self) {
        let Engine {
            config,
            topo,
            front,
            members,
            link_cuts,
            incoming,
            events,
            alloc_events,
            ..
        } = self;
        let mut sink = MoveSink {
            moved: &mut events.moved,
            consumed: &mut events.consumed,
            transfers: &mut events.transfers,
            incoming,
            allocs: alloc_events,
        };
        for (k, members_k) in members.iter_mut().enumerate() {
            move_cell_into(config, topo, front, link_cuts, members_k, k, &mut sink);
        }
        self.apply_incoming(false);
    }

    /// Source insertion (at most one entity per source per round), reading
    /// post-move members exactly like the tail of
    /// [`move_phase`](crate::move_phase).
    fn insert_sources(&mut self) {
        let dims = self.config.dims();
        let params = self.config.params();
        let policy = self.config.source_policy();
        let budget = self.config.entity_budget();
        let sparse = self.mode == ExecMode::Sparse;
        let d = params.d();
        for &s in self.config.sources() {
            let si = dims.index(s);
            if self.front[si].failed {
                continue; // a failed cell does nothing
            }
            if let Some(budget) = budget {
                if self.next_entity_id >= budget {
                    continue;
                }
            }
            let Some(pos) = policy.candidate(params, s, self.front[si].next) else {
                continue;
            };
            if !self.members[si].iter().all(|&(_, q)| sep_ok(pos, q, d)) {
                continue;
            }
            let was_empty = self.members[si].is_empty();
            let eid = EntityId(self.next_entity_id);
            self.next_entity_id += 1;
            insert_member(&mut self.members[si], eid, pos, &mut self.alloc_events);
            push_tracked(&mut self.events.inserted, (s, eid), &mut self.alloc_events);
            if sparse {
                self.changed.insert(si as u32);
                if was_empty {
                    note_occupied(&mut self.sched, &self.topo, si as u32);
                }
            }
        }
    }

    /// How [`Engine::step`] executes rounds.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Switches the execution strategy. The first round after a switch runs
    /// on full sets so the sparse scheduler re-learns the state (dense
    /// rounds maintain no dirty tracking).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        if self.mode != mode {
            self.mode = mode;
            self.sched.mark_all = true;
        }
    }

    /// Worker threads sharded sparse phases may fan out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the worker count for sharded execution (clamped to ≥ 1). A
    /// phase fans out only once its active list reaches the sharding
    /// threshold; below it the sequential sweep is faster than the hand-off.
    pub fn set_workers(&mut self, workers: usize) {
        let w = workers.max(1);
        self.workers = w;
        if self.shards.route.len() < w {
            self.shards = ShardScratch::with_bands(w);
        }
    }

    /// Overrides the active-list length at which phases fan out to workers
    /// (mainly for tests and benches; the default keeps small grids
    /// sequential).
    pub fn set_shard_min(&mut self, shard_min: usize) {
        self.shard_min = shard_min.max(1);
    }

    /// Distinct cells any phase ran on in the most recent round (equals the
    /// grid size in dense mode) — the active-set occupancy benchmarks and
    /// the `cellflow_engine_active_cells` gauge report.
    pub fn active_cells(&self) -> usize {
        self.sched.last_active
    }

    /// Attaches the scheduler gauges (`cellflow_engine_active_cells`,
    /// `cellflow_engine_skipped_cells_total`, and per-shard phase timing via
    /// `cellflow_engine_shard_phase_ns`). Handles minted from a disabled
    /// registry stay detached, keeping the untimed fast path.
    pub fn attach_scheduler_metrics(&mut self, metrics: SchedulerMetrics) {
        self.sched_metrics = if metrics.active_cells.is_enabled() {
            Some(metrics)
        } else {
            None
        };
    }
}

/// Entities appeared in a previously empty cell: fold it into the occupancy
/// and pressure sets and mark its neighbors — their requester masks read
/// this cell's emptiness next round.
fn note_occupied(sched: &mut Sched, topo: &NeighborTable, k: u32) {
    for &ni in &topo.nbr_idx[k as usize] {
        if ni != NO_NBR {
            sched.sig_next.insert(ni);
        }
    }
    sched.occupied.insert(k);
    sched.pressured.insert(k);
}

/// One worker's sparse `Route` sweep: kernel results for the cells in `ks`
/// whose routed registers would change.
fn route_band(
    topo: &NeighborTable,
    front: &[CellCore],
    link_cuts: &[u8],
    cap: u32,
    ks: &[u32],
    band: &mut RouteBand,
) {
    for &k in ks {
        let ku = k as usize;
        let c = front[ku];
        // Dense leaves failed cells and the target untouched too.
        if c.failed || ku == topo.target_index {
            continue;
        }
        let cut = if link_cuts.is_empty() { 0 } else { link_cuts[ku] };
        let (dist, next) = route_core(topo, front, cut, cap, ku);
        if dist != c.dist || next != c.next {
            push_tracked(&mut band.upd, (k, dist, next), &mut band.allocs);
        }
    }
}

/// One worker's sparse `Signal` sweep: kernel outputs for every non-failed
/// cell in `ks`, in list order.
#[allow(clippy::too_many_arguments)]
fn signal_band(
    topo: &NeighborTable,
    front: &[CellCore],
    members: &[Vec<(EntityId, Point)>],
    link_cuts: &[u8],
    params: Params,
    policy: TokenPolicy,
    round: u64,
    ks: &[u32],
    band: &mut SigBand,
) {
    for &k in ks {
        let ku = k as usize;
        if front[ku].failed {
            continue;
        }
        let cut = if link_cuts.is_empty() { 0 } else { link_cuts[ku] };
        let out = signal_core(topo, front, members, cut, params, policy, round, ku);
        push_tracked(&mut band.out, (k, out), &mut band.allocs);
    }
}

/// Moves everything from `src` onto the end of `dst`, counting growth.
fn drain_tracked<T>(dst: &mut Vec<T>, src: &mut Vec<T>, allocs: &mut u64) {
    for item in src.drain(..) {
        push_tracked(dst, item, allocs);
    }
}

/// Saturating nanoseconds since `t0` for the shard-phase histogram.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{update, Params, System};

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::square(8),
            CellId::new(1, 7),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
        .with_source(CellId::new(6, 0))
    }

    #[test]
    fn engine_matches_pure_phases_over_a_long_run() {
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        let mut state = cfg.initial_state();
        let mut mirror = cfg.initial_state();
        for round in 0..300 {
            let (next, events) = update(&cfg, &state, round);
            let ev = engine.step().clone();
            engine.store_state(&mut mirror);
            assert_eq!(mirror, next, "state diverged at round {round}");
            assert_eq!(ev.consumed, events.consumed, "round {round}");
            assert_eq!(ev.transfers, events.transfers, "round {round}");
            assert_eq!(ev.inserted, events.inserted, "round {round}");
            assert_eq!(ev.grants, events.grants, "round {round}");
            assert_eq!(ev.blocked, events.blocked, "round {round}");
            assert_eq!(ev.moved, events.moved, "round {round}");
            state = next;
        }
    }

    #[test]
    fn steady_state_rounds_allocate_nothing() {
        let cfg = config();
        let mut engine = Engine::new(cfg);
        for _ in 0..400 {
            engine.step();
        }
        engine.reset_alloc_events();
        for _ in 0..400 {
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "steady-state rounds must not grow any buffer"
        );
    }

    #[test]
    fn phase_timers_record_every_round_without_allocating() {
        use cellflow_telemetry::{PhaseTimers, Registry};
        let cfg = config();
        let mut engine = Engine::new(cfg);
        let reg = Registry::new();
        engine.attach_phase_timers(PhaseTimers::register(&reg));
        for _ in 0..100 {
            engine.step();
        }
        engine.reset_alloc_events();
        for _ in 0..100 {
            engine.step();
        }
        assert_eq!(engine.alloc_events(), 0, "timing must not allocate");
        let timers = PhaseTimers::register(&reg);
        assert_eq!(timers.round.count(), 200);
        assert_eq!(timers.route.count(), 200);
        assert_eq!(timers.signal.count(), 200);
        assert_eq!(timers.mv.count(), 200);
        assert!(timers.round.sum() >= timers.route.sum());
    }

    #[test]
    fn round_trace_attributes_phases_without_allocating() {
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        engine.enable_round_trace();
        assert_eq!(
            engine.round_trace(),
            RoundTrace {
                enabled: true,
                ..RoundTrace::default()
            }
        );
        let mut counts = Vec::new();
        for _ in 0..150 {
            engine.step();
            let t = engine.round_trace();
            assert_eq!(t.route_bands, 1, "8x8 never clears the shard threshold");
            counts.push((t.route_cells, t.signal_cells, t.move_cells));
        }
        // Counts mirror the deterministic sparse work lists.
        let mut replay = Engine::new(cfg.clone());
        replay.enable_round_trace();
        for expected in &counts {
            replay.step();
            let t = replay.round_trace();
            assert_eq!(*expected, (t.route_cells, t.signal_cells, t.move_cells));
        }
        // Sparse rounds in a driven system sweep fewer cells than the grid.
        assert!(counts.iter().any(|&(r, _, _)| r < 64 && r > 0));
        // Dense mode attributes the whole grid to every phase.
        let mut dense = Engine::new(cfg);
        dense.set_exec_mode(ExecMode::Dense);
        dense.enable_round_trace();
        dense.step();
        let t = dense.round_trace();
        assert_eq!(
            (t.route_cells, t.signal_cells, t.move_cells),
            (64, 64, 64)
        );
        // And tracing must not break the zero-alloc steady state.
        engine.reset_alloc_events();
        for _ in 0..150 {
            engine.step();
        }
        assert_eq!(engine.alloc_events(), 0, "tracing must not allocate");
    }

    #[test]
    fn disabled_timers_stay_detached() {
        use cellflow_telemetry::{PhaseTimers, Registry};
        let cfg = config();
        let mut engine = Engine::new(cfg);
        engine.attach_phase_timers(PhaseTimers::register(&Registry::disabled()));
        assert!(engine.timers.is_none(), "disabled registry must not attach");
        engine.step();
    }

    #[test]
    fn load_store_roundtrips_arbitrary_states() {
        let cfg = config();
        let mut sys = System::new(cfg.clone());
        sys.run(50);
        sys.fail(CellId::new(3, 3));
        let mut state = sys.state().clone();
        // Junk ne_prev that no mask can express (contains a non-neighbor).
        state
            .cells[0]
            .ne_prev
            .extend([CellId::new(7, 7), CellId::new(1, 0)]);
        let mut engine = Engine::new(cfg);
        engine.load_state(&state);
        assert_eq!(engine.export_state(), state);
    }

    #[test]
    fn override_is_dropped_once_signal_rewrites_the_cell() {
        let cfg = config();
        let mut state = cfg.initial_state();
        state.cells[0].ne_prev.insert(CellId::new(7, 7)); // non-neighbor junk
        let mut engine = Engine::new(cfg.clone());
        engine.load_state(&state);
        engine.step();
        let exported = engine.export_state();
        // Signal recomputed ne_prev from actual neighbors: junk gone.
        assert!(!exported.cells[0].ne_prev.contains(&CellId::new(7, 7)));
        // And it matches the reference transition.
        let (next, _) = update(&cfg, &state, 0);
        assert_eq!(exported, next);
    }

    #[test]
    fn neighbor_table_slots_follow_dir_all() {
        let dims = GridDims::square(3);
        let t = NeighborTable::new(dims, CellId::new(2, 1));
        let k = dims.index(CellId::new(1, 1));
        assert_eq!(t.id_at(k), CellId::new(1, 1));
        for (s, &dir) in Dir::ALL.iter().enumerate() {
            let expected = CellId::new(1, 1).step(dir).unwrap();
            assert_eq!(t.nbr_id[k][s], expected);
            assert_eq!(t.nbr_idx[k][s] as usize, dims.index(expected));
        }
        // Corner ⟨0,0⟩: west and south are off-grid.
        let c = dims.index(CellId::new(0, 0));
        assert_eq!(t.nbr_idx[c][1], NO_NBR);
        assert_eq!(t.nbr_idx[c][3], NO_NBR);
        assert_eq!(t.len(), 9);
        assert!(!t.is_empty());
    }

    #[test]
    fn sorted_slots_visit_neighbors_in_ascending_id_order() {
        let dims = GridDims::square(3);
        let t = NeighborTable::new(dims, CellId::new(2, 1));
        let k = dims.index(CellId::new(1, 1));
        let visited: Vec<CellId> = SORTED_SLOTS.iter().map(|&s| t.nbr_id[k][s]).collect();
        let mut sorted = visited.clone();
        sorted.sort();
        assert_eq!(visited, sorted);
    }

    #[test]
    fn engine_handles_corrupted_registers_like_the_reference() {
        use crate::fault::Corruption;
        let cfg = config();
        let mut sys = System::new(cfg.clone()); // engine-backed
        let mut state = cfg.initial_state();
        let schedule = [
            (5u64, CellId::new(2, 2), Corruption::Scramble { salt: 11 }),
            (9, CellId::new(4, 4), Corruption::NePrev { mask: 0b1010 }),
            (13, CellId::new(1, 1), Corruption::Dist(Dist::Finite(0))),
            (17, CellId::new(5, 5), Corruption::Token(Some(Dir::West))),
        ];
        for step in 0..40u64 {
            for &(when, cell, corr) in &schedule {
                if when == step {
                    sys.corrupt(cell, corr);
                    let dims = cfg.dims();
                    corr.apply(&cfg, cell, state.cell_mut(dims, cell));
                }
            }
            let (next, _) = update(&cfg, &state, step);
            sys.step();
            state = next;
            assert_eq!(sys.state(), &state, "diverged at step {step}");
        }
    }

    #[test]
    fn transfers_never_cross_a_cut_edge_and_safety_holds() {
        use crate::fault::PartitionPlan;
        let cfg = config(); // sources at (1,0) and (6,0); target (1,7)
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(120);
        let mut sys = System::new(cfg.clone());
        for round in 0..120u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            let events = sys.step();
            for t in &events.transfers {
                assert_eq!(
                    t.from.i() < 4,
                    t.to.i() < 4,
                    "transfer {:?} crossed the cut at round {round}",
                    t
                );
            }
            crate::safety::check_safe(sys.config(), sys.state())
                .unwrap_or_else(|v| panic!("unsafe at round {round}: {v:?}"));
        }
        // The side cut off from the target sees only ∞/⊥ toward it.
        assert!(sys.consumed_total() > 0, "open side still makes progress");
    }

    #[test]
    fn healing_restores_routing_within_the_bound() {
        use crate::fault::PartitionPlan;
        use crate::monitor::stabilization_bound;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(80);
        let mut sys = System::new(cfg.clone());
        for round in 0..80u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
        }
        assert!(
            !crate::analysis::routing_stabilized(sys.config(), sys.state()),
            "a split grid must not look stabilized"
        );
        sys.clear_link_cuts();
        sys.run(stabilization_bound(&cfg));
        assert!(
            crate::analysis::routing_stabilized(sys.config(), sys.state()),
            "routing must recover within 2N²+2 rounds of healing"
        );
    }

    #[test]
    fn asymmetric_cut_masks_only_one_direction() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let a = CellId::new(1, 3);
        let b = CellId::new(1, 4);
        // Cut only a's view of b: b's announcements (dist, grants) are lost
        // on the way to a, but a's announcements still reach b.
        let plan = PartitionPlan::for_grid(cfg.dims()).cut(b, a, 0, None);
        let schedule = plan.expand(200);
        let mut sys = System::new(cfg.clone());
        for round in 0..200u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            let events = sys.step();
            for t in &events.transfers {
                assert!(
                    !(t.from == a && t.to == b),
                    "a → b needs b's grant, which a can no longer hear (round {round})"
                );
            }
        }
    }

    #[test]
    fn masked_rounds_allocate_nothing_after_warmup() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_row(3, 0, Some(150));
        let schedule = plan.expand(400);
        let mut engine = Engine::new(cfg);
        engine.set_link_cuts(schedule.mask_row(0)); // allocates the mask row once
        for round in 0..200u64 {
            engine.set_link_cuts(schedule.mask_row(round));
            engine.step();
        }
        engine.reset_alloc_events();
        for round in 200..400u64 {
            engine.set_link_cuts(schedule.mask_row(round));
            engine.step();
        }
        assert_eq!(
            engine.alloc_events(),
            0,
            "per-round mask updates must reuse the existing buffer"
        );
    }

    #[test]
    fn sparse_and_sharded_match_dense_round_for_round() {
        let cfg = config();
        let mut dense = Engine::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        let mut sparse = Engine::new(cfg.clone());
        let mut sharded = Engine::new(cfg);
        sharded.set_workers(4);
        sharded.set_shard_min(1); // force fan-out even on a tiny grid
        let mut a = dense.export_state();
        let mut b = a.clone();
        for round in 0..300 {
            let ed = dense.step().clone();
            let es = sparse.step().clone();
            assert_eq!(ed, es, "sparse events diverged at round {round}");
            let eh = sharded.step().clone();
            assert_eq!(ed, eh, "sharded events diverged at round {round}");
            dense.store_state(&mut a);
            sparse.store_state(&mut b);
            assert_eq!(a, b, "sparse state diverged at round {round}");
            sharded.store_state(&mut b);
            assert_eq!(a, b, "sharded state diverged at round {round}");
        }
    }

    #[test]
    fn sparse_matches_dense_under_partitions_and_heal() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 10, Some(120));
        let schedule = plan.expand(200);
        let mut dense = Engine::new(cfg.clone());
        dense.set_exec_mode(ExecMode::Dense);
        let mut sharded = Engine::new(cfg);
        sharded.set_workers(2);
        sharded.set_shard_min(1);
        let mut a = dense.export_state();
        let mut b = a.clone();
        for round in 0..200u64 {
            dense.set_link_cuts(schedule.mask_row(round));
            sharded.set_link_cuts(schedule.mask_row(round));
            let ed = dense.step().clone();
            let eh = sharded.step().clone();
            assert_eq!(ed, eh, "events diverged at round {round}");
            dense.store_state(&mut a);
            sharded.store_state(&mut b);
            assert_eq!(a, b, "state diverged at round {round}");
        }
    }

    #[test]
    fn mode_switches_mid_run_stay_equivalent() {
        let cfg = config();
        let mut reference = Engine::new(cfg.clone());
        reference.set_exec_mode(ExecMode::Dense);
        let mut toggled = Engine::new(cfg);
        let mut a = reference.export_state();
        let mut b = a.clone();
        for round in 0..240 {
            if round % 60 == 0 {
                let mode = if (round / 60) % 2 == 0 {
                    ExecMode::Sparse
                } else {
                    ExecMode::Dense
                };
                toggled.set_exec_mode(mode);
            }
            let er = reference.step().clone();
            let et = toggled.step().clone();
            assert_eq!(er, et, "events diverged at round {round}");
            reference.store_state(&mut a);
            toggled.store_state(&mut b);
            assert_eq!(a, b, "state diverged at round {round}");
        }
    }

    #[test]
    fn quiescent_grid_collapses_to_an_empty_active_set() {
        // No sources: once the distance flood reaches its fixed point and no
        // entities exist, every per-round list must drain to nothing.
        let cfg = SystemConfig::new(
            GridDims::square(16),
            CellId::new(1, 15),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap();
        let mut engine = Engine::new(cfg);
        for _ in 0..200 {
            engine.step();
        }
        assert_eq!(
            engine.active_cells(),
            0,
            "a quiescent grid must cost O(active) = 0"
        );
        engine.reset_alloc_events();
        for _ in 0..100 {
            engine.step();
        }
        assert_eq!(engine.alloc_events(), 0, "quiescent rounds must not allocate");
    }

    #[test]
    fn steady_state_active_set_stays_a_small_fraction_of_the_grid() {
        // One source in a 24×24 grid: traffic occupies a corridor, not the
        // whole grid. The active set must track the corridor.
        let cfg = SystemConfig::new(
            GridDims::square(24),
            CellId::new(1, 23),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0));
        let mut engine = Engine::new(cfg);
        for _ in 0..400 {
            engine.step();
        }
        let n = 24 * 24;
        assert!(
            engine.active_cells() < n / 4,
            "active set {} should be well under a quarter of {} cells",
            engine.active_cells(),
            n
        );
        assert!(engine.active_cells() > 0, "traffic keeps some cells active");
    }

    #[test]
    fn scheduler_metrics_report_occupancy_and_detach_when_disabled() {
        use cellflow_telemetry::{Registry, SchedulerMetrics};
        let cfg = config();
        let mut engine = Engine::new(cfg.clone());
        let reg = Registry::new();
        engine.attach_scheduler_metrics(SchedulerMetrics::register(&reg));
        for _ in 0..50 {
            engine.step();
        }
        let m = SchedulerMetrics::register(&reg);
        assert!(m.active_cells.value() >= 0);
        assert!(
            m.skipped_cells.value() > 0,
            "a small grid still skips cells once warmed up"
        );
        let mut detached = Engine::new(cfg);
        detached.attach_scheduler_metrics(SchedulerMetrics::register(&Registry::disabled()));
        assert!(detached.sched_metrics.is_none());
    }

    #[test]
    fn sharded_workers_clamp_and_thresholds_hold() {
        let cfg = config();
        let mut engine = Engine::new(cfg);
        engine.set_workers(0);
        assert_eq!(engine.workers(), 1);
        engine.set_workers(8);
        assert_eq!(engine.workers(), 8);
        assert_eq!(engine.exec_mode(), ExecMode::Sparse);
        // Default threshold keeps an 8×8 grid sequential; rounds still work.
        for _ in 0..50 {
            engine.step();
        }
        assert!(engine.active_cells() <= 64);
    }

    #[test]
    fn changed_slice_covers_every_exported_change() {
        use crate::fault::Corruption;
        let cfg = config();
        let dims = cfg.dims();
        let mut engine = Engine::new(cfg.clone());
        assert_eq!(engine.changed_cells(), None, "nothing has been published yet");
        engine.step();
        let mut before = engine.export_state();
        let victim = CellId::new(1, 4);
        for round in 1..200u64 {
            // Point writes between rounds: a crash, a recovery, corruptions.
            let mut cell = before.cell(dims, victim).clone();
            match round % 50 {
                10 => before.fail(dims, victim),
                20 => before.recover(dims, victim, cfg.target()),
                30 => Corruption::Scramble { salt: round }.apply(&cfg, victim, &mut cell),
                _ => {}
            }
            if round % 50 == 30 {
                *before.cell_mut(dims, victim) = cell;
            }
            if matches!(round % 50, 10 | 20 | 30) {
                engine.load_cell(victim, before.cell(dims, victim));
            }
            let loaded = before.clone();
            engine.step();
            let after = engine.export_state();
            let changed = engine.changed_cells().expect("sparse rounds publish a slice");
            assert!(
                changed.windows(2).all(|w| w[0] < w[1]),
                "slice not ascending and distinct at round {round}"
            );
            for k in 0..after.cells.len() {
                if after.cells[k] != loaded.cells[k] {
                    assert!(
                        changed.binary_search(&(k as u32)).is_ok(),
                        "cell {} changed in round {round} but is not in the slice",
                        dims.id_at(k)
                    );
                }
            }
            before = after;
        }
        engine.set_exec_mode(ExecMode::Dense);
        engine.step();
        assert_eq!(engine.changed_cells(), None, "dense rounds track nothing");
        engine.set_exec_mode(ExecMode::Sparse);
        engine.step();
        assert!(engine.changed_cells().is_some());
        engine.load_state(&before);
        engine.step();
        assert_eq!(engine.changed_cells(), None, "a wholesale load changes every cell");
    }

    #[test]
    fn cuts_survive_load_state_and_clear_restores_the_fast_path() {
        use crate::fault::PartitionPlan;
        let cfg = config();
        let plan = PartitionPlan::for_grid(cfg.dims()).split_col(4, 0, None);
        let schedule = plan.expand(40);
        let mut sys = System::new(cfg.clone());
        for round in 0..40u64 {
            sys.set_link_cuts(schedule.mask_row(round));
            sys.step();
        }
        // fail() point-writes the engine between steps; the cuts must persist.
        sys.fail(CellId::new(6, 6));
        let events = sys.step();
        for t in &events.transfers {
            assert_eq!(t.from.i() < 4, t.to.i() < 4, "cut lost across load_state");
        }
        // Clearing the cuts makes the system behave exactly like the
        // reference semantics again.
        sys.clear_link_cuts();
        let mut state = sys.state().clone();
        let round = sys.round();
        for step in 0..30u64 {
            let (next, _) = update(sys.config(), &state, round + step);
            sys.step();
            state = next;
            assert_eq!(sys.state(), &state, "diverged after clear at step {step}");
        }
    }

    /// Scattered, repeated insertions into an `n`-cell set, with the
    /// reference membership kept in a `BTreeSet`.
    fn scattered(n: usize) -> (MarkSet, BTreeSet<u32>) {
        let mut set = MarkSet::with_cells(n);
        let mut want = BTreeSet::new();
        for i in 0..2 * n as u64 {
            let k = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % n as u64;
            if i % 3 != 0 {
                set.insert(k as u32);
                want.insert(k as u32);
            }
        }
        (set, want)
    }

    fn scanned(set: &mut MarkSet) -> Vec<u32> {
        set.scan(&mut 0);
        set.list.clone()
    }

    /// Cell counts that end mid-word (23² = 529), span a second summary
    /// word (70² = 4900) or sit on word and summary boundaries.
    const MARK_SET_SIZES: [usize; 7] = [1, 63, 64, 23 * 23, 4096, 4097, 70 * 70];

    #[test]
    fn mark_set_scans_ascending_and_duplicate_free() {
        for n in MARK_SET_SIZES {
            let (mut set, want) = scattered(n);
            let got = scanned(&mut set);
            assert_eq!(got, want.iter().copied().collect::<Vec<_>>(), "n = {n}");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "n = {n}");
        }
        let mut set = MarkSet::with_cells(70 * 70);
        for k in [4899, 0, 4095, 4096, 63, 64, 4899, 0] {
            set.insert(k);
        }
        assert_eq!(scanned(&mut set), [0, 63, 64, 4095, 4096, 4899]);
    }

    #[test]
    fn mark_set_begin_clears_the_set() {
        for n in MARK_SET_SIZES {
            let (mut set, _) = scattered(n);
            scanned(&mut set);
            set.begin();
            assert!(set.list.is_empty(), "n = {n}");
            assert!(scanned(&mut set).is_empty(), "n = {n}");
            assert!(set.bits.iter().chain(&set.summary).all(|&w| w == 0));
            set.insert(n as u32 - 1);
            assert_eq!(scanned(&mut set), [n as u32 - 1], "n = {n}");
        }
    }

    #[test]
    fn mark_set_retain_removes_cells_and_their_summary_bits() {
        for n in MARK_SET_SIZES {
            let (mut set, mut want) = scattered(n);
            let victim = *want.iter().nth(want.len() / 2).expect("nonempty");
            set.retain(|k| k != victim);
            want.remove(&victim);
            assert_eq!(scanned(&mut set), want.iter().copied().collect::<Vec<_>>());
            // Dropping the odd cells through a filtered scan.
            set.scan_retain(|k| k % 2 == 0, &mut 0);
            want.retain(|k| k % 2 == 0);
            assert_eq!(set.list, want.iter().copied().collect::<Vec<_>>());
            assert_eq!(scanned(&mut set), set.list.clone());
            // Emptying every word leaves no summary bit behind.
            set.retain(|_| false);
            assert!(set.bits.iter().chain(&set.summary).all(|&w| w == 0));
        }
    }

    #[test]
    fn mark_set_fill_all_covers_exactly_the_grid() {
        for n in MARK_SET_SIZES {
            let mut set = MarkSet::with_cells(n);
            set.fill_all();
            assert_eq!(
                scanned(&mut set),
                (0..n as u32).collect::<Vec<_>>(),
                "n = {n}"
            );
            let empty = MarkSet::with_cells(n);
            assert_eq!(union_len(&set, &empty, &empty), n, "n = {n}");
            set.begin();
            assert!(scanned(&mut set).is_empty(), "n = {n}");
        }
    }

    #[test]
    fn union_len_counts_distinct_cells_across_three_sets() {
        for n in MARK_SET_SIZES {
            let (a, wa) = scattered(n);
            let mut b = MarkSet::with_cells(n);
            let mut c = MarkSet::with_cells(n);
            let mut want = wa.clone();
            for k in (0..n as u32).step_by(5) {
                b.insert(k);
                want.insert(k);
            }
            c.insert(n as u32 - 1);
            want.insert(n as u32 - 1);
            assert_eq!(union_len(&a, &b, &c), want.len(), "n = {n}");
        }
    }

    /// The merging-corridor shape: sources on every other boundary cell,
    /// all draining to the centre, so about half the grid is active.
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

    #[test]
    fn active_cells_is_the_union_of_the_phase_work_lists() {
        for n in [23u16, 70] {
            let mut engine = Engine::new(dense_merge_config(n));
            for round in 0..150 {
                engine.step();
                let s = &engine.sched;
                let union: BTreeSet<u32> = s
                    .route_now
                    .list
                    .iter()
                    .chain(&s.sig_now.list)
                    .chain(&s.occupied.list)
                    .copied()
                    .collect();
                assert_eq!(engine.active_cells(), union.len(), "n = {n}, round {round}");
            }
            let half = usize::from(n) * usize::from(n) / 4;
            assert!(
                engine.active_cells() > half,
                "n = {n}: the merge keeps a dense active set"
            );
        }
    }
}
