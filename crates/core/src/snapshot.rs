//! The deterministic state codec behind flight recordings: keyframe and
//! delta encodings of [`SystemState`], register-level diffing, keyframe-seek
//! state reconstruction, and divergence bisection.
//!
//! The `.rec` *container* (checksummed frames, header, corruption reporting)
//! lives in `cellflow_telemetry::recording`; this module owns the frame
//! *payloads* — it is the only place that knows how a [`SystemState`] is
//! laid out on disk. The encoding is canonical: equal states produce equal
//! bytes (members and `ne_prev` iterate in their `BTreeMap`/`BTreeSet`
//! order), so byte-comparing two recordings of the same seeded scenario is
//! a sound equality test and the `cellflow replay` byte-identity check is
//! exact.
//!
//! Layouts (all integers little-endian):
//!
//! * **keyframe** — `[cell_count u32][next_entity_id u64][cell]*`, one
//!   `cell` per grid index in row-major order;
//! * **delta** — `[next_entity_id u64][changed u32]` then `changed` entries
//!   of `[index u32][cell]`, listing exactly the cells whose state differs
//!   from the previous round (indices ascending);
//! * **cell** — `dist` (`0` = ∞, `1 u32` = finite), then `next`/`token`/
//!   `signal` as optional cell ids (`0` = ⊥, `1 u16 u16` = `⟨i, j⟩`),
//!   `failed u8`, `ne_prev` (`u16` count + `u16 u16` pairs), and `members`
//!   (`u32` count + `[id u64][x raw i64][y raw i64]` triples).
//!
//! Reconstructing the state at round `r` never replays the run: seek the
//! latest keyframe at or before `r`, then apply at most
//! `keyframe_interval − 1` deltas ([`state_at`]). [`bisect`] builds on that
//! to find the first divergent round of two recordings without decoding
//! every frame of both.

use std::collections::{BTreeMap, BTreeSet};

use cellflow_geom::{Fixed, Point};
use cellflow_grid::{CellId, GridDims};
use cellflow_routing::Dist;
use cellflow_telemetry::recording::{
    FrameKind, RecHeader, Recording, RecordingWriter, REC_SCHEMA_VERSION,
};

use crate::engine::{CellScope, Engine};
use crate::hash::fnv1a;
use crate::{CellState, EntityId, SystemConfig, SystemState};

/// The per-cell registers a recording can disagree on, in the order
/// [`diff_states`] reports them (protocol registers first, derived ones
/// after).
pub const REGISTERS: [&str; 8] = [
    "dist",
    "next",
    "token",
    "signal",
    "occupancy",
    "failed",
    "ne_prev",
    "members",
];

/// A deterministic one-line summary of a [`SystemConfig`] — the `config`
/// string stored in every recording header, and the input to
/// [`config_checksum`]. Derived caches (the topology table) are excluded,
/// so equal configurations always summarize identically.
pub fn config_summary(config: &SystemConfig) -> String {
    let sources: Vec<String> = config.sources().iter().map(|s| s.to_string()).collect();
    format!(
        "grid={} target={} sources=[{}] params={:?} dist_cap={} token={:?} source_policy={:?} entity_budget={:?} capacity={:?}",
        config.dims(),
        config.target(),
        sources.join(" "),
        config.params(),
        config.dist_cap(),
        config.token_policy(),
        config.source_policy(),
        config.entity_budget(),
        config.capacity(),
    )
}

/// FNV-1a checksum of [`config_summary`] — the recording header's
/// `config_checksum`. A replay refuses to re-drive a recording whose
/// checksum does not match the configuration it rebuilt.
pub fn config_checksum(config: &SystemConfig) -> u64 {
    fnv1a(config_summary(config).as_bytes())
}

/// Builds a recording header for `config`: dims, summary and checksum
/// filled in; `rounds` and `content_id` are sealed by the writer.
pub fn recording_header(
    config: &SystemConfig,
    seed: u64,
    keyframe_interval: u64,
    scenario: &str,
) -> RecHeader {
    RecHeader {
        schema: REC_SCHEMA_VERSION,
        seed,
        nx: config.dims().nx(),
        ny: config.dims().ny(),
        keyframe_interval,
        rounds: 0,
        config_checksum: config_checksum(config),
        content_id: 0,
        config: config_summary(config),
        scenario: scenario.to_string(),
    }
}

/// The grid a recording header describes.
///
/// # Errors
///
/// Rejects zero extents (a crafted or corrupt header).
pub fn header_dims(header: &RecHeader) -> Result<GridDims, String> {
    if header.nx == 0 || header.ny == 0 {
        return Err(format!(
            "header grid {}×{} has a zero extent",
            header.nx, header.ny
        ));
    }
    Ok(GridDims::new(header.nx, header.ny))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_cell_ref(out: &mut Vec<u8>, id: Option<CellId>) {
    match id {
        None => out.push(0),
        Some(id) => {
            out.push(1);
            put_u16(out, id.i());
            put_u16(out, id.j());
        }
    }
}

fn put_cell(out: &mut Vec<u8>, cell: &CellState) {
    match cell.dist {
        Dist::Infinity => out.push(0),
        Dist::Finite(d) => {
            out.push(1);
            put_u32(out, d);
        }
    }
    put_cell_ref(out, cell.next);
    put_cell_ref(out, cell.token);
    put_cell_ref(out, cell.signal);
    out.push(cell.failed as u8);
    put_u16(out, cell.ne_prev.len() as u16);
    for &m in &cell.ne_prev {
        put_u16(out, m.i());
        put_u16(out, m.j());
    }
    put_u32(out, cell.members.len() as u32);
    for (&e, &p) in &cell.members {
        put_u64(out, e.0);
        put_i64(out, p.x.raw());
        put_i64(out, p.y.raw());
    }
}

/// Appends the canonical keyframe encoding of `state` to `out`.
pub fn encode_state_into(out: &mut Vec<u8>, state: &SystemState) {
    put_u32(out, state.cells.len() as u32);
    put_u64(out, state.next_entity_id);
    for cell in &state.cells {
        put_cell(out, cell);
    }
}

/// The canonical keyframe encoding of `state` as a fresh buffer.
pub fn encode_state(state: &SystemState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_state_into(&mut out, state);
    out
}

/// Appends the canonical delta from `prev` to `cur` to `out`: exactly the
/// cells whose state changed, in ascending index order.
///
/// # Panics
///
/// Panics if the two states cover different cell counts.
pub fn encode_delta_into(out: &mut Vec<u8>, prev: &SystemState, cur: &SystemState) {
    assert_eq!(
        prev.cells.len(),
        cur.cells.len(),
        "delta endpoints must share a grid"
    );
    let mut delta = DeltaBody::begin(out, cur.next_entity_id);
    for (k, (p, c)) in prev.cells.iter().zip(cur.cells.iter()).enumerate() {
        if p != c {
            delta.cell(out, k, c);
        }
    }
    delta.finish(out);
}

/// A delta body being appended to a buffer: the header first, then one
/// `[index][cell]` entry per changed cell (callers list them in ascending
/// index order), with the entry count patched in by [`DeltaBody::finish`].
struct DeltaBody {
    count_at: usize,
    listed: u32,
}

impl DeltaBody {
    fn begin(out: &mut Vec<u8>, next_entity_id: u64) -> DeltaBody {
        put_u64(out, next_entity_id);
        let count_at = out.len();
        put_u32(out, 0);
        DeltaBody {
            count_at,
            listed: 0,
        }
    }

    fn cell(&mut self, out: &mut Vec<u8>, k: usize, cell: &CellState) {
        put_u32(out, k as u32);
        put_cell(out, cell);
        self.listed += 1;
    }

    fn finish(self, out: &mut [u8]) {
        out[self.count_at..self.count_at + 4].copy_from_slice(&self.listed.to_le_bytes());
    }
}

/// [`encode_delta_into`] into a fresh buffer.
pub fn encode_delta(prev: &SystemState, cur: &SystemState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_delta_into(&mut out, prev, cur);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| "state payload truncated".to_string())?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn cell_ref(&mut self) -> Result<Option<CellId>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(CellId::new(self.u16()?, self.u16()?))),
            t => Err(format!("unknown cell-reference tag {t}")),
        }
    }

    fn cell(&mut self) -> Result<CellState, String> {
        let dist = match self.u8()? {
            0 => Dist::Infinity,
            1 => Dist::Finite(self.u32()?),
            t => return Err(format!("unknown dist tag {t}")),
        };
        let next = self.cell_ref()?;
        let token = self.cell_ref()?;
        let signal = self.cell_ref()?;
        let failed = match self.u8()? {
            0 => false,
            1 => true,
            t => return Err(format!("unknown failed flag {t}")),
        };
        let n = self.u16()? as usize;
        let mut ne_prev = BTreeSet::new();
        for _ in 0..n {
            ne_prev.insert(CellId::new(self.u16()?, self.u16()?));
        }
        let m = self.u32()? as usize;
        let mut members = BTreeMap::new();
        for _ in 0..m {
            let id = EntityId(self.u64()?);
            let x = Fixed::from_raw(self.i64()?);
            let y = Fixed::from_raw(self.i64()?);
            members.insert(id, Point::new(x, y));
        }
        Ok(CellState {
            members,
            dist,
            next,
            ne_prev,
            token,
            signal,
            failed,
        })
    }

    fn finish(&self, what: &str) -> Result<(), String> {
        if self.at != self.bytes.len() {
            return Err(format!("trailing bytes after the {what} payload"));
        }
        Ok(())
    }
}

/// Decodes a keyframe body back into a [`SystemState`].
///
/// # Errors
///
/// Rejects truncated payloads, unknown tags, trailing bytes, and a cell
/// count that does not match `dims`.
pub fn decode_state(body: &[u8], dims: GridDims) -> Result<SystemState, String> {
    let mut d = Dec::new(body);
    let n = d.u32()? as usize;
    if n != dims.cell_count() {
        return Err(format!(
            "keyframe holds {n} cell(s), the {dims} grid needs {}",
            dims.cell_count()
        ));
    }
    let next_entity_id = d.u64()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(d.cell()?);
    }
    d.finish("keyframe")?;
    Ok(SystemState {
        cells,
        next_entity_id,
    })
}

/// Applies a delta body to `state` in place.
///
/// # Errors
///
/// Rejects truncated payloads, unknown tags, trailing bytes, and indices
/// past the grid; `state` may be partially updated on error.
pub fn apply_delta(state: &mut SystemState, body: &[u8]) -> Result<(), String> {
    let mut d = Dec::new(body);
    state.next_entity_id = d.u64()?;
    let n = d.u32()? as usize;
    for _ in 0..n {
        let idx = d.u32()? as usize;
        let cell = d.cell()?;
        let count = state.cells.len();
        let slot = state.cells.get_mut(idx).ok_or_else(|| {
            format!("delta touches cell index {idx}, past the {count}-cell grid")
        })?;
        *slot = cell;
    }
    d.finish("delta")
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One register-level disagreement between two states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterDiff {
    /// The disagreeing cell; `None` for system-level registers
    /// (`next_entity_id`).
    pub cell: Option<CellId>,
    /// Which register disagrees (one of [`REGISTERS`] or
    /// `"next_entity_id"`).
    pub register: &'static str,
    /// The register's rendered value in the first state.
    pub a: String,
    /// The register's rendered value in the second state.
    pub b: String,
}

fn fmt_cell_ref(id: Option<CellId>) -> String {
    match id {
        None => "⊥".to_string(),
        Some(id) => id.to_string(),
    }
}

fn fmt_set(set: &BTreeSet<CellId>) -> String {
    let items: Vec<String> = set.iter().map(|c| c.to_string()).collect();
    format!("{{{}}}", items.join(" "))
}

/// Renders the first member entry on which the two (equal-occupancy) maps
/// disagree, from `this` map's perspective.
fn fmt_member_diff(this: &BTreeMap<EntityId, Point>, other: &BTreeMap<EntityId, Point>) -> String {
    for ((&ida, &pa), (&idb, &pb)) in this.iter().zip(other.iter()) {
        if (ida, pa) != (idb, pb) {
            return format!("id {} @ ({}, {})", ida.0, pa.x, pa.y);
        }
    }
    "≡".to_string()
}

/// All register-level disagreements between `a` and `b`: the system-level
/// `next_entity_id` first, then cells in row-major order, registers in
/// [`REGISTERS`] order within a cell. Empty iff `a == b`.
///
/// # Panics
///
/// Panics if the states cover different cell counts (callers compare
/// recordings of the same grid; [`bisect`] checks headers first).
pub fn diff_states(dims: GridDims, a: &SystemState, b: &SystemState) -> Vec<RegisterDiff> {
    assert_eq!(
        a.cells.len(),
        b.cells.len(),
        "diffed states must share a grid"
    );
    let mut out = Vec::new();
    if a.next_entity_id != b.next_entity_id {
        out.push(RegisterDiff {
            cell: None,
            register: "next_entity_id",
            a: a.next_entity_id.to_string(),
            b: b.next_entity_id.to_string(),
        });
    }
    for (k, (ca, cb)) in a.cells.iter().zip(b.cells.iter()).enumerate() {
        if ca == cb {
            continue;
        }
        let id = dims.id_at(k);
        let mut push = |register: &'static str, va: String, vb: String| {
            out.push(RegisterDiff {
                cell: Some(id),
                register,
                a: va,
                b: vb,
            });
        };
        if ca.dist != cb.dist {
            push("dist", ca.dist.to_string(), cb.dist.to_string());
        }
        if ca.next != cb.next {
            push("next", fmt_cell_ref(ca.next), fmt_cell_ref(cb.next));
        }
        if ca.token != cb.token {
            push("token", fmt_cell_ref(ca.token), fmt_cell_ref(cb.token));
        }
        if ca.signal != cb.signal {
            push("signal", fmt_cell_ref(ca.signal), fmt_cell_ref(cb.signal));
        }
        if ca.members.len() != cb.members.len() {
            push(
                "occupancy",
                ca.members.len().to_string(),
                cb.members.len().to_string(),
            );
        } else if ca.members != cb.members {
            push(
                "members",
                fmt_member_diff(&ca.members, &cb.members),
                fmt_member_diff(&cb.members, &ca.members),
            );
        }
        if ca.failed != cb.failed {
            push("failed", ca.failed.to_string(), cb.failed.to_string());
        }
        if ca.ne_prev != cb.ne_prev {
            push("ne_prev", fmt_set(&ca.ne_prev), fmt_set(&cb.ne_prev));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reconstruction and bisection
// ---------------------------------------------------------------------------

/// Reconstructs the state at `round` from a recording: seek the latest
/// keyframe at or before `round`, then apply at most
/// `keyframe_interval − 1` deltas — never a full replay.
///
/// # Errors
///
/// Rejects rounds outside the recording and undecodable frame bodies.
pub fn state_at(rec: &Recording, round: u64) -> Result<SystemState, String> {
    let dims = header_dims(&rec.header)?;
    let idx = rec
        .frame_index(round)
        .ok_or_else(|| format!("round {round} is not in the recording"))?;
    let kf = rec
        .keyframe_at_or_before(round)
        .ok_or_else(|| format!("no keyframe at or before round {round}"))?;
    let mut state = decode_state(&rec.frames[kf].body, dims)?;
    for f in &rec.frames[kf + 1..=idx] {
        match f.kind {
            FrameKind::Keyframe => state = decode_state(&f.body, dims)?,
            FrameKind::Delta => apply_delta(&mut state, &f.body)?,
        }
    }
    Ok(state)
}

/// Steps an already-reconstructed state forward to `round` (the next frame).
fn advance(rec: &Recording, round: u64, state: &mut SystemState) -> Result<(), String> {
    let dims = header_dims(&rec.header)?;
    let idx = rec
        .frame_index(round)
        .ok_or_else(|| format!("round {round} is not in the recording"))?;
    match rec.frames[idx].kind {
        FrameKind::Keyframe => *state = decode_state(&rec.frames[idx].body, dims)?,
        FrameKind::Delta => apply_delta(state, &rec.frames[idx].body)?,
    }
    Ok(())
}

/// The first round on which two recordings disagree, pinned to the first
/// disagreeing cell and register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The first recorded round whose states differ.
    pub round: u64,
    /// The first disagreeing cell (row-major order); `None` when only the
    /// system-level `next_entity_id` differs.
    pub cell: Option<CellId>,
    /// The first disagreeing register on that cell.
    pub register: &'static str,
    /// The register's value in the first recording.
    pub a: String,
    /// The register's value in the second recording.
    pub b: String,
}

/// Finds the first divergent round of two recordings, or `None` if their
/// common round range is byte- and state-identical.
///
/// Because the encoder is canonical, a byte-identical frame prefix implies
/// state-identical rounds — so the scan first locates the first
/// byte-divergent frame (a cheap comparison, no decoding), reconstructs
/// both states there with one keyframe seek each ([`state_at`]), and walks
/// deltas forward until the decoded states actually disagree. Only the
/// frames around the divergence are ever decoded.
///
/// # Errors
///
/// Rejects recordings of different grids or configurations, and
/// undecodable frame bodies.
pub fn bisect(a: &Recording, b: &Recording) -> Result<Option<Divergence>, String> {
    if (a.header.nx, a.header.ny) != (b.header.nx, b.header.ny) {
        return Err(format!(
            "recordings cover different grids ({}×{} vs {}×{})",
            a.header.nx, a.header.ny, b.header.nx, b.header.ny
        ));
    }
    if a.header.config_checksum != b.header.config_checksum {
        return Err(format!(
            "recordings have different configurations ({:016x} vs {:016x}): register diffs would be meaningless",
            a.header.config_checksum, b.header.config_checksum
        ));
    }
    let dims = header_dims(&a.header)?;
    let (Some((alo, ahi)), Some((blo, bhi))) = (a.round_span(), b.round_span()) else {
        return Ok(None);
    };
    let lo = alo.max(blo);
    let hi = ahi.min(bhi);
    if lo > hi {
        return Ok(None);
    }
    let mut candidate = None;
    for round in lo..=hi {
        let fa = &a.frames[a.frame_index(round).expect("round in span")];
        let fb = &b.frames[b.frame_index(round).expect("round in span")];
        if fa.kind != fb.kind || fa.body != fb.body {
            candidate = Some(round);
            break;
        }
    }
    let Some(first) = candidate else {
        return Ok(None);
    };
    let mut sa = state_at(a, first)?;
    let mut sb = state_at(b, first)?;
    let mut round = first;
    loop {
        if let Some(d) = diff_states(dims, &sa, &sb).into_iter().next() {
            return Ok(Some(Divergence {
                round,
                cell: d.cell,
                register: d.register,
                a: d.a,
                b: d.b,
            }));
        }
        if round == hi {
            return Ok(None);
        }
        round += 1;
        advance(a, round, &mut sa)?;
        advance(b, round, &mut sb)?;
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Streams a run's states into a `.rec` recording: a keyframe every
/// `keyframe_interval` frames, deltas between. Attach one to an
/// [`Engine`](crate::Engine) (via [`Engine::attach_recorder`] or the
/// [`System`](crate::System)/simulation passthroughs) and every completed
/// round records itself; or drive [`Recorder::record`] by hand.
#[derive(Clone, Debug)]
pub struct Recorder {
    writer: RecordingWriter,
    keyframe_interval: u64,
    /// The previously recorded state (delta base); `None` before the first
    /// frame.
    prev: Option<SystemState>,
    /// The engine round [`Recorder::record_engine`] last recorded; `None`
    /// before that, or after a by-hand [`Recorder::record`]. Only a frame
    /// exactly one round later may diff just the engine's changed slice.
    engine_round: Option<u64>,
    /// Reusable frame-body buffer.
    scratch: Vec<u8>,
}

impl Recorder {
    /// Starts a recording under `header`.
    ///
    /// # Panics
    ///
    /// Panics if the header's keyframe interval is zero.
    pub fn new(header: RecHeader) -> Recorder {
        assert!(
            header.keyframe_interval > 0,
            "keyframe interval must be positive"
        );
        let keyframe_interval = header.keyframe_interval;
        Recorder {
            writer: RecordingWriter::new(header),
            keyframe_interval,
            prev: None,
            engine_round: None,
            scratch: Vec::new(),
        }
    }

    /// Starts a recording for `config` (see [`recording_header`]).
    pub fn for_config(
        config: &SystemConfig,
        seed: u64,
        keyframe_interval: u64,
        scenario: &str,
    ) -> Recorder {
        Recorder::new(recording_header(config, seed, keyframe_interval, scenario))
    }

    /// Records one round's state. Rounds must be recorded contiguously
    /// (`Recording::parse` enforces it on read-back).
    pub fn record(&mut self, round: u64, state: &SystemState) {
        let keyframe =
            self.prev.is_none() || self.writer.rounds().is_multiple_of(self.keyframe_interval);
        self.scratch.clear();
        if keyframe {
            encode_state_into(&mut self.scratch, state);
            self.writer.push(round, FrameKind::Keyframe, &self.scratch);
        } else {
            let prev = self.prev.as_ref().expect("delta frames have a predecessor");
            encode_delta_into(&mut self.scratch, prev, state);
            self.writer.push(round, FrameKind::Delta, &self.scratch);
        }
        match &mut self.prev {
            Some(p) => p.clone_from(state),
            None => self.prev = Some(state.clone()),
        }
        self.engine_round = None;
    }

    /// Records `engine`'s current state at the engine's current round
    /// number, producing exactly the bytes [`Recorder::record`] would for
    /// the exported state. When the previous frame was the engine's
    /// previous round, only the engine's changed slice
    /// ([`Engine::changed_cells`]) is exported, diffed and copied into the
    /// delta base; otherwise every cell is.
    pub fn record_engine(&mut self, engine: &Engine) {
        let round = engine.round();
        let n = engine.config().dims().cell_count();
        let fresh = !matches!(&self.prev, Some(p) if p.cells.len() == n);
        let keyframe = fresh || self.writer.rounds().is_multiple_of(self.keyframe_interval);
        let changed = match self.engine_round {
            Some(last) if !fresh && last + 1 == round => engine.changed_cells(),
            _ => None,
        };
        let prev = match &mut self.prev {
            Some(p) if !fresh => p,
            slot => slot.insert(engine.config().initial_state()),
        };
        let cells = CellScope::new(changed, n);
        prev.next_entity_id = engine.next_entity_id();
        self.scratch.clear();
        if keyframe {
            for k in cells {
                engine.store_cell(k, &mut prev.cells[k]);
            }
            encode_state_into(&mut self.scratch, prev);
            self.writer.push(round, FrameKind::Keyframe, &self.scratch);
        } else {
            // Exactly `encode_delta_into`'s output: a cell is listed iff its
            // exported state differs from the delta base, ascending.
            let mut delta = DeltaBody::begin(&mut self.scratch, prev.next_entity_id);
            for k in cells {
                if engine.store_cell(k, &mut prev.cells[k]) {
                    delta.cell(&mut self.scratch, k, &prev.cells[k]);
                }
            }
            delta.finish(&mut self.scratch);
            self.writer.push(round, FrameKind::Delta, &self.scratch);
        }
        self.engine_round = Some(round);
    }

    /// State frames recorded so far.
    pub fn rounds(&self) -> u64 {
        self.writer.rounds()
    }

    /// Bytes buffered so far (header frame included).
    pub fn bytes_buffered(&self) -> usize {
        self.writer.bytes_buffered()
    }

    /// Seals and returns the recording's file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, System};

    fn config(n: u16) -> SystemConfig {
        SystemConfig::new(
            GridDims::square(n),
            CellId::new(1, n - 1),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(1, 0))
    }

    #[test]
    fn keyframe_codec_round_trips_a_live_state() {
        let mut sys = System::new(config(5));
        sys.run(30);
        sys.fail(CellId::new(2, 2));
        sys.run(5);
        let state = sys.state().clone();
        assert!(state.entity_count() > 0, "run should be populated");
        let decoded = decode_state(&encode_state(&state), sys.config().dims()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn delta_codec_round_trips_consecutive_rounds() {
        let mut sys = System::new(config(5));
        sys.run(10);
        let prev = sys.state().clone();
        sys.run(1);
        let cur = sys.state().clone();
        let delta = encode_delta(&prev, &cur);
        let mut rebuilt = prev.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(rebuilt, cur);
        // A no-op delta is tiny and exact.
        let noop = encode_delta(&cur, &cur);
        assert_eq!(noop.len(), 8 + 4);
        let mut same = cur.clone();
        apply_delta(&mut same, &noop).unwrap();
        assert_eq!(same, cur);
    }

    #[test]
    fn state_at_matches_linear_replay_at_every_round() {
        let cfg = config(5);
        let mut sys = System::new(cfg.clone());
        let mut rec = Recorder::for_config(&cfg, 7, 4, "test n=5");
        let mut expected = vec![sys.state().clone()];
        rec.record(0, sys.state());
        for round in 1..=13u64 {
            sys.step();
            rec.record(round, sys.state());
            expected.push(sys.state().clone());
        }
        let parsed = Recording::parse(&rec.finish()).unwrap();
        assert_eq!(parsed.header.rounds, 14);
        assert_eq!(parsed.frames[0].kind, FrameKind::Keyframe);
        assert_eq!(parsed.frames[4].kind, FrameKind::Keyframe);
        assert_eq!(parsed.frames[5].kind, FrameKind::Delta);
        for (round, want) in expected.iter().enumerate() {
            let got = state_at(&parsed, round as u64).unwrap();
            assert_eq!(&got, want, "round {round}");
        }
    }

    #[test]
    fn diff_names_the_disagreeing_register() {
        let cfg = config(4);
        let a = cfg.initial_state();
        let mut b = a.clone();
        let victim = CellId::new(2, 1);
        b.cell_mut(cfg.dims(), victim).dist = Dist::Finite(9);
        b.next_entity_id = 3;
        let diffs = diff_states(cfg.dims(), &a, &b);
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].register, "next_entity_id");
        assert_eq!(diffs[0].cell, None);
        assert_eq!(diffs[1].register, "dist");
        assert_eq!(diffs[1].cell, Some(victim));
        assert_eq!(diffs[1].a, "∞");
        assert_eq!(diffs[1].b, "9");
        assert!(diff_states(cfg.dims(), &a, &a).is_empty());
    }

    #[test]
    fn bisect_pins_an_injected_divergence_to_its_round_cell_and_register() {
        // Synthetic state sequences give exact control over what diverges:
        // both runs wiggle one unrelated register per round; run B
        // additionally perturbs the victim at exactly one round.
        let cfg = config(4);
        let dims = cfg.dims();
        let victim = CellId::new(3, 2);
        let divergence_round = 9u64;
        let record_run = |diverge: bool| {
            let mut rec = Recorder::for_config(&cfg, 11, 4, "test n=4");
            for round in 0..=15u64 {
                let mut state = cfg.initial_state();
                let wiggled = dims.id_at((round as usize * 2) % dims.cell_count());
                state.cell_mut(dims, wiggled).dist = Dist::Finite(round as u32 + 1);
                if diverge && round == divergence_round {
                    state.cell_mut(dims, victim).token = Some(CellId::new(3, 1));
                }
                rec.record(round, &state);
            }
            Recording::parse(&rec.finish()).unwrap()
        };
        let a = record_run(false);
        let b = record_run(true);
        let d = bisect(&a, &b).unwrap().expect("runs diverge");
        assert_eq!(d.round, divergence_round);
        assert_eq!(d.cell, Some(victim));
        assert_eq!(d.register, "token");
        assert_eq!(d.a, "⊥");
        // Identical recordings never diverge.
        assert_eq!(bisect(&a, &a).unwrap(), None);
    }

    #[test]
    fn bisect_finds_the_round_a_live_run_first_diverged() {
        // Engine-driven runs: run B crashes a cell before round 9's step,
        // so the first divergent *recorded* state is round 9's.
        let cfg = config(4);
        let victim = CellId::new(2, 2);
        let record_run = |crash: bool| {
            let mut sys = System::new(cfg.clone());
            let mut rec = Recorder::for_config(&cfg, 11, 4, "test n=4");
            rec.record(0, sys.state());
            for round in 1..=15u64 {
                if crash && round == 9 {
                    sys.fail(victim);
                }
                sys.step();
                rec.record(round, sys.state());
            }
            Recording::parse(&rec.finish()).unwrap()
        };
        let a = record_run(false);
        let b = record_run(true);
        let d = bisect(&a, &b).unwrap().expect("runs diverge");
        assert_eq!(d.round, 9);
        // The crash itself must be among round 9's register diffs.
        let diffs = diff_states(
            cfg.dims(),
            &state_at(&a, 9).unwrap(),
            &state_at(&b, 9).unwrap(),
        );
        assert!(
            diffs
                .iter()
                .any(|d| d.cell == Some(victim) && d.register == "failed"),
            "{diffs:?}"
        );
    }

    #[test]
    fn identical_seeded_runs_record_identical_bytes() {
        let record = || {
            let cfg = config(5);
            let mut sys = System::new(cfg.clone());
            let mut rec = Recorder::for_config(&cfg, 3, 8, "test n=5");
            rec.record(0, sys.state());
            for round in 1..=20u64 {
                sys.step();
                rec.record(round, sys.state());
            }
            rec.finish()
        };
        assert_eq!(record(), record());
    }

    #[test]
    fn engine_hook_matches_a_by_hand_recording() {
        let cfg = config(5);
        // By hand: mirror states recorded around System::step.
        let mut sys = System::new(cfg.clone());
        let mut rec = Recorder::for_config(&cfg, 5, 6, "test hook");
        rec.record(0, sys.state());
        for round in 1..=12u64 {
            sys.step();
            rec.record(round, sys.state());
        }
        let by_hand = rec.finish();
        // Hooked: the engine records its own rounds.
        let mut sys = System::new(cfg.clone());
        sys.attach_recorder(Box::new(Recorder::for_config(&cfg, 5, 6, "test hook")));
        sys.run(12);
        let hooked = sys.take_recorder().expect("recorder attached").finish();
        assert_eq!(by_hand, hooked);
        let parsed = Recording::parse(&hooked).unwrap();
        assert_eq!(parsed.round_span(), Some((0, 12)));
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let cfg = config(5);
        let mut plain = System::new(cfg.clone());
        let mut taped = System::new(cfg.clone());
        taped.attach_recorder(Box::new(Recorder::for_config(&cfg, 5, 8, "test")));
        for _ in 0..20 {
            plain.step();
            taped.step();
            assert_eq!(plain.state(), taped.state());
        }
        assert_eq!(plain.consumed_total(), taped.consumed_total());
    }

    #[test]
    fn config_checksum_tracks_every_field() {
        let base = config(5);
        assert_eq!(config_checksum(&base), config_checksum(&config(5)));
        let capped = config(5).with_capacity(4);
        assert_ne!(config_checksum(&base), config_checksum(&capped));
        assert!(config_summary(&base).contains("grid=5×5"));
    }

    #[test]
    fn mismatched_grids_refuse_to_bisect() {
        let rec_for = |n: u16| {
            let cfg = config(n);
            let sys = System::new(cfg.clone());
            let mut rec = Recorder::for_config(&cfg, 1, 4, "test");
            rec.record(0, sys.state());
            Recording::parse(&rec.finish()).unwrap()
        };
        let err = bisect(&rec_for(4), &rec_for(5)).unwrap_err();
        assert!(err.contains("different grids"), "{err}");
    }
}
