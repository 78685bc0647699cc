//! Durable per-round snapshot storage with a write-ahead record.
//!
//! The first chaos runtime recovered hard-crashed nodes from an in-memory
//! [`NodeCheckpoint`] captured *at the moment of the crash* — which silently
//! assumes every crash is observed cleanly. Real crashes aren't: a node can
//! die between mutating its state and anyone noticing. This module replaces
//! that assumption with a write-ahead snapshot discipline:
//!
//! * an **`Intent`** record is appended *before* a node sends its outgoing
//!   transfers (the only irrevocable, externally visible effect of a
//!   round), so a node that dies mid-round left evidence of what it was
//!   about to do;
//! * a **`Sealed`** record is appended at the end of every completed round;
//! * recovery reads [`SnapshotStore::latest`] — the last record that made
//!   it to the store, **possibly stale** relative to where the cluster is
//!   now. The stabilization certifier is what proves that staleness
//!   harmless: a restored-from-stale node is just one more transiently
//!   corrupted cell, and Corollary 7 bounds its wash-out.
//!
//! [`DurableStore`] is the real implementation: one append-only
//! length-prefixed, CRC-framed file per cell, with torn tails repaired on
//! read. [`MemoryStore`] is the in-process stand-in for tests that don't
//! want a tempdir.

use core::fmt;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cellflow_core::{CellState, Dist, EntityId};
use cellflow_geom::{Fixed, Point};
use cellflow_grid::CellId;

use crate::node::NodeCheckpoint;

/// Where in its round a node was when a record was persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecordPoint {
    /// Written *before* the round's transfers were sent (the write-ahead
    /// record): the state the node intended to expose.
    Intent,
    /// Written after the round completed (or at a clean crash, freezing the
    /// failed state).
    Sealed,
}

/// One persisted snapshot of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistedRecord {
    /// The (0-based) protocol round the record belongs to.
    pub round: u64,
    /// Whether the record is a write-ahead intent or an end-of-round seal.
    pub point: RecordPoint,
    /// The node identity at that point.
    pub checkpoint: NodeCheckpoint,
}

/// A snapshot-store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A scripted *dirty* crash for the deployment runtime: `cell`'s node is
/// torn down in the middle of round `round` — after appending (only) its
/// `Intent` record and **without** sending its transfers or sealing the
/// round — and re-spawned at round `respawn` from whatever
/// [`SnapshotStore::latest`] returns, which is by construction stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TearSpec {
    /// The victim cell.
    pub cell: CellId,
    /// The (0-based) round torn mid-flight.
    pub round: u64,
    /// The (0-based) round the re-spawn resumes at; must exceed `round`.
    pub respawn: u64,
}

/// Durable (or durable-enough-for-tests) per-cell snapshot storage.
///
/// `Send + Sync`: deployment workers append concurrently, each to its own
/// cells' streams; a re-spawned node reads its predecessor's stream after
/// the predecessor is gone.
pub trait SnapshotStore: Send + Sync {
    /// Appends `record` to `cell`'s stream.
    fn append(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError>;

    /// The last fully persisted record of `cell`'s stream, if any.
    fn latest(&self, cell: CellId) -> Result<Option<PersistedRecord>, StoreError>;

    /// Fault-injection aid: begin appending `record` but tear the write
    /// partway through, as a crash mid-`write(2)` would. The default is a
    /// no-op (a torn write to a memory store leaves no trace at all).
    fn append_torn(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        let _ = (cell, record);
        Ok(())
    }
}

/// An in-process store keeping only the latest record per cell — the
/// fast path for tests and for runs that don't need crash durability.
#[derive(Debug, Default)]
pub struct MemoryStore {
    cells: Mutex<HashMap<CellId, PersistedRecord>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl SnapshotStore for MemoryStore {
    fn append(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        cells.insert(cell, record.clone());
        Ok(())
    }

    fn latest(&self, cell: CellId) -> Result<Option<PersistedRecord>, StoreError> {
        let cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        Ok(cells.get(&cell).cloned())
    }
}

/// A filesystem-backed store: one append-only file per cell
/// (`cell_{i}_{j}.wal`), each record framed as
/// `[payload_len: u32 LE][fnv1a(payload): u64 LE][payload]`.
///
/// A record whose frame is incomplete or whose checksum mismatches is a
/// *torn tail* (the writer died mid-append); [`DurableStore::latest`]
/// truncates it away so subsequent appends extend a clean stream, and
/// returns the last intact record.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Creates a store under `dir`, wiping any previous cell streams there
    /// (a fresh deployment's recovery log).
    pub fn create<P: AsRef<Path>>(dir: P) -> Result<DurableStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "wal") {
                std::fs::remove_file(path)?;
            }
        }
        Ok(DurableStore { dir })
    }

    /// Opens a store under `dir`, preserving existing cell streams (a
    /// restarted deployment recovering its predecessor's log).
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<DurableStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(DurableStore { dir })
    }

    fn path_for(&self, cell: CellId) -> PathBuf {
        self.dir.join(format!("cell_{}_{}.wal", cell.i(), cell.j()))
    }
}

impl SnapshotStore for DurableStore {
    fn append(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        let payload = encode_record(record);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path_for(cell))?;
        file.write_all(&frame(&payload))?;
        file.sync_data()?;
        Ok(())
    }

    fn latest(&self, cell: CellId) -> Result<Option<PersistedRecord>, StoreError> {
        let path = self.path_for(cell);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (records, clean_len) = decode_stream(&bytes);
        if clean_len < bytes.len() {
            // Torn tail: the writer died mid-append. Repair so future
            // appends extend a stream every reader can fully parse.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(clean_len as u64)?;
            file.sync_data()?;
        }
        Ok(records.into_iter().last())
    }

    fn append_torn(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        let payload = encode_record(record);
        let framed = frame(&payload);
        let torn = &framed[..framed.len() / 2];
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path_for(cell))?;
        file.write_all(torn)?;
        file.sync_data()?;
        Ok(())
    }
}

// The checksummed frame codec, shared with the flight-recording format
// (see `cellflow_core::hash`, implemented in `cellflow_dts::hash`). The
// byte layout is frozen and pinned by stream tests there and below, so
// WAL files written before the consolidation keep parsing.
use cellflow_core::hash::{frame, next_frame, FrameStep};

/// Parses every intact frame; returns the records and the byte length of
/// the clean prefix (everything after it is a torn tail).
fn decode_stream(bytes: &[u8]) -> (Vec<PersistedRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0;
    // Incomplete header/payload or checksum mismatch ends the clean prefix.
    while let FrameStep::Frame { payload, next } = next_frame(bytes, at) {
        let Some(record) = decode_record(payload) else {
            break; // undecodable payload: treat as torn
        };
        records.push(record);
        at = next;
    }
    (records, at)
}

// ---- record codec (hand-rolled: the workspace vendors no serialization
// framework for net, and the format is trivial) ----

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn cell_opt(&mut self, v: Option<CellId>) {
        match v {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.u16(c.i());
                self.u16(c.j());
            }
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn cell_opt(&mut self) -> Option<Option<CellId>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(CellId::new(self.u16()?, self.u16()?))),
            _ => None,
        }
    }
}

fn encode_record(record: &PersistedRecord) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.u64(record.round);
    e.u8(match record.point {
        RecordPoint::Intent => 0,
        RecordPoint::Sealed => 1,
    });
    let cp = &record.checkpoint;
    e.u64(cp.source_seq());
    e.u64(cp.consumed());
    e.u64(cp.inserted());
    let st = cp.state();
    e.u8(st.failed as u8);
    match st.dist {
        Dist::Infinity => e.u8(0),
        Dist::Finite(d) => {
            e.u8(1);
            e.u32(d);
        }
    }
    e.cell_opt(st.next);
    e.cell_opt(st.token);
    e.cell_opt(st.signal);
    e.u32(st.ne_prev.len() as u32);
    for &n in &st.ne_prev {
        e.u16(n.i());
        e.u16(n.j());
    }
    e.u32(st.members.len() as u32);
    for (&eid, &pos) in &st.members {
        e.u64(eid.0);
        e.i64(pos.x.raw());
        e.i64(pos.y.raw());
    }
    e.0
}

fn decode_record(payload: &[u8]) -> Option<PersistedRecord> {
    let mut d = Dec { bytes: payload, at: 0 };
    let round = d.u64()?;
    let point = match d.u8()? {
        0 => RecordPoint::Intent,
        1 => RecordPoint::Sealed,
        _ => return None,
    };
    let source_seq = d.u64()?;
    let consumed = d.u64()?;
    let inserted = d.u64()?;
    let failed = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let dist = match d.u8()? {
        0 => Dist::Infinity,
        1 => Dist::Finite(d.u32()?),
        _ => return None,
    };
    let next = d.cell_opt()?;
    let token = d.cell_opt()?;
    let signal = d.cell_opt()?;
    let mut state = CellState::initial();
    state.failed = failed;
    state.dist = dist;
    state.next = next;
    state.token = token;
    state.signal = signal;
    for _ in 0..d.u32()? {
        state.ne_prev.insert(CellId::new(d.u16()?, d.u16()?));
    }
    for _ in 0..d.u32()? {
        let eid = EntityId(d.u64()?);
        let x = Fixed::from_raw(d.i64()?);
        let y = Fixed::from_raw(d.i64()?);
        state.members.insert(eid, Point::new(x, y));
    }
    if d.at != payload.len() {
        return None; // trailing garbage inside a checksummed frame
    }
    Some(PersistedRecord {
        round,
        point,
        checkpoint: NodeCheckpoint::new(state, source_seq, consumed, inserted),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::{Params, SystemConfig};
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::new(3, 1),
            CellId::new(2, 0),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
    }

    fn sample_record(round: u64, point: RecordPoint) -> PersistedRecord {
        let mut state = CellState::initial();
        state.dist = Dist::Finite(3);
        state.next = Some(CellId::new(1, 0));
        state.ne_prev.insert(CellId::new(0, 0));
        state
            .members
            .insert(EntityId(7), Point::new(Fixed::from_milli(320), Fixed::HALF));
        PersistedRecord {
            round,
            point,
            checkpoint: NodeCheckpoint::new(state, 4, 2, 9),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cellflow-store-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn codec_roundtrips() {
        let rec = sample_record(12, RecordPoint::Intent);
        let decoded = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(decoded, rec);
    }

    /// Stream pinning for the framing consolidation: a WAL stream framed by
    /// the store's historical private formulation (reproduced verbatim)
    /// must decode unchanged through the shared `core::hash` codec, and the
    /// shared codec must emit byte-identical frames — existing on-disk WAL
    /// files neither break nor change shape.
    #[test]
    fn shared_framing_matches_the_historical_wal_bytes() {
        fn frame_legacy(payload: &[u8]) -> Vec<u8> {
            let mut out = Vec::with_capacity(12 + payload.len());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(
                &cellflow_core::hash::fnv1a(payload).to_le_bytes(),
            );
            out.extend_from_slice(payload);
            out
        }
        let records = [
            sample_record(1, RecordPoint::Intent),
            sample_record(1, RecordPoint::Sealed),
            sample_record(2, RecordPoint::Sealed),
        ];
        let mut legacy_stream = Vec::new();
        let mut shared_stream = Vec::new();
        for rec in &records {
            let payload = encode_record(rec);
            legacy_stream.extend_from_slice(&frame_legacy(&payload));
            shared_stream.extend_from_slice(&frame(&payload));
        }
        assert_eq!(legacy_stream, shared_stream, "frame bytes changed");
        let (decoded, clean) = decode_stream(&legacy_stream);
        assert_eq!(clean, legacy_stream.len());
        assert_eq!(decoded, records.to_vec());
        // A legacy torn tail still truncates at the same clean prefix.
        let clean_len = legacy_stream.len();
        legacy_stream.extend_from_slice(&frame_legacy(&encode_record(&records[0]))[..10]);
        let (decoded, clean) = decode_stream(&legacy_stream);
        assert_eq!((decoded.len(), clean), (3, clean_len));
    }

    #[test]
    fn memory_store_keeps_latest_only() {
        let store = MemoryStore::new();
        let cell = CellId::new(1, 0);
        assert!(store.latest(cell).unwrap().is_none());
        store.append(cell, &sample_record(1, RecordPoint::Sealed)).unwrap();
        store.append(cell, &sample_record(2, RecordPoint::Intent)).unwrap();
        let last = store.latest(cell).unwrap().unwrap();
        assert_eq!((last.round, last.point), (2, RecordPoint::Intent));
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = tempdir("reopen");
        let cell = CellId::new(1, 0);
        {
            let store = DurableStore::create(&dir).unwrap();
            store.append(cell, &sample_record(1, RecordPoint::Sealed)).unwrap();
            store.append(cell, &sample_record(2, RecordPoint::Sealed)).unwrap();
        }
        let store = DurableStore::open(&dir).unwrap();
        let last = store.latest(cell).unwrap().unwrap();
        assert_eq!(last, sample_record(2, RecordPoint::Sealed));
        // `create` on the same dir wipes the streams.
        let fresh = DurableStore::create(&dir).unwrap();
        assert!(fresh.latest(cell).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_and_appends_continue() {
        let dir = tempdir("torn");
        let cell = CellId::new(0, 0);
        let store = DurableStore::create(&dir).unwrap();
        store.append(cell, &sample_record(1, RecordPoint::Sealed)).unwrap();
        store.append_torn(cell, &sample_record(2, RecordPoint::Sealed)).unwrap();
        // The torn record is invisible; reading repairs the tail.
        let last = store.latest(cell).unwrap().unwrap();
        assert_eq!(last.round, 1);
        // A post-repair append lands cleanly after the intact prefix.
        store.append(cell, &sample_record(3, RecordPoint::Intent)).unwrap();
        let last = store.latest(cell).unwrap().unwrap();
        assert_eq!((last.round, last.point), (3, RecordPoint::Intent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_middle_byte_truncates_from_there() {
        let dir = tempdir("flip");
        let cell = CellId::new(0, 0);
        let store = DurableStore::create(&dir).unwrap();
        store.append(cell, &sample_record(1, RecordPoint::Sealed)).unwrap();
        let good_len = std::fs::metadata(store.path_for(cell)).unwrap().len();
        store.append(cell, &sample_record(2, RecordPoint::Sealed)).unwrap();
        // Flip a byte inside the second record's payload.
        let path = store.path_for(cell);
        let mut bytes = std::fs::read(&path).unwrap();
        let k = good_len as usize + 13;
        bytes[k] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let last = store.latest(cell).unwrap().unwrap();
        assert_eq!(last.round, 1, "corrupted record rejected by checksum");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "repair truncated the corrupted tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_record_rebuilds_the_node() {
        let cfg = config();
        let rec = sample_record(5, RecordPoint::Sealed);
        let node = crate::CellNode::restore(CellId::new(1, 0), &cfg, rec.checkpoint.clone(), 6);
        assert_eq!(node.state(), rec.checkpoint.state());
    }
}
