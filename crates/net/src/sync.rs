//! Round synchronization with timeouts and dynamic membership.
//!
//! `std::sync::Barrier` trusts every participant to arrive: one silent
//! thread deadlocks the whole deployment forever. [`RoundBarrier`] replaces
//! that blind trust with three mechanisms the chaos runtime needs:
//!
//! * **timeouts** — a participant that waits longer than the configured
//!   round timeout *poisons* the barrier; every other participant's wait
//!   returns the poison instead of blocking, and the runtime surfaces it as
//!   a typed [`NetError::Timeout`](crate::NetError::Timeout);
//! * **leaving** — a hard-crashed cell can withdraw its seat so the
//!   survivors' barrier completes without it (the paper's "a failed cell …
//!   never communicates", without pretending the cell still runs);
//! * **scheduled re-joining** — a recovery re-spawn can reserve a seat at a
//!   future generation, so the restored cell is counted from exactly the
//!   round it resumes at, with no window in which the barrier under- or
//!   over-counts.
//!
//! Generations are absolute: generation `g = round · WAITS_PER_ROUND + k`
//! is the `k`-th wait of round `round`, which is what makes "re-join at the
//! start of round `r`" a plain number.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cellflow_grid::CellId;

/// Barrier waits per protocol round: two (send-side and drain-side) for each
/// of the three announcement exchanges plus the transfer exchange.
pub const WAITS_PER_ROUND: u64 = 8;

/// Why a wait on a poisoned barrier aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonInfo {
    /// The generation that failed to complete in time.
    pub generation: u64,
    /// The cell whose wait first timed out (the *detector*, not necessarily
    /// the culprit — the culprit is whoever never arrived).
    pub cell: CellId,
    /// The cells that *had* checked into the stalled generation when the
    /// timeout fired. The culprits are the members missing from this list
    /// (minus cells that cleanly withdrew their seat).
    pub arrived: Vec<CellId>,
}

impl PoisonInfo {
    /// The protocol round the failed generation belongs to.
    pub fn round(&self) -> u64 {
        self.generation / WAITS_PER_ROUND
    }
}

struct Inner {
    participants: usize,
    arrived: usize,
    generation: u64,
    poison: Option<PoisonInfo>,
    /// Who has checked into the current generation — the attribution a
    /// timeout report needs to name the silent cells.
    arrived_cells: Vec<CellId>,
    /// Seats reserved for re-spawned cells, keyed by the generation at
    /// which they start counting.
    joins: BTreeMap<u64, usize>,
    /// When enabled (tracing), `(generation, last cell to arrive)` for
    /// every completed generation — the critical-path attribution "whose
    /// arrival closed this barrier". Scheduling-dependent by nature, so the
    /// tracer keeps it out of deterministic outputs.
    completions: Option<Vec<(u64, CellId)>>,
}

impl Inner {
    /// Completes the current generation and advances to the next, seating
    /// any scheduled joiners whose generation has arrived.
    fn advance(&mut self) {
        if let Some(log) = &mut self.completions {
            if let Some(&last) = self.arrived_cells.last() {
                log.push((self.generation, last));
            }
        }
        self.generation += 1;
        self.arrived = 0;
        self.arrived_cells.clear();
        if let Some(seats) = self.joins.remove(&self.generation) {
            self.participants += seats;
        }
        // If everyone left (e.g. every live cell hard-crashed at once),
        // fast-forward to the next reserved seat so re-spawns still wake.
        while self.participants == 0 {
            let Some((&gen, _)) = self.joins.iter().next() else {
                break;
            };
            self.generation = gen;
            self.participants += self.joins.remove(&gen).expect("key just observed");
        }
    }
}

/// A generation-counted barrier with timeouts, leave, and scheduled re-join.
pub struct RoundBarrier {
    inner: Mutex<Inner>,
    cv: Condvar,
    timeout: Duration,
}

/// `std` mutex poisoning is irrelevant here (we never panic while holding
/// the lock, and our own poison flag carries the real protocol); recover
/// the guard unconditionally.
macro_rules! lock {
    ($mutex:expr) => {
        $mutex.lock().unwrap_or_else(|e| e.into_inner())
    };
}

impl RoundBarrier {
    /// A barrier for `participants` threads where any single wait exceeding
    /// `timeout` poisons the group.
    pub fn new(participants: usize, timeout: Duration) -> RoundBarrier {
        RoundBarrier {
            inner: Mutex::new(Inner {
                participants,
                arrived: 0,
                generation: 0,
                poison: None,
                arrived_cells: Vec::new(),
                joins: BTreeMap::new(),
                completions: None,
            }),
            cv: Condvar::new(),
            timeout,
        }
    }

    /// Turns on the completion log: every completed generation records
    /// which cell's arrival closed it, readable per round via
    /// [`RoundBarrier::last_completer`]. Off by default (the log grows by
    /// [`WAITS_PER_ROUND`] entries per round).
    pub fn with_completion_log(self) -> RoundBarrier {
        lock!(self.inner).completions = Some(Vec::new());
        self
    }

    /// The cell whose arrival completed the last completed generation of
    /// `round` (generations `round·8 .. round·8+8`), if the completion log
    /// is enabled and the round completed any generation. This is the
    /// barrier-wait critical path: everyone else was already waiting on
    /// this cell. Measured attribution — scheduling-dependent, not
    /// deterministic per seed.
    pub fn last_completer(&self, round: u64) -> Option<CellId> {
        let inner = lock!(self.inner);
        let log = inner.completions.as_ref()?;
        let lo = round * WAITS_PER_ROUND;
        let hi = lo + WAITS_PER_ROUND;
        log.iter()
            .filter(|&&(gen, _)| gen >= lo && gen < hi)
            .max_by_key(|&&(gen, _)| gen)
            .map(|&(_, cell)| cell)
    }

    /// The configured per-wait timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The poison, if any wait has timed out.
    pub fn poison(&self) -> Option<PoisonInfo> {
        lock!(self.inner).poison.clone()
    }

    /// Waits for the current generation to complete.
    ///
    /// # Errors
    ///
    /// The [`PoisonInfo`] if this wait timed out (this caller becomes the
    /// detector) or another participant already poisoned the barrier.
    pub fn wait(&self, cell: CellId) -> Result<(), PoisonInfo> {
        self.arrive_many(std::slice::from_ref(&cell))
    }

    /// Checks `cells.len()` seats into the current generation at once — a
    /// deployment worker's one-call-per-shard arrival. Behaviorally
    /// equivalent to `cells.len()` sequential [`RoundBarrier::wait`] calls
    /// by the same thread (every cell lands in the attribution list), minus
    /// the wakeup churn. An empty slice returns immediately without
    /// touching the barrier.
    ///
    /// # Errors
    ///
    /// The [`PoisonInfo`] if this wait timed out (the shard's first cell
    /// becomes the detector) or another participant already poisoned the
    /// barrier.
    pub fn arrive_many(&self, cells: &[CellId]) -> Result<(), PoisonInfo> {
        let Some(&detector) = cells.first() else {
            return Ok(());
        };
        let mut inner = lock!(self.inner);
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        let gen = inner.generation;
        inner.arrived += cells.len();
        inner.arrived_cells.extend_from_slice(cells);
        if inner.arrived == inner.participants {
            inner.advance();
            self.cv.notify_all();
            return Ok(());
        }
        loop {
            let (guard, result) = self
                .cv
                .wait_timeout(inner, self.timeout)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            if inner.generation != gen {
                return Ok(());
            }
            if result.timed_out() {
                let p = PoisonInfo {
                    generation: gen,
                    cell: detector,
                    arrived: inner.arrived_cells.clone(),
                };
                inner.poison = Some(p.clone());
                self.cv.notify_all();
                return Err(p);
            }
        }
    }

    /// Permanently withdraws one seat (a cell that dies and never recovers).
    /// If the leaver was the last arrival the group was waiting on, the
    /// generation completes.
    pub fn leave(&self) {
        let mut inner = lock!(self.inner);
        inner.participants -= 1;
        // Leaving may have been the completion the group was waiting on; an
        // empty group also advances (fast-forwarding to any reserved seats).
        if inner.participants == 0 || inner.arrived == inner.participants {
            inner.advance();
        }
        self.cv.notify_all();
    }

    /// Withdraws one seat now and reserves it again from `generation` on
    /// (a hard crash whose recovery is scheduled). The reserved seat is
    /// counted from the moment the barrier *advances to* `generation`, so
    /// the re-spawned cell's worker must be waiting by then — see
    /// [`RoundBarrier::wait_for_generation`].
    ///
    /// # Panics
    ///
    /// Panics if `generation` is not in the future.
    pub fn leave_and_rejoin_at(&self, generation: u64) {
        let mut inner = lock!(self.inner);
        assert!(
            generation > inner.generation,
            "re-join generation {generation} is not after current {}",
            inner.generation
        );
        *inner.joins.entry(generation).or_insert(0) += 1;
        inner.participants -= 1;
        if inner.participants == 0 || inner.arrived == inner.participants {
            inner.advance();
        }
        self.cv.notify_all();
    }

    /// Blocks until the barrier has advanced to (at least) `generation` —
    /// the rendezvous for a re-spawned cell whose seat was reserved with
    /// [`RoundBarrier::leave_and_rejoin_at`].
    ///
    /// The wait is bounded by a generous multiple of the per-wait timeout:
    /// generations normally advance every few microseconds, so a long stall
    /// means the survivors are themselves wedged (or all dead), and the
    /// re-spawn must not hang forever on their behalf.
    ///
    /// # Errors
    ///
    /// The [`PoisonInfo`] if the barrier is (or becomes) poisoned, or if the
    /// bounded wait expires (this caller poisons and becomes the detector).
    pub fn wait_for_generation(&self, cell: CellId, generation: u64) -> Result<(), PoisonInfo> {
        let cap = self.timeout.saturating_mul(16);
        let mut inner = lock!(self.inner);
        loop {
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            if inner.generation >= generation {
                return Ok(());
            }
            let (guard, result) = self
                .cv
                .wait_timeout(inner, cap)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if result.timed_out() && inner.generation < generation && inner.poison.is_none() {
                let p = PoisonInfo {
                    generation: inner.generation,
                    cell,
                    arrived: inner.arrived_cells.clone(),
                };
                inner.poison = Some(p.clone());
                self.cv.notify_all();
                return Err(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cell() -> CellId {
        CellId::new(0, 0)
    }

    #[test]
    fn lockstep_rounds_complete() {
        let barrier = RoundBarrier::new(4, Duration::from_secs(5));
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let barrier = &barrier;
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..32 {
                        barrier.wait(CellId::new(t, 0)).unwrap();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 32);
        assert_eq!(barrier.poison(), None);
    }

    #[test]
    fn missing_participant_poisons_with_detector() {
        let barrier = RoundBarrier::new(2, Duration::from_millis(50));
        // The second participant never shows up.
        let err = barrier.wait(cell()).unwrap_err();
        assert_eq!(err.generation, 0);
        assert_eq!(err.cell, cell());
        assert_eq!(err.round(), 0);
        assert_eq!(err.arrived, vec![cell()], "only the detector checked in");
        // Subsequent waits observe the existing poison immediately.
        let again = barrier.wait(CellId::new(1, 1)).unwrap_err();
        assert_eq!(again, err);
        assert_eq!(barrier.poison(), Some(err));
    }

    #[test]
    fn leaving_completes_a_pending_generation() {
        let barrier = RoundBarrier::new(2, Duration::from_secs(5));
        std::thread::scope(|s| {
            let b = &barrier;
            let waiter = s.spawn(move || b.wait(cell()));
            std::thread::sleep(Duration::from_millis(20));
            b.leave(); // the second seat withdraws; the waiter's round completes
            assert!(waiter.join().unwrap().is_ok());
        });
        // The survivor now synchronizes alone.
        assert!(barrier.wait(cell()).is_ok());
    }

    #[test]
    fn rejoin_seat_counts_from_its_generation() {
        let barrier = RoundBarrier::new(2, Duration::from_secs(5));
        std::thread::scope(|s| {
            let b = &barrier;
            // Thread A runs generations 0..6 solo after B leaves, then needs
            // B's successor from generation 6 on.
            let successor = s.spawn(move || {
                b.wait_for_generation(CellId::new(1, 0), 6).unwrap();
                for _ in 6..10 {
                    b.wait(CellId::new(1, 0)).unwrap();
                }
            });
            b.leave_and_rejoin_at(6);
            for _ in 0..10 {
                b.wait(cell()).unwrap();
            }
            successor.join().unwrap();
        });
        assert_eq!(barrier.poison(), None);
    }

    #[test]
    fn batched_arrivals_complete_generations_and_attribute() {
        // Two shards of two seats each: each arrives as a batch.
        let barrier = RoundBarrier::new(4, Duration::from_secs(5));
        std::thread::scope(|s| {
            let b = &barrier;
            let other = s.spawn(move || {
                for _ in 0..16 {
                    b.arrive_many(&[CellId::new(2, 0), CellId::new(3, 0)])
                        .unwrap();
                }
            });
            for _ in 0..16 {
                b.arrive_many(&[CellId::new(0, 0), CellId::new(1, 0)])
                    .unwrap();
            }
            other.join().unwrap();
        });
        assert_eq!(barrier.poison(), None);
        // An empty batch is a no-op even with a pending generation.
        assert!(barrier.arrive_many(&[]).is_ok());
        assert_eq!(barrier.poison(), None);

        // A stalled batch poisons with every batched cell in the
        // attribution list and its first cell as the detector.
        let barrier = RoundBarrier::new(3, Duration::from_millis(50));
        let err = barrier
            .arrive_many(&[CellId::new(0, 0), CellId::new(1, 0)])
            .unwrap_err();
        assert_eq!(err.cell, CellId::new(0, 0));
        assert_eq!(err.arrived, vec![CellId::new(0, 0), CellId::new(1, 0)]);
    }

    #[test]
    fn completion_log_names_the_closing_cell() {
        // Solo participant: it completes every generation itself.
        let barrier = RoundBarrier::new(1, Duration::from_secs(5)).with_completion_log();
        for _ in 0..WAITS_PER_ROUND * 2 {
            barrier.wait(cell()).unwrap();
        }
        assert_eq!(barrier.last_completer(0), Some(cell()));
        assert_eq!(barrier.last_completer(1), Some(cell()));
        assert_eq!(barrier.last_completer(2), None, "round never ran");

        // Two staggered participants: the last completer is always the
        // late one.
        let barrier = RoundBarrier::new(2, Duration::from_secs(5)).with_completion_log();
        let late = CellId::new(1, 0);
        std::thread::scope(|s| {
            let b = &barrier;
            let early = s.spawn(move || {
                for _ in 0..WAITS_PER_ROUND {
                    b.wait(cell()).unwrap();
                }
            });
            for _ in 0..WAITS_PER_ROUND {
                std::thread::sleep(Duration::from_millis(2));
                b.wait(late).unwrap();
            }
            early.join().unwrap();
        });
        assert_eq!(barrier.last_completer(0), Some(late));

        // Off by default.
        let plain = RoundBarrier::new(1, Duration::from_secs(5));
        plain.wait(cell()).unwrap();
        assert_eq!(plain.last_completer(0), None);
    }

    #[test]
    fn all_dead_fast_forwards_to_the_rejoin() {
        let barrier = RoundBarrier::new(1, Duration::from_secs(5));
        std::thread::scope(|s| {
            let b = &barrier;
            let successor = s.spawn(move || {
                b.wait_for_generation(cell(), 4).unwrap();
                b.wait(cell()).unwrap() // completes solo
            });
            std::thread::sleep(Duration::from_millis(20));
            // The only participant leaves with a seat reserved at gen 4: the
            // barrier must fast-forward so the successor wakes.
            b.leave_and_rejoin_at(4);
            successor.join().unwrap();
        });
    }
}
