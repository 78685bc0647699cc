//! Timing wrappers handed to the program in place of its own monitors,
//! failure model, snapshot store and event sink — each around the real one,
//! so the program behaves exactly as it would unwrapped.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellflow_core::monitor::{Monitor, MonitorCtx, MonitorViolation};
use cellflow_core::System;
use cellflow_grid::CellId;
use cellflow_net::{MemoryStore, PersistedRecord, SnapshotStore, StoreError};
use cellflow_sim::{FailureEvents, FailureModel};

/// Nanoseconds since `t`, saturating.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time this process has used so far, in ns, summed over its threads.
///
/// Unlike the wall clock it does not advance while the process waits:
/// blocked at a barrier, preempted by another process, or — on a guest
/// kernel that accounts steal time — while the hypervisor runs someone
/// else on its vCPU. That makes it the clock of a shared host, where
/// those waits come and go with other tenants' load.
pub fn cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut tp = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `Timespec` has the layout of Linux's `struct timespec` on
        // 64-bit targets, the pointer is to a live, writable value of that
        // type, and the clock id is a valid one.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut tp) } == 0 {
            return (tp.sec as u64).saturating_mul(1_000_000_000) + tp.nsec as u64;
        }
    }
    // Elsewhere, fall back to the wall clock since first use.
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ns_since(*EPOCH.get_or_init(Instant::now))
}

/// Process CPU ns since `start` (a [`cpu_ns`] reading), saturating.
pub fn cpu_ns_since(start: u64) -> u64 {
    cpu_ns().saturating_sub(start)
}

/// Busy time of one wrapped layer: a statistic that publishes no other
/// data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Busy {
    ns: AtomicU64,
}

impl Busy {
    fn add(&self, since: Instant) {
        self.ns.fetch_add(ns_since(since), Relaxed);
    }

    /// Nanoseconds spent so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// Each wrapped monitor's name with its timer, in suite order.
pub type MonitorTimers = Vec<(&'static str, Arc<Busy>)>;

/// A [`Monitor`] that times the one it wraps.
pub struct TimedMonitor {
    inner: Box<dyn Monitor>,
    busy: Arc<Busy>,
}

/// Wraps every monitor in `monitors`, returning the wrapped suite and its
/// timers.
pub fn time_monitors(monitors: Vec<Box<dyn Monitor>>) -> (Vec<Box<dyn Monitor>>, MonitorTimers) {
    let mut timers = Vec::with_capacity(monitors.len());
    let wrapped = monitors
        .into_iter()
        .map(|inner| {
            let busy = Arc::new(Busy::default());
            timers.push((inner.name(), Arc::clone(&busy)));
            Box::new(TimedMonitor { inner, busy }) as Box<dyn Monitor>
        })
        .collect();
    (wrapped, timers)
}

impl Monitor for TimedMonitor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        let t = Instant::now();
        let out = self.inner.observe(ctx);
        self.busy.add(t);
        out
    }

    fn summary(&self) -> String {
        self.inner.summary()
    }
}

/// The gaps a [`RoundClock`] measured, one per collected round, on the
/// wall clock and on the process CPU clock.
#[derive(Debug, Default)]
pub struct RoundGaps {
    /// Wall-clock ns between successive rounds.
    pub wall_ns: Vec<u64>,
    /// Process CPU ns (every thread's) between successive rounds.
    pub cpu_ns: Vec<u64>,
}

/// A monitor that checks nothing and stamps the host time at which the
/// deployment's collector finished assembling each round: the gaps between
/// stamps are the deployment's host time per round.
pub struct RoundClock {
    last: Instant,
    last_cpu: u64,
    gaps: Arc<Mutex<RoundGaps>>,
}

impl RoundClock {
    /// A clock whose first gaps are measured from `start` and `start_cpu`
    /// (a [`cpu_ns`] reading), writing gaps into `gaps`.
    pub fn new(start: Instant, start_cpu: u64, gaps: Arc<Mutex<RoundGaps>>) -> RoundClock {
        RoundClock {
            last: start,
            last_cpu: start_cpu,
            gaps,
        }
    }
}

impl Monitor for RoundClock {
    fn name(&self) -> &'static str {
        "round-clock"
    }

    fn observe(&mut self, _ctx: &MonitorCtx<'_>) -> Vec<MonitorViolation> {
        let now = Instant::now();
        let now_cpu = cpu_ns();
        let gap = u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        let cpu_gap = now_cpu.saturating_sub(self.last_cpu);
        self.last = now;
        self.last_cpu = now_cpu;
        let mut gaps = self
            .gaps
            .lock()
            .expect("no round-clock reader panics while holding the lock");
        gaps.wall_ns.push(gap);
        gaps.cpu_ns.push(cpu_gap);
        Vec::new()
    }

    fn summary(&self) -> String {
        "round-clock: host time per collected round".to_string()
    }
}

/// Fault-model activity: time spent applying faults, events applied, and
/// rounds with at least one event (each forces a full engine reload).
#[derive(Debug, Default)]
pub struct FailureStats {
    busy: Busy,
    events: AtomicU64,
    rounds: AtomicU64,
}

impl FailureStats {
    /// Nanoseconds spent in `apply`.
    pub fn busy_ns(&self) -> u64 {
        self.busy.ns()
    }

    /// Fault events applied.
    pub fn events(&self) -> u64 {
        self.events.load(Relaxed)
    }

    /// Rounds with at least one event.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Relaxed)
    }
}

/// A [`FailureModel`] that times the one it wraps.
pub struct TimedFailure<F> {
    inner: F,
    stats: Arc<FailureStats>,
}

impl<F> TimedFailure<F> {
    /// Wraps `inner`, reporting into `stats`.
    pub fn new(inner: F, stats: Arc<FailureStats>) -> TimedFailure<F> {
        TimedFailure { inner, stats }
    }
}

impl<F: FailureModel> FailureModel for TimedFailure<F> {
    fn apply(&mut self, system: &mut System, round: u64) -> FailureEvents {
        let t = Instant::now();
        let events = self.inner.apply(system, round);
        self.stats.busy.add(t);
        let n = events.failed.len() + events.recovered.len() + events.corrupted.len();
        if n > 0 {
            self.stats.events.fetch_add(n as u64, Relaxed);
            self.stats.rounds.fetch_add(1, Relaxed);
        }
        events
    }
}

/// A [`SnapshotStore`] over [`MemoryStore`] that times every append.
#[derive(Debug, Default)]
pub struct TimedStore {
    inner: MemoryStore,
    append_ns: Mutex<Vec<u64>>,
}

impl TimedStore {
    /// Per-append latencies recorded so far.
    pub fn append_ns(&self) -> Vec<u64> {
        self.append_ns
            .lock()
            .expect("no store caller panics while holding the lock")
            .clone()
    }
}

impl SnapshotStore for TimedStore {
    fn append(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        let t = Instant::now();
        let out = self.inner.append(cell, record);
        let ns = ns_since(t);
        self.append_ns
            .lock()
            .expect("no store caller panics while holding the lock")
            .push(ns);
        out
    }

    fn latest(&self, cell: CellId) -> Result<Option<PersistedRecord>, StoreError> {
        self.inner.latest(cell)
    }

    fn append_torn(&self, cell: CellId, record: &PersistedRecord) -> Result<(), StoreError> {
        self.inner.append_torn(cell, record)
    }
}

/// An [`io::Write`] sink that keeps only the number of bytes written: the
/// telemetry stream's cost without a disk in the measurement.
#[derive(Clone, Debug, Default)]
pub struct ByteCounter {
    bytes: Arc<AtomicU64>,
}

impl ByteCounter {
    /// Bytes written so far, through any clone.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }
}

impl io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
