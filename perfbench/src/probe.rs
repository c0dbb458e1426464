//! Timing wrappers around the runtime's public seams, used only by
//! traced runs.
//!
//! Each wrapper forwards to the real implementation and adds the time
//! spent inside the call to a [`Clock`]. The clocked intervals of one
//! worker never overlap (a task body, a validation step, a dispatch
//! call and a park are sequential phases of the worker loop), so
//! `run wall × workers − Σ clocks` is the runtime's own remaining time
//! and must never be negative.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use janus::core::{CommitSink, Task};
use janus::detect::{ConflictDetector, DetectorStats, EntryState, ValidationSession};
use janus::log::{CommittedLog, HistoryWindow, Op};
use janus::obs::RingHandle;
use janus::sched::{BackoffHint, Dispatch, SchedStats, SchedulePolicy, TaskSource};

/// Accumulated time, call count and longest call of one seam.
#[derive(Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
    max_ns: AtomicU64,
}

impl Clock {
    pub fn add(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Runs `f`, adding its duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn max_ms(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Every clock a traced run reads. Counts that the wrappers observe
/// directly (sessions, extends, conflicting sessions) live here too.
#[derive(Default)]
pub struct Probes {
    /// `Task::run`: task bodies.
    pub exec: Clock,
    /// `TaskSource::next_task`/`on_commit`/`on_abort`: dispatch.
    pub dispatch: Clock,
    /// `TaskSource::on_park` → `on_unpark`: ordered-turn, gate and
    /// backoff waits.
    pub park: Clock,
    /// `ConflictDetector::begin_validation_traced` plus every
    /// `ValidationSession::extend`.
    pub validate: Clock,
    /// `ValidationSession::extend` alone (its calls are the extends).
    pub extend: Clock,
    /// Sessions whose verdict became a conflict.
    pub conflicted: AtomicU64,
    /// `CommitSink::committed`/`skipped` around the journal's sink.
    pub sink: Clock,
}

impl Probes {
    pub fn sessions(&self) -> u64 {
        self.validate.calls() - self.extend.calls()
    }

    /// Worker seconds the clocks account for: bodies, validation,
    /// dispatch and parking.
    pub fn accounted_secs(&self) -> f64 {
        self.exec.secs() + self.validate.secs() + self.dispatch.secs() + self.park.secs()
    }
}

impl std::fmt::Debug for Probes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Probes")
    }
}

/// Wraps every task body in the `exec` clock.
pub fn timed_tasks(tasks: &[Task], probes: &Arc<Probes>) -> Vec<Task> {
    tasks
        .iter()
        .map(|t| {
            let (inner, probes) = (t.clone(), Arc::clone(probes));
            Task::new(move |tx| probes.exec.time(|| inner.run(tx)))
        })
        .collect()
}

/// A detector that times session creation and every extension.
pub struct TimedDetector {
    pub inner: Arc<dyn ConflictDetector>,
    pub probes: Arc<Probes>,
}

struct TimedSession<'a> {
    inner: Box<dyn ValidationSession + 'a>,
    probes: &'a Probes,
    conflicted: bool,
}

impl ValidationSession for TimedSession<'_> {
    fn extend(&mut self, delta: &HistoryWindow<'_>) -> bool {
        let t = Instant::now();
        let conflict = self.inner.extend(delta);
        let d = t.elapsed();
        self.probes.extend.add(d);
        self.probes.validate.add(d);
        if conflict && !self.conflicted {
            self.conflicted = true;
            self.probes.conflicted.fetch_add(1, Ordering::Relaxed);
        }
        conflict
    }

    fn conflicted(&self) -> bool {
        self.inner.conflicted()
    }
}

impl ConflictDetector for TimedDetector {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        let inner = self
            .probes
            .validate
            .time(|| self.inner.begin_validation_traced(entry, txn, obs));
        Box::new(TimedSession {
            inner,
            probes: &self.probes,
            conflicted: false,
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &DetectorStats {
        self.inner.stats()
    }
}

/// A scheduling policy whose sources time dispatch and parking.
#[derive(Debug)]
pub struct TimedPolicy {
    pub inner: Arc<dyn SchedulePolicy>,
    pub probes: Arc<Probes>,
}

impl SchedulePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
        Box::new(TimedSource {
            inner: self.inner.bind(tasks, workers),
            probes: Arc::clone(&self.probes),
            epoch: Instant::now(),
            parked_at: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        })
    }
}

struct TimedSource {
    inner: Box<dyn TaskSource>,
    probes: Arc<Probes>,
    epoch: Instant,
    /// Per worker: nanoseconds since `epoch` at its last `on_park`.
    parked_at: Vec<AtomicU64>,
}

impl TimedSource {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl TaskSource for TimedSource {
    fn next_task(&self, worker: usize) -> Option<Dispatch> {
        self.probes.dispatch.time(|| self.inner.next_task(worker))
    }

    fn on_abort(&self, worker: usize, task: usize, attempt: u32) -> BackoffHint {
        self.probes
            .dispatch
            .time(|| self.inner.on_abort(worker, task, attempt))
    }

    fn on_commit(&self, worker: usize, task: usize) {
        self.probes
            .dispatch
            .time(|| self.inner.on_commit(worker, task))
    }

    fn on_park(&self, worker: usize) {
        self.parked_at[worker].store(self.now_ns(), Ordering::Relaxed);
        self.inner.on_park(worker);
    }

    fn on_unpark(&self, worker: usize) {
        self.inner.on_unpark(worker);
        let since = self.parked_at[worker].load(Ordering::Relaxed);
        let d = self.now_ns().saturating_sub(since);
        self.probes.park.add(Duration::from_nanos(d));
    }

    fn stats(&self) -> SchedStats {
        self.inner.stats()
    }
}

/// A commit sink that times the journal's append path.
pub struct TimedSink {
    pub inner: Arc<dyn CommitSink>,
    pub probes: Arc<Probes>,
}

impl CommitSink for TimedSink {
    fn committed(&self, seq: u64, shard_mask: u64, ops: &[Op]) {
        self.probes
            .sink
            .time(|| self.inner.committed(seq, shard_mask, ops))
    }

    fn skipped(&self, seq: u64) {
        self.probes.sink.time(|| self.inner.skipped(seq))
    }
}
