//! Batch workloads: `janus::workloads` scenarios built from the seed,
//! run through `Janus::run` and `Janus::run_sequential` in-process.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use janus::core::{Janus, Outcome, Store, Task};
use janus::detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector};
use janus::sched::Fifo;
use janus::train::{train, TrainConfig};
use janus::workloads::{training_runs, workload_by_name, InputSpec, Scenario, Workload};

use crate::probe::{timed_tasks, Probes, TimedDetector, TimedPolicy};
use crate::report::{median, peak_rss_mb, quantile, ratio, RunReport, SplitMix};
use crate::{Params, THREADS};

/// A parallel run that has not returned by then counts as failed and
/// ends the measurement.
pub const RUN_DEADLINE: Duration = Duration::from_secs(30);
/// Set-ups per run: at least `SETUP_REPS`, and more while their total
/// stays under `SETUP_BUDGET` (cheap set-ups get a steadier median).
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 2000;

/// Measured pairs (parallel + sequential) per run, at least.
const MIN_PAIRS: usize = 3;

/// One batch workload's fixed parameters.
pub struct BatchSpec {
    pub workload: &'static str,
    pub scale: usize,
    /// Distinct seeded inputs built per run; rounds cycle through them,
    /// so a run's medians do not hinge on one input's structure.
    pub inputs: usize,
    /// Cached detector trained in set-up, or the online detector.
    pub cached: bool,
}

impl BatchSpec {
    pub fn params(&self) -> Params {
        Params {
            scale: format!("{} ({} inputs per run)", self.scale, self.inputs),
            detector: if self.cached { "cached" } else { "sequence" }.to_string(),
            rate: "closed loop".to_string(),
            fsync: "none".to_string(),
        }
    }
}

/// The measuring time of one run, spent in rounds.
struct Budget {
    start: Instant,
    seconds: f64,
    /// When the current round began.
    round: Instant,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Budget {
            start: now,
            seconds,
            round: now,
        }
    }

    /// Whether to measure another round after `done` rounds: always
    /// until `MIN_PAIRS`, then while a round as long as the last one
    /// still ends within the budget.
    fn another_round(&mut self, done: usize) -> bool {
        let now = Instant::now();
        let last = now.duration_since(self.round).as_secs_f64();
        self.round = now;
        done < MIN_PAIRS || now.duration_since(self.start).as_secs_f64() + last <= self.seconds
    }
}

/// Built scenarios plus their detector, and what set-up cost.
struct Prepared {
    workload: Box<dyn Workload>,
    scenarios: Vec<Scenario>,
    detector: Arc<dyn ConflictDetector>,
    setup_s: f64,
    train_s: f64,
    freeze_s: f64,
}

/// The seed of a run's `i`-th input: the run seed itself, then seeds
/// derived from it.
fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        SplitMix(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
    }
}

/// Scenario builds + (for cached workloads) training and cache freeze.
fn prepare(spec: &BatchSpec, seed: u64) -> Prepared {
    let t = Instant::now();
    let workload = workload_by_name(spec.workload).expect("workload is in the catalog");
    let degree = workload.production_inputs()[0].degree;
    let scenarios = (0..spec.inputs)
        .map(|i| workload.build(&InputSpec::new(spec.scale, degree, input_seed(seed, i))))
        .collect();
    let relax = workload.relaxations();
    let (detector, train_s, freeze_s): (Arc<dyn ConflictDetector>, f64, f64) = if spec.cached {
        let t_train = Instant::now();
        let runs = training_runs(workload.as_ref());
        let (cache, _) = train(
            &runs,
            TrainConfig {
                use_abstraction: true,
                verify_symbolic: true,
            },
        );
        let train_s = t_train.elapsed().as_secs_f64();
        let t_freeze = Instant::now();
        let frozen = Arc::new(cache.freeze());
        let freeze_s = t_freeze.elapsed().as_secs_f64();
        (
            Arc::new(CachedSequenceDetector::with_relaxations(frozen, relax)),
            train_s,
            freeze_s,
        )
    } else {
        (
            Arc::new(SequenceDetector::with_relaxations(relax)),
            0.0,
            0.0,
        )
    };
    Prepared {
        workload,
        scenarios,
        detector,
        setup_s: t.elapsed().as_secs_f64(),
        train_s,
        freeze_s,
    }
}

/// Sets up repeatedly, keeping the last; returns it with the median
/// set-up, training and freeze times.
fn prepare_reps(spec: &BatchSpec, seed: u64) -> (Prepared, f64, f64, f64) {
    let mut setups = Vec::new();
    let mut trains = Vec::new();
    let mut freezes = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while setups.len() < SETUP_REPS
        || (start.elapsed() < SETUP_BUDGET && setups.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let p = prepare(spec, seed);
        setups.push(p.setup_s);
        trains.push(p.train_s);
        freezes.push(p.freeze_s);
        last = Some(p);
    }
    let p = last.expect("at least one set-up");
    (p, median(&setups), median(&trains), median(&freezes))
}

/// One parallel run on a helper thread, so a run that never returns is
/// abandoned at the deadline instead of hanging the benchmark. A run
/// that panics or misses the deadline yields `None`.
pub fn run_with_deadline(janus: &Janus, store: Store, tasks: Vec<Task>) -> Option<(Outcome, f64)> {
    let (tx, rx) = mpsc::channel();
    let janus = janus.clone();
    let handle = std::thread::Builder::new()
        .name("perfbench-run".into())
        .spawn(move || {
            let t = Instant::now();
            let outcome = janus.run(store, tasks);
            let _ = tx.send((outcome, t.elapsed().as_secs_f64()));
        })
        .expect("spawn the run thread");
    let result = rx.recv_timeout(RUN_DEADLINE).ok();
    if result.is_some() || handle.is_finished() {
        // A panicking run surfaces as a disconnected channel; its
        // payload was already printed by the panic hook.
        let _ = handle.join();
    }
    // Past the deadline the thread is left running; the process exits
    // right after printing its result.
    result
}

/// Output checks of one parallel run: every task committed and the
/// workload's own state check passes. Returns the failed task count.
fn check_outcome(prep: &Prepared, sc: &Scenario, outcome: &Outcome, report: &mut RunReport) -> u64 {
    let n = sc.tasks.len() as u64;
    let committed_all = outcome.stats.commits == n && outcome.failed.is_empty();
    report.check(committed_all, || {
        format!(
            "{}: {} of {n} tasks committed, {} failed",
            prep.workload.name(),
            outcome.stats.commits,
            outcome.failed.len()
        )
    });
    let state_ok = (sc.check)(&outcome.store);
    report.check(state_ok, || {
        format!(
            "{}: final state fails the workload check",
            prep.workload.name()
        )
    });
    if committed_all && state_ok {
        0
    } else {
        n
    }
}

/// A timed `Janus::run_sequential` of the scenario, checked.
fn sequential(prep: &Prepared, sc: &Scenario, report: &mut RunReport) -> f64 {
    let t = Instant::now();
    let (store, _) = Janus::run_sequential(sc.store.clone(), &sc.tasks);
    let wall = t.elapsed().as_secs_f64();
    let n = sc.tasks.len() as u64;
    report.attempted += n;
    let ok = (sc.check)(&store);
    report.check(ok, || {
        format!(
            "{}: sequential state fails the workload check",
            prep.workload.name()
        )
    });
    if !ok {
        report.failed += n;
    }
    wall
}

fn janus_for(prep: &Prepared, detector: Arc<dyn ConflictDetector>) -> Janus {
    Janus::new(detector)
        .threads(THREADS)
        .ordered(prep.workload.ordered())
}

/// One checked parallel run: its outcome and wall seconds. `Err` when
/// it panicked or missed its deadline (the caller stops measuring
/// then).
fn parallel(
    prep: &Prepared,
    sc: &Scenario,
    janus: &Janus,
    tasks: Vec<Task>,
    report: &mut RunReport,
) -> Result<(Outcome, f64), ()> {
    let n = sc.tasks.len() as u64;
    report.attempted += n;
    match run_with_deadline(janus, sc.store.clone(), tasks) {
        Some((outcome, wall)) => {
            let failed = check_outcome(prep, sc, &outcome, report);
            report.failed += failed;
            Ok((outcome, wall))
        }
        None => {
            eprintln!(
                "{}: parallel run failed or missed its {:?} deadline",
                prep.workload.name(),
                RUN_DEADLINE
            );
            report.failed += n;
            Err(())
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(spec: &BatchSpec, seed: u64, seconds: f64, report: &mut RunReport) -> u64 {
    let (prep, setup_s, _, _) = prepare_reps(spec, seed);
    let janus = janus_for(&prep, Arc::clone(&prep.detector));
    let first = &prep.scenarios[0];
    // Warm-up: one checked run, not timed.
    if parallel(&prep, first, &janus, first.tasks.clone(), report).is_err() {
        return 0;
    }
    let (mut walls, mut seqs) = (Vec::new(), Vec::new());
    let mut budget = Budget::new(seconds);
    while budget.another_round(walls.len()) {
        let sc = &prep.scenarios[walls.len() % prep.scenarios.len()];
        let Ok((_, wall)) = parallel(&prep, sc, &janus, sc.tasks.clone(), report) else {
            break;
        };
        seqs.push(sequential(&prep, sc, report));
        walls.push(wall);
    }
    let n = first.tasks.len() as f64;
    report.metric("txn_per_s", n / median(&walls), "1/s");
    report.metric("speedup_vs_seq", median(&seqs) / median(&walls), "ratio");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    report.metric("block_p50_ms", median(&walls) * 1e3, "ms");
    report.reported("block_p99_ms", quantile(&walls, 0.99) * 1e3, "ms");
    walls.len() as u64
}

/// Layer figures summed over traced runs (or over a traced stream's
/// blocks).
#[derive(Default)]
pub struct LayerSample {
    pub run_s: f64,
    pub exec_s: f64,
    pub exec_calls: f64,
    pub dispatch_s: f64,
    pub park_s: f64,
    pub parks: f64,
    pub validate_s: f64,
    pub sessions: f64,
    pub extends: f64,
    pub extend_max_ms: f64,
    pub conflicted: f64,
    pub ops_scanned: f64,
    pub cells_checked: f64,
    pub segments_skipped: f64,
    pub segments_scanned: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub commits: f64,
    pub retries: f64,
    pub lock_wait_s: f64,
    pub history_reclaimed: f64,
    /// Worker-seconds the run had: run wall × workers.
    pub worker_s: f64,
}

impl LayerSample {
    /// `worker_s − exec − validate − dispatch − park`: the runtime's own
    /// time (snapshots, commit, publish, GC, thread start-up).
    pub fn other_s(&self) -> f64 {
        self.worker_s - self.exec_s - self.validate_s - self.dispatch_s - self.park_s
    }

    /// Adds the wrapper-measured figures of `p`.
    pub fn add_probes(&mut self, p: &Probes) {
        self.exec_s += p.exec.secs();
        self.exec_calls += p.exec.calls() as f64;
        self.dispatch_s += p.dispatch.secs();
        self.park_s += p.park.secs();
        self.parks += p.park.calls() as f64;
        self.validate_s += p.validate.secs();
        self.sessions += p.sessions() as f64;
        self.extends += p.extend.calls() as f64;
        self.extend_max_ms = self.extend_max_ms.max(p.extend.max_ms());
        self.conflicted += p.conflicted.load(Ordering::Relaxed) as f64;
    }

    /// Adds the detector counters accumulated since `before`.
    pub fn add_detector_delta(&mut self, det: &dyn ConflictDetector, before: [u64; 6]) {
        let now = detector_counters(det);
        self.ops_scanned += (now[0] - before[0]) as f64;
        self.cells_checked += (now[1] - before[1]) as f64;
        self.segments_skipped += (now[2] - before[2]) as f64;
        self.segments_scanned += (now[3] - before[3]) as f64;
        self.cache_hits += (now[4] - before[4]) as f64;
        self.cache_misses += (now[5] - before[5]) as f64;
    }
}

pub fn detector_counters(det: &dyn ConflictDetector) -> [u64; 6] {
    let s = det.stats();
    [
        s.ops_scanned(),
        s.cells_checked(),
        s.segments_skipped(),
        s.segments_scanned(),
        s.cache_hits.load(Ordering::Relaxed),
        s.cache_misses.load(Ordering::Relaxed),
    ]
}

/// Reports the layer metrics every workload shares: task bodies,
/// dispatch, detection and the runtime core. `per` divides totals into
/// per-unit figures (traced runs for batch workloads, 1 for a stream).
pub fn report_core_layers(
    t: &LayerSample,
    per: f64,
    seq_s: f64,
    trace_overhead: f64,
    report: &mut RunReport,
) {
    report.metric("workloads.exec_s", t.exec_s / per, "s");
    report.metric("workloads.exec_calls", t.exec_calls / per, "count");
    report.metric("sched.dispatch_s", t.dispatch_s / per, "s");
    report.metric("sched.park_s", t.park_s / per, "s");
    report.metric("sched.parks", t.parks / per, "count");
    report.metric("detect.validate_s", t.validate_s / per, "s");
    report.metric("detect.sessions", t.sessions / per, "count");
    report.metric("detect.extends", t.extends / per, "count");
    report.metric("detect.extend_max_ms", t.extend_max_ms, "ms");
    report.metric(
        "detect.conflict_frac",
        ratio(t.conflicted, t.sessions),
        "ratio",
    );
    report.metric("detect.ops_scanned", t.ops_scanned / per, "count");
    report.metric("detect.cells_checked", t.cells_checked / per, "count");
    report.metric(
        "detect.segments_skipped_frac",
        ratio(t.segments_skipped, t.segments_skipped + t.segments_scanned),
        "ratio",
    );
    report.metric("core.run_s", t.run_s / per, "s");
    report.metric("core.seq_s", seq_s, "s");
    report.metric("core.other_s", t.other_s() / per, "s");
    report.metric("core.retry_ratio", ratio(t.retries, t.commits), "ratio");
    report.metric("core.lock_wait_s", t.lock_wait_s / per, "s");
    report.metric("core.history_reclaimed", t.history_reclaimed / per, "count");
    report.metric("bench.trace_overhead", trace_overhead, "ratio");
}

/// The traced run: alternates untraced and traced parallel runs (plus a
/// sequential one) and reports per-layer metrics as means per traced
/// run.
pub fn run_traced(spec: &BatchSpec, seed: u64, seconds: f64, report: &mut RunReport) -> u64 {
    let (prep, _, train_s, freeze_s) = prepare_reps(spec, seed);
    let plain = janus_for(&prep, Arc::clone(&prep.detector));
    let first = &prep.scenarios[0];
    if parallel(&prep, first, &plain, first.tasks.clone(), report).is_err() {
        return 0;
    }
    let (mut untraced, mut traced_walls, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
    let mut t = LayerSample::default();
    let mut budget = Budget::new(seconds);
    while budget.another_round(traced_walls.len()) {
        let sc = &prep.scenarios[traced_walls.len() % prep.scenarios.len()];
        let Ok((_, wall)) = parallel(&prep, sc, &plain, sc.tasks.clone(), report) else {
            break;
        };
        untraced.push(wall);

        let probes = Arc::new(Probes::default());
        let traced = janus_for(
            &prep,
            Arc::new(TimedDetector {
                inner: Arc::clone(&prep.detector),
                probes: Arc::clone(&probes),
            }),
        )
        .schedule(Arc::new(TimedPolicy {
            inner: Arc::new(Fifo),
            probes: Arc::clone(&probes),
        }));
        let before = detector_counters(prep.detector.as_ref());
        let Ok((outcome, wall)) =
            parallel(&prep, sc, &traced, timed_tasks(&sc.tasks, &probes), report)
        else {
            break;
        };
        let worker_s = wall * THREADS.min(sc.tasks.len()) as f64;
        let other_s = worker_s - probes.accounted_secs();
        report.check(other_s >= 0.0, || {
            format!("traced run double-counts: other_s = {other_s:.6} s < 0")
        });
        t.add_probes(&probes);
        t.add_detector_delta(prep.detector.as_ref(), before);
        t.run_s += wall;
        t.worker_s += worker_s;
        t.commits += outcome.stats.commits as f64;
        t.retries += outcome.stats.retries as f64;
        t.lock_wait_s += outcome.shard_stats.lock_wait_ns().sum() as f64 / 1e9;
        t.history_reclaimed += outcome.stats.history_reclaimed as f64;
        traced_walls.push(wall);

        seqs.push(sequential(&prep, sc, report));
    }
    let runs = traced_walls.len().max(1) as f64;
    let overhead = median(&traced_walls) / median(&untraced);
    report_core_layers(&t, runs, median(&seqs), overhead, report);
    report.metric("train.train_s", train_s, "s");
    report.metric("train.freeze_s", freeze_s, "s");
    report.metric(
        "train.cache_miss_frac",
        ratio(t.cache_misses, t.cache_hits + t.cache_misses),
        "ratio",
    );
    crate::serve::report_pipeline_layers(&Default::default(), report);
    traced_walls.len() as u64
}
