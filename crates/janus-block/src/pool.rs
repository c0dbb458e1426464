//! The persistent worker pool: warm threads reused across batches.
//!
//! One pool thread per *lane*. A batch reserves one lane per worker
//! job, each lane runs exactly one job to completion through its own
//! injection slot, then returns itself to the free list. The lane's
//! thread never exits between batches — the thread-reuse half of the
//! ROADMAP's work-stealing refactor — and the free list is a LIFO
//! stack, so a steady barrier-mode caller gets the same (cache-warm)
//! lanes back batch after batch, while a pipelined caller alternates
//! between two lane sets.
//!
//! When a dispatch wants more lanes than are free, the excess jobs land
//! in a shared *overflow* queue instead of blocking the caller: a lane
//! that completes its job steals queued work from the overflow (FIFO,
//! so earlier batches drain first) before idling. Reservation never
//! holds-and-waits, so concurrent dispatches cannot deadlock on partial
//! reservations, and oversubscribed dispatches degrade to bounded
//! parallelism instead of panicking.
//!
//! Uses `std::sync` primitives throughout: the pool needs a `Condvar`,
//! which the in-repo `parking_lot` shim does not provide.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use janus_core::{Job, JobExecutor};

/// The free-lane stack and the overflow queue, guarded together: a lane
/// decides "steal overflow work or go idle" in one critical section, so
/// a job can never be queued while a lane slips onto the free list.
struct FreeState {
    /// Indices of lanes with no job in flight. LIFO: the most recently
    /// freed (warmest) lanes are handed out first.
    lanes: Vec<usize>,
    /// Jobs dispatched while no lane was free, drained FIFO by lanes
    /// as they complete their slot jobs.
    overflow: VecDeque<PoolJob>,
}

/// A dispatch's completion latch: jobs still running, plus the first
/// panic payload.
type Latch = (
    Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    Condvar,
);

/// A job together with the latch of the dispatch it belongs to.
struct PoolJob {
    job: Job,
    latch: Arc<Latch>,
}

impl PoolJob {
    /// Runs the job, catching its unwind so a panicking batch job can
    /// never kill a pool thread. The dispatch learns of the completion
    /// only when the lane calls [`Finished::release`].
    fn run(self, shared: &PoolShared) -> Finished {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(self.job));
        // Count before releasing the latch so `stats()` read after
        // `run_jobs` returns is never stale.
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        Finished {
            latch: self.latch,
            panic: result.err(),
        }
    }
}

/// A completed job whose dispatch has not been told yet.
struct Finished {
    latch: Arc<Latch>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Finished {
    fn release(self) {
        let (lock, cv) = &*self.latch;
        let mut state = lock.lock().unwrap_or_else(|e| e.into_inner());
        state.0 -= 1;
        if let Some(payload) = self.panic {
            state.1.get_or_insert(payload);
        }
        drop(state);
        cv.notify_all();
    }
}

/// Shared pool state: one injection slot per lane plus the free-lane
/// stack and overflow queue.
struct PoolShared {
    lanes: Vec<Lane>,
    free: Mutex<FreeState>,
    free_cv: Condvar,
    shutdown: AtomicBool,
    jobs_run: AtomicU64,
    dispatches: AtomicU64,
    overflow_queued: AtomicU64,
    overflow_stolen: AtomicU64,
}

/// One lane's injection slot: the single job the lane's thread should
/// run next.
struct Lane {
    inbox: Mutex<Option<PoolJob>>,
    cv: Condvar,
}

/// A persistent pool of worker threads implementing
/// [`JobExecutor`], so [`Janus::run_batch`](janus_core::Janus::run_batch)
/// dispatches onto warm threads instead of spawning fresh ones.
///
/// Dropping the pool shuts the threads down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `lanes` persistent threads. A pipelined block
    /// executor over `t`-thread batches needs `2 * (t + 1)` lanes (two
    /// batches in flight, one watchdog lane each); [`WorkerPool::for_pipeline`]
    /// computes that.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "a pool needs at least one lane");
        let shared = Arc::new(PoolShared {
            lanes: (0..lanes)
                .map(|_| Lane {
                    inbox: Mutex::new(None),
                    cv: Condvar::new(),
                })
                .collect(),
            free: Mutex::new(FreeState {
                lanes: (0..lanes).rev().collect(),
                overflow: VecDeque::new(),
            }),
            free_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_run: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            overflow_queued: AtomicU64::new(0),
            overflow_stolen: AtomicU64::new(0),
        });
        let threads = (0..lanes)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("janus-lane-{i}"))
                    .spawn(move || lane_loop(i, &shared))
                    .expect("spawn pool lane")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// A pool sized for a two-deep pipeline of `threads`-worker batches:
    /// `2 * (threads + 1)` lanes (each in-flight batch takes one lane
    /// per worker plus one for an armed watchdog).
    pub fn for_pipeline(threads: usize) -> Self {
        WorkerPool::new(2 * (threads + 1))
    }

    /// Number of lanes (persistent threads).
    pub fn lanes(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Jobs completed and `run_jobs` calls served so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            lanes: self.shared.lanes.len() as u64,
            jobs_run: self.shared.jobs_run.load(Ordering::Relaxed),
            dispatches: self.shared.dispatches.load(Ordering::Relaxed),
            overflow_queued: self.shared.overflow_queued.load(Ordering::Relaxed),
            overflow_stolen: self.shared.overflow_stolen.load(Ordering::Relaxed),
            conductors: 0,
            blocks_conducted: 0,
        }
    }
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent threads in the pool.
    pub lanes: u64,
    /// Jobs completed across the pool's lifetime.
    pub jobs_run: u64,
    /// `run_jobs` calls (batch dispatches) served.
    pub dispatches: u64,
    /// Jobs that found no free lane and were queued on the overflow.
    pub overflow_queued: u64,
    /// Overflow jobs a freed lane stole instead of idling.
    pub overflow_stolen: u64,
    /// Persistent conductor threads (filled by the block executor; a
    /// bare pool reports 0).
    pub conductors: u64,
    /// Blocks conducted by those persistent threads — `blocks_conducted
    /// / conductors` is the reuse factor the per-block-spawn scheme
    /// never got above 1.
    pub blocks_conducted: u64,
}

fn lane_loop(idx: usize, shared: &PoolShared) {
    loop {
        let job = {
            let lane = &shared.lanes[idx];
            let mut inbox = lane.inbox.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = inbox.take() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                inbox = lane.cv.wait(inbox).unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut finished = job.run(shared);
        // Before idling, steal queued overflow work: a free lane whose
        // injection slot is empty serves waiting jobs instead of
        // parking while dispatched batches run undermanned.
        loop {
            let mut free = shared.free.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(job) = free.overflow.pop_front() {
                drop(free);
                finished.release();
                shared.overflow_stolen.fetch_add(1, Ordering::Relaxed);
                finished = job.run(shared);
                continue;
            }
            // The lane frees itself only after its job completed (and
            // the overflow is empty), so a reservation always gets
            // idle threads. The dispatch is told only after that, so
            // when `run_jobs` returns every lane it used is free again
            // or already serving other work: a barrier-mode caller gets
            // its warm lanes back.
            free.lanes.push(idx);
            drop(free);
            shared.free_cv.notify_all();
            finished.release();
            break;
        }
    }
}

impl JobExecutor for WorkerPool {
    fn run_jobs(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        let latch: Arc<Latch> = Arc::new((Mutex::new((n, None)), Condvar::new()));
        let mut wrapped: Vec<PoolJob> = jobs
            .into_iter()
            .map(|job| PoolJob {
                job,
                latch: Arc::clone(&latch),
            })
            .collect();
        // Take whatever lanes are free and queue the rest on the
        // overflow, all in one critical section: reservation never
        // holds-and-waits (so concurrent dispatches cannot deadlock),
        // and no lane can go idle between the split and the queueing.
        // The leading jobs get the lanes — `run_batch` submits its
        // watchdog job last, so worker jobs start first when lanes are
        // scarce.
        let reserved: Vec<usize> = {
            let mut free = self.shared.free.lock().unwrap_or_else(|e| e.into_inner());
            let take = free.lanes.len().min(n);
            let cut = free.lanes.len() - take;
            let reserved = free.lanes.split_off(cut);
            for job in wrapped.split_off(take) {
                self.shared.overflow_queued.fetch_add(1, Ordering::Relaxed);
                free.overflow.push_back(job);
            }
            reserved
        };
        for (&lane_idx, job) in reserved.iter().zip(wrapped) {
            let lane = &self.shared.lanes[lane_idx];
            *lane.inbox.lock().unwrap_or_else(|e| e.into_inner()) = Some(job);
            lane.cv.notify_one();
        }
        let (lock, cv) = &*latch;
        let mut state = lock.lock().unwrap_or_else(|e| e.into_inner());
        while state.0 > 0 {
            state = cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for lane in &self.shared.lanes {
            // Take the inbox lock so no lane misses the flag between
            // its check and its wait.
            let _g = lane.inbox.lock().unwrap_or_else(|e| e.into_inner());
            lane.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.shared.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn thread_ids(pool: &WorkerPool, jobs: usize) -> HashSet<ThreadId> {
        let ids = Arc::new(Mutex::new(HashSet::new()));
        let batch: Vec<Job> = (0..jobs)
            .map(|_| {
                let ids = Arc::clone(&ids);
                Box::new(move || {
                    ids.lock().unwrap().insert(std::thread::current().id());
                }) as Job
            })
            .collect();
        pool.run_jobs(batch);
        let set = ids.lock().unwrap().clone();
        set
    }

    #[test]
    fn pool_reuses_the_same_threads_across_batches() {
        let pool = WorkerPool::new(4);
        let first = thread_ids(&pool, 4);
        let second = thread_ids(&pool, 4);
        assert_eq!(first.len(), 4, "each job on its own lane");
        assert_eq!(first, second, "warm lanes are reused, not respawned");
        assert_eq!(pool.stats().jobs_run, 8);
        assert_eq!(pool.stats().dispatches, 2);
    }

    #[test]
    fn concurrent_dispatches_share_the_pool_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (pool, counter) = (Arc::clone(&pool), Arc::clone(&counter));
                scope.spawn(move || {
                    for _ in 0..8 {
                        let jobs: Vec<Job> = (0..2)
                            .map(|_| {
                                let counter = Arc::clone(&counter);
                                Box::new(move || {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }) as Job
                            })
                            .collect();
                        pool.run_jobs(jobs);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 8 * 2);
    }

    #[test]
    fn oversubscribed_dispatch_overflows_instead_of_panicking() {
        // 6 jobs on 2 lanes: 2 dispatch directly, 4 ride the overflow
        // queue and are stolen by lanes as they free up.
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..6)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run_jobs(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 6, "every job ran");
        let stats = pool.stats();
        assert_eq!(stats.jobs_run, 6);
        assert_eq!(stats.overflow_queued, 4, "4 jobs found no free lane");
        assert_eq!(stats.overflow_stolen, 4, "free lanes stole all of them");
        // A worker-sized batch afterwards needs no overflow.
        let jobs: Vec<Job> = (0..2).map(|_| Box::new(|| {}) as Job).collect();
        pool.run_jobs(jobs);
        assert_eq!(pool.stats().overflow_queued, 4);
    }

    #[test]
    fn overflow_drains_fifo_across_concurrent_dispatches() {
        let pool = Arc::new(WorkerPool::new(1));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (pool, counter) = (Arc::clone(&pool), Arc::clone(&counter));
                scope.spawn(move || {
                    let jobs: Vec<Job> = (0..4)
                        .map(|_| {
                            let counter = Arc::clone(&counter);
                            Box::new(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as Job
                        })
                        .collect();
                    pool.run_jobs(jobs);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 12);
        assert_eq!(pool.stats().jobs_run, 12);
    }

    #[test]
    fn panicking_job_reraises_without_killing_the_lane() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_jobs(vec![Box::new(|| panic!("pool job boom")) as Job]);
        }))
        .expect_err("payload re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"pool job boom"));
        // The lane survived and serves the next batch.
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        pool.run_jobs(vec![Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().jobs_run, 2);
    }
}
