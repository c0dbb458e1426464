//! Scheduling equivalence under high contention: whether or not a retry
//! budget escalates starved tasks to serial execution, the protocol's
//! outcome guarantees are unchanged.
//!
//! * Commutative (add-only) task sets: `Fifo` with and without a retry
//!   budget commits all tasks and lands on exactly the sequential final
//!   store, for random thread counts and hotspot skews.
//! * Order-sensitive tasks under `ordered(true)`: `Fifo` equals the
//!   sequential outcome bit for bit.
//! * A pure hotspot with a budget of one abort: every retry degrades to
//!   serial execution and the sums still come out right.

use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::WriteSetDetector;
use janus::relational::Value;
use proptest::prelude::*;

/// One add-only task: bump location `loc` by `delta`. Addition commutes,
/// so any commit order yields the sequential sums.
#[derive(Debug, Clone, Copy)]
struct AddTask {
    loc: usize,
    delta: i64,
}

/// Skewed task generator: with probability `hot_pct`% a task hits
/// location 0 (the hotspot); otherwise one of `cold` cold locations.
fn add_task_strategy(cold: usize) -> impl Strategy<Value = AddTask> {
    (0u32..100, 0usize..cold.max(1), -5i64..6).prop_map(move |(roll, c, delta)| AddTask {
        loc: if roll < 70 { 0 } else { 1 + c },
        delta,
    })
}

/// The retry-budget settings every contended run is checked under:
/// unbounded retries, and serial escalation after two conflict aborts.
const BUDGETS: [Option<u32>; 2] = [None, Some(2)];

fn run_with_budget(
    tasks: &[AddTask],
    n_locs: usize,
    threads: usize,
    budget: Option<u32>,
) -> (u64, Vec<i64>) {
    let mut store = Store::new();
    let locs: Vec<_> = (0..n_locs)
        .map(|i| store.alloc(format!("l{i}").as_str(), Value::int(0)))
        .collect();
    let built: Vec<Task> = tasks
        .iter()
        .map(|&t| {
            let loc = locs[t.loc];
            Task::new(move |tx: &mut TxView| {
                // Read-modify-write rather than a commuting `add`, so
                // overlapping hot tasks genuinely conflict under
                // write-set detection and exercise retry scheduling.
                let v = tx.read_int(loc);
                tx.write(loc, v + t.delta);
            })
        })
        .collect();
    let mut janus = Janus::new(Arc::new(WriteSetDetector::new())).threads(threads);
    if let Some(b) = budget {
        janus = janus.max_attempts(b);
    }
    let outcome = janus.run(store, built);
    let finals = locs
        .iter()
        .map(|&l| outcome.store.value(l).and_then(Value::as_int).expect("int"))
        .collect();
    (outcome.stats.commits, finals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_policy_commits_all_tasks_to_the_sequential_sums(
        tasks in proptest::collection::vec(add_task_strategy(3), 1..24),
        threads in 1usize..5,
    ) {
        let n_locs = 4;
        // Addition commutes: the expected final store is the per-location
        // sum regardless of commit order.
        let mut expected = vec![0i64; n_locs];
        for t in &tasks {
            expected[t.loc] += t.delta;
        }
        for budget in BUDGETS {
            let (commits, finals) = run_with_budget(&tasks, n_locs, threads, budget);
            prop_assert_eq!(
                commits,
                tasks.len() as u64,
                "budget {:?}: all tasks commit", budget
            );
            prop_assert_eq!(
                &finals,
                &expected,
                "budget {:?} @ {} threads", budget, threads
            );
        }
    }

    #[test]
    fn ordered_runs_match_sequential_under_every_policy(
        deltas in proptest::collection::vec(1i64..7, 1..12),
        threads in 1usize..5,
    ) {
        // Order-sensitive hot chain: x := x * 3 + d. Only the submission
        // order produces the sequential value, so ordered commit must
        // hold with and without a budget (escalation is a no-op when
        // ordered).
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(1));
        let build = |deltas: &[i64]| -> Vec<Task> {
            deltas
                .iter()
                .map(|&d| {
                    Task::new(move |tx: &mut TxView| {
                        let v = tx.read_int(x);
                        tx.write(x, v.wrapping_mul(3).wrapping_add(d));
                    })
                })
                .collect()
        };
        let (seq_store, _) = Janus::run_sequential(store.clone(), &build(&deltas));
        let expected = seq_store.value(x).and_then(Value::as_int).expect("int");
        for budget in BUDGETS {
            let mut janus = Janus::new(Arc::new(WriteSetDetector::new()))
                .threads(threads)
                .ordered(true);
            if let Some(b) = budget {
                janus = janus.max_attempts(b);
            }
            let outcome = janus.run(store.clone(), build(&deltas));
            prop_assert_eq!(outcome.stats.commits, deltas.len() as u64, "budget {:?}", budget);
            let got = outcome.store.value(x).and_then(Value::as_int).expect("int");
            prop_assert_eq!(got, expected, "budget {:?} @ {} threads", budget, threads);
        }
    }
}

#[test]
fn degradation_under_a_pure_hotspot_still_sums_correctly() {
    // Deterministic high-contention case outside proptest: 48 tasks all
    // read-modify-write one location, and a retry budget of one conflict
    // abort degrades every retry to serial execution under the
    // run-level token.
    let mut store = Store::new();
    let hot = store.alloc("hot", Value::int(0));
    let tasks: Vec<Task> = (1..=48i64)
        .map(|d| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(hot);
                tx.write(hot, v + d);
            })
        })
        .collect();
    let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(4)
        .max_attempts(1)
        .run(store, tasks);
    assert_eq!(outcome.stats.commits, 48);
    assert_eq!(
        outcome.store.value(hot),
        Some(&Value::int((1..=48).sum::<i64>()))
    );
    assert!(
        outcome.stats.retry_budget_escalations <= outcome.stats.retries,
        "every escalation follows a conflict abort ({} escalations, {} retries)",
        outcome.stats.retry_budget_escalations,
        outcome.stats.retries
    );
}
