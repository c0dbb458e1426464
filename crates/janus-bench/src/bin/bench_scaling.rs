//! Commit-throughput scaling sweep emitting `BENCH_scaling.json`.
//!
//! Measures how commit throughput scales with thread count on a
//! *disjoint-shard* workload — every task touches locations of its own
//! class, so tasks never conflict and the only serialization left is the
//! store's commit path. With the sharded store, disjoint commits go
//! through different shard locks and overlap; the sweep quantifies that
//! by comparing 2-thread and 16-thread throughput at several shard
//! counts.
//!
//! The host may be a single-core container, so the sweep runs on the
//! virtual-time simulator (the DESIGN.md substitution policy): task
//! bodies, detection and replay execute for real and are timed with a
//! monotonic clock, while the parallel timeline — including the
//! per-shard commit locks — is simulated. The JSON labels this honestly
//! (`"timeline": "virtual"`); ratios between configs are the meaningful
//! signal, absolute times are informational.
//!
//! Usage: `bench-scaling [--quick] [OUT.json]` (default
//! `BENCH_scaling.json`).

use std::sync::Arc;

use janus_bench::sim::{sequential_baseline, simulate};
use janus_core::{Store, Task, TxView};
use janus_detect::{ConflictDetector, SequenceDetector};
use janus_relational::Value;

/// One class (and thus one shard residue) per task group, `ops` locations
/// each: thread counts up to the group count can commit fully disjointly.
/// Each task writes all of its group's locations, so commit-time replay
/// carries real weight and the commit lock — global vs per-shard — is
/// what the sweep actually measures.
fn disjoint_setup(
    classes: usize,
    tasks_per_class: usize,
    ops: usize,
    work: u64,
) -> (Store, Vec<Task>) {
    let mut store = Store::new();
    let locs: Vec<Vec<_>> = (0..classes)
        .map(|c| {
            (0..ops)
                .map(|_| store.alloc(format!("group{c}").as_str(), Value::int(0)))
                .collect()
        })
        .collect();
    let tasks = (0..classes * tasks_per_class)
        .map(|i| {
            let mine = locs[i % classes].clone();
            Task::new(move |tx: &mut TxView| {
                for &loc in &mine {
                    tx.add(loc, 1);
                }
                janus_workloads::local_work(work);
            })
        })
        .collect();
    (store, tasks)
}

struct Row {
    threads: usize,
    shards: usize,
    commits: u64,
    retries: u64,
    virtual_wall: f64,
    throughput: f64,
    speedup_vs_seq: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    let classes = 16usize;
    let tasks_per_class = if quick { 4 } else { 12 };
    let ops = 16usize;
    let work: u64 = if quick { 15_000 } else { 40_000 };
    let thread_grid: &[usize] = &[1, 2, 4, 8, 16];
    let shard_grid: &[usize] = &[1, 8, 64];

    let (store, tasks) = disjoint_setup(classes, tasks_per_class, ops, work);
    let (_, seq_wall) = sequential_baseline(store.clone(), &tasks);
    let det: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());

    // Body/replay costs are measured with a monotonic clock on a
    // possibly loaded box; the minimum wall over a few repetitions is
    // the standard noise-free estimate.
    let reps = 3;
    let mut rows = Vec::new();
    for &shards in shard_grid {
        for &threads in thread_grid {
            let mut best: Option<janus_bench::sim::SimMetrics> = None;
            for _ in 0..reps {
                let (_, m) = simulate(store.clone(), &tasks, &det, threads, false, shards);
                assert_eq!(m.commits, tasks.len() as u64, "every task commits");
                if best
                    .as_ref()
                    .is_none_or(|b| m.virtual_wall < b.virtual_wall)
                {
                    best = Some(m);
                }
            }
            let m = best.expect("at least one repetition");
            rows.push(Row {
                threads,
                shards,
                commits: m.commits,
                retries: m.retries,
                virtual_wall: m.virtual_wall,
                throughput: m.commits as f64 / m.virtual_wall,
                speedup_vs_seq: seq_wall / m.virtual_wall,
            });
        }
    }

    let ratio_at = |shards: usize, hi: usize, lo: usize| -> f64 {
        let pick = |t: usize| {
            rows.iter()
                .find(|r| r.shards == shards && r.threads == t)
                .map(|r| r.throughput)
                .unwrap_or(0.0)
        };
        pick(hi) / pick(lo)
    };
    let scaling_16v2_sharded = ratio_at(64, 16, 2);
    let scaling_16v2_single = ratio_at(1, 16, 2);

    let mut json = String::from(
        "{\n  \"bench\": \"scaling\",\n  \"timeline\": \"virtual\",\n  \
         \"workload\": \"disjoint-shard (16 classes, add-only)\",\n",
    );
    json.push_str(&format!(
        "  \"sequential_wall_s\": {seq_wall:.6},\n  \
         \"scaling_16v2_sharded\": {scaling_16v2_sharded:.3},\n  \
         \"scaling_16v2_single_lock\": {scaling_16v2_single:.3},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"shards\": {}, \"commits\": {}, \"retries\": {}, \
             \"virtual_wall_s\": {:.6}, \"throughput_commits_per_s\": {:.1}, \
             \"speedup_vs_seq\": {:.3}}}{}\n",
            r.threads,
            r.shards,
            r.commits,
            r.retries,
            r.virtual_wall,
            r.throughput,
            r.speedup_vs_seq,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_scaling.json");

    for r in &rows {
        eprintln!(
            "threads={:2} shards={:2}  commits={:3} retries={:2}  wall={:.4}s  \
             {:>9.1} commits/s  speedup={:5.2}",
            r.threads,
            r.shards,
            r.commits,
            r.retries,
            r.virtual_wall,
            r.throughput,
            r.speedup_vs_seq,
        );
    }
    println!(
        "16-vs-2-thread throughput ratio: {scaling_16v2_sharded:.2}x sharded (64), \
         {scaling_16v2_single:.2}x single lock"
    );
    println!("wrote {out_path} ({} configs)", rows.len());

    // Gate: near-linear scaling on disjoint shards is the tentpole's
    // success metric — 16 threads must out-commit 2 threads by >= 6x
    // with the sharded store (and the single-lock baseline must not).
    assert!(
        scaling_16v2_sharded >= 6.0,
        "sharded 16-vs-2-thread ratio below gate: {scaling_16v2_sharded:.2}"
    );
}
