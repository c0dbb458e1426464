//! The `Fifo` scheduler under the hotspot contention workload.
//!
//! Retry ratios are reported once out of band (they are counts, not
//! durations); the benchmark then times the fully-hot parallel region,
//! whose wall clock is dominated by exactly the wasted re-executions
//! the retry counts measure.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_bench::contention::contention_sweep;
use janus_core::{Janus, Store, Task, TxView};
use janus_detect::WriteSetDetector;

/// A fully-hot scenario: every task read-modify-writes one counter.
fn hot_scenario(n: usize) -> (Store, Vec<Task>) {
    let mut store = Store::new();
    let hot = store.alloc("hot", janus_relational::Value::int(0));
    let tasks: Vec<Task> = (1..=n as i64)
        .map(|d| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(hot);
                tx.write(hot, v + d);
            })
        })
        .collect();
    (store, tasks)
}

fn bench_sched(c: &mut Criterion) {
    // Report the full sweep's retry picture once, out of band.
    for p in contention_sweep(true) {
        eprintln!(
            "contention {}% (budget {:?}): {} retries / {} txns = {:.3}, wall/seq {:.2}",
            p.hot_pct,
            p.budget,
            p.retries,
            p.commits,
            p.retry_ratio(),
            p.wall_vs_sequential(),
        );
    }

    let n = 48;
    let mut group = c.benchmark_group("sched_contention");
    group.bench_with_input(BenchmarkId::new("hot100", "fifo"), &n, |b, &n| {
        b.iter(|| {
            let (store, tasks) = hot_scenario(n);
            Janus::new(Arc::new(WriteSetDetector::new()))
                .threads(4)
                .run(store, tasks)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .plotting_backend(criterion::PlottingBackend::None)
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_sched
}
criterion_main!(benches);
