//! Ablation benchmarks for the design decisions called out in DESIGN.md.
//!
//! * **D3 — cached vs online sequence checks**: end-to-end simulated runs
//!   under the online detector vs the trained cache. The online mode
//!   re-evaluates `SAMEREAD`/`COMMUTE` per query (quadratic in sequence
//!   length); the cache answers in one summary fold.
//! * **D4 — persistent vs eager privatization**: transaction begin with
//!   the O(1) persistent snapshot vs a deep copy of the whole store, on a
//!   store with a large relational object.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_adt::MapAdt;
use janus_bench::experiments::{grid_input, trained_cache};
use janus_bench::sim::simulate;
use janus_core::{Janus, Store, Task};
use janus_detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector, WriteSetDetector};
use janus_relational::Scalar;
use janus_workloads::workload_by_name;

/// D3: online vs cached sequence detection on the identity-heavy
/// JFileSync workload.
fn bench_online_vs_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_d3_online_vs_cached");
    let workload = workload_by_name("jfilesync").expect("workload exists");
    let w = workload.as_ref();
    let input = grid_input(w, true);

    let online: Arc<dyn ConflictDetector> =
        Arc::new(SequenceDetector::with_relaxations(w.relaxations()));
    group.bench_with_input(
        BenchmarkId::new("online", input.scale),
        &input,
        |b, input| {
            b.iter(|| {
                let scenario = w.build(input);
                simulate(scenario.store, &scenario.tasks, &online, 8, false, 1)
            })
        },
    );

    let cached: Arc<dyn ConflictDetector> = Arc::new(CachedSequenceDetector::with_relaxations(
        trained_cache(w, true),
        w.relaxations(),
    ));
    group.bench_with_input(
        BenchmarkId::new("cached", input.scale),
        &input,
        |b, input| {
            b.iter(|| {
                let scenario = w.build(input);
                simulate(scenario.store, &scenario.tasks, &cached, 8, false, 1)
            })
        },
    );
    group.finish();
}

/// D4: persistent O(1) snapshots vs eager deep-copy privatization.
fn bench_privatization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_d4_privatization");
    for map_size in [100i64, 1_000, 10_000] {
        let mut store = Store::new();
        let map = MapAdt::alloc_with(
            &mut store,
            "big",
            (0..map_size).map(|i| (Scalar::Int(i), Scalar::Int(i))),
        );
        let tasks: Vec<Task> = (0..16)
            .map(|i| {
                let map = map.clone();
                Task::new(move |tx| {
                    map.put(tx, 1_000_000 + i as i64, 1i64);
                })
            })
            .collect();
        for eager in [false, true] {
            let label = if eager { "eager-copy" } else { "persistent" };
            group.bench_with_input(BenchmarkId::new(label, map_size), &map_size, |b, _| {
                b.iter(|| {
                    let janus = Janus::new(Arc::new(WriteSetDetector::new()))
                        .threads(1)
                        .eager_privatization(eager);
                    janus.run(store.clone(), tasks.clone())
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .plotting_backend(criterion::PlottingBackend::None)
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_online_vs_cached, bench_privatization
}
criterion_main!(benches);
