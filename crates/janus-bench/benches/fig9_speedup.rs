//! Figure 9: end-to-end parallel-region time per workload and detector
//! (virtual 8-thread simulation over quick production inputs).
//!
//! The `figures --fig9` binary prints the full speedup grid; this bench
//! tracks the same runs as regression-sensitive time series.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_bench::experiments::{grid_input, trained_cache};
use janus_bench::sim::simulate;
use janus_detect::{CachedSequenceDetector, ConflictDetector, WriteSetDetector};
use janus_workloads::all_workloads;

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_parallel_region");
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, true);
        let cache = Arc::new(trained_cache(w, true));

        let ws: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
        group.bench_with_input(
            BenchmarkId::new(w.name(), "write-set"),
            &input,
            |b, input| {
                b.iter(|| {
                    let scenario = w.build(input);
                    simulate(scenario.store, &scenario.tasks, &ws, 8, w.ordered(), 1)
                })
            },
        );

        let seq: Arc<dyn ConflictDetector> = Arc::new(CachedSequenceDetector::with_relaxations(
            Arc::clone(&cache),
            w.relaxations(),
        ));
        group.bench_with_input(
            BenchmarkId::new(w.name(), "sequence"),
            &input,
            |b, input| {
                b.iter(|| {
                    let scenario = w.build(input);
                    simulate(scenario.store, &scenario.tasks, &seq, 8, w.ordered(), 1)
                })
            },
        );
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
    targets = bench_fig9
}
criterion_main!(benches);
