//! Figure 11: cache generalization — unique-query miss rates with and
//! without sequence abstraction, plus the time cost of the cache path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_bench::experiments::{grid_input, trained_cache};
use janus_bench::sim::simulate;
use janus_detect::{CachedSequenceDetector, ConflictDetector};
use janus_workloads::all_workloads;

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_misses");
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, true);
        for use_abstraction in [true, false] {
            let label = if use_abstraction { "abs" } else { "noabs" };
            let detector = Arc::new(CachedSequenceDetector::with_relaxations(
                trained_cache(w, use_abstraction),
                w.relaxations(),
            ));
            let dyn_det: Arc<dyn ConflictDetector> = detector.clone();
            // One reporting run for the miss rate.
            let scenario = w.build(&input);
            let _ = simulate(scenario.store, &scenario.tasks, &dyn_det, 8, w.ordered(), 1);
            let (hits, misses) = detector.oracle().stats().unique_counts();
            let rate = if hits + misses > 0 {
                100.0 * misses as f64 / (hits + misses) as f64
            } else {
                0.0
            };
            eprintln!(
                "fig11 {} {label}: {misses} unique misses / {} unique queries = {rate:.1}%",
                w.name(),
                hits + misses
            );
            group.bench_with_input(BenchmarkId::new(w.name(), label), &input, |b, input| {
                b.iter(|| {
                    let scenario = w.build(input);
                    simulate(scenario.store, &scenario.tasks, &dyn_det, 8, w.ordered(), 1)
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
    targets = bench_fig11
}
criterion_main!(benches);
