//! Figure 10: retry behavior per workload and detector.
//!
//! Retry counts are not a duration, so each configuration's
//! retries-per-transaction ratio is printed once before benchmarking the
//! corresponding parallel region (whose time is dominated by exactly the
//! wasted re-executions Figure 10 counts).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_bench::experiments::{grid_input, trained_cache};
use janus_bench::sim::simulate;
use janus_detect::{CachedSequenceDetector, ConflictDetector, WriteSetDetector};
use janus_workloads::all_workloads;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_retries");
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, true);
        let cache = Arc::new(trained_cache(w, true));
        let detectors: Vec<(&str, Arc<dyn ConflictDetector>)> = vec![
            ("write-set", Arc::new(WriteSetDetector::new())),
            (
                "sequence",
                Arc::new(CachedSequenceDetector::with_relaxations(
                    Arc::clone(&cache),
                    w.relaxations(),
                )),
            ),
        ];
        for (label, detector) in detectors {
            // Report the ratio once, out of band.
            let scenario = w.build(&input);
            let (_, metrics) = simulate(
                scenario.store,
                &scenario.tasks,
                &detector,
                8,
                w.ordered(),
                1,
            );
            eprintln!(
                "fig10 {} {}: {} retries / {} txns = {:.3}",
                w.name(),
                label,
                metrics.retries,
                metrics.commits,
                metrics.retry_ratio()
            );
            group.bench_with_input(BenchmarkId::new(w.name(), label), &input, |b, input| {
                b.iter(|| {
                    let scenario = w.build(input);
                    simulate(
                        scenario.store,
                        &scenario.tasks,
                        &detector,
                        8,
                        w.ordered(),
                        1,
                    )
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
    targets = bench_fig10
}
criterion_main!(benches);
