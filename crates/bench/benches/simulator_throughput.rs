//! Criterion bench: raw throughput of the simulation substrates.
//!
//! Tracks how many simulated memory references per second the cache hierarchy and
//! the execution engine sustain.  These are not paper results; they bound how
//! large the paper-scale experiments can be, so regressions here matter to every
//! other bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdfws_cache_sim::CmpCacheHierarchy;
use pdfws_cmp_model::default_config;
use pdfws_schedulers::{simulate, simulate_sequential, SchedulerSpec, SimOptions};
use pdfws_workloads::{SyntheticTree, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_hierarchy_accesses(c: &mut Criterion) {
    let cfg = default_config(8).expect("default configuration");
    let mut rng = StdRng::seed_from_u64(3);
    let addrs: Vec<(usize, u64, bool)> = (0..100_000)
        .map(|_| {
            (
                rng.gen_range(0..8usize),
                rng.gen_range(0..1u64 << 24),
                rng.gen_bool(0.3),
            )
        })
        .collect();
    let mut group = c.benchmark_group("cache_hierarchy");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    group.bench_function("random_accesses_100k", |b| {
        b.iter(|| {
            let mut hier = CmpCacheHierarchy::new(&cfg);
            let mut offchip = 0u64;
            for &(core, addr, write) in &addrs {
                offchip += hier.access(core, addr, write).offchip_bytes;
            }
            black_box(offchip)
        })
    });
    // The paper-scale shape: a 32-core machine whose shared L2 (megabytes of
    // simulated tags) is far larger than a host cache, under a footprint of
    // twice the L2, so about half the L1 misses hit in the L2 and the rest
    // evict.  The hierarchy is built and warmed once, outside the timed loop,
    // so the figure is the steady-state cost of an access, not of zeroing a
    // fresh hierarchy.
    let cfg32 = default_config(32).expect("default configuration");
    let span = 2 * cfg32.l2.capacity_bytes as u64;
    let mut rng = StdRng::seed_from_u64(5);
    let l2_bound: Vec<(usize, u64, bool)> = (0..200_000)
        .map(|_| {
            (
                rng.gen_range(0..32usize),
                rng.gen_range(0..span),
                rng.gen_bool(0.3),
            )
        })
        .collect();
    let mut hier = CmpCacheHierarchy::new(&cfg32);
    let mut replay = move || {
        let mut offchip = 0u64;
        for &(core, addr, write) in &l2_bound {
            offchip += hier.access(core, addr, write).offchip_bytes;
        }
        offchip
    };
    replay();
    group.throughput(Throughput::Elements(200_000));
    group.bench_function("l2_bound_32core_200k", |b| b.iter(|| black_box(replay())));
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let workload = SyntheticTree {
        depth: 6,
        fanout: 2,
        leaf_instructions: 2_000,
        leaf_private_bytes: 32 * 1024,
        shared_bytes: 256 * 1024,
        shared_fraction: 0.5,
        passes: 2,
    };
    let dag = workload.build_dag();
    let refs = dag.analyze().memory_accesses;
    let cfg = default_config(8).expect("default configuration");
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(refs));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for spec in SchedulerSpec::paper_pair() {
        group.bench_function(format!("synthetic_tree_{}", spec.canonical()), |b| {
            b.iter(|| black_box(simulate(&dag, &cfg, &spec, &SimOptions::default()).cycles))
        });
    }
    // The one-core baseline every sweep dedups and reruns constantly: with a
    // single busy core the engine's event heap stays size <= 1, so this case
    // isolates the heap-reuse fast path (strictly-earliest cores step without
    // pop/push).
    let one_core = default_config(1).expect("one-core configuration");
    group.bench_function("sequential_baseline_1core", |b| {
        b.iter(|| black_box(simulate_sequential(&dag, &one_core, &SimOptions::default()).cycles))
    });
    group.finish();
}

criterion_group!(benches, bench_hierarchy_accesses, bench_engine_throughput);
criterion_main!(benches);
