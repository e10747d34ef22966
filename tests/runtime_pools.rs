//! Cross-crate integration tests for the real-thread runtimes: the same
//! algorithms (from `pdfws-workloads::threaded`) must produce identical results
//! under the WS pool, the PDF pool and sequential execution.

use pdfws::runtime::{ForkJoinPool, PdfPool, WsPool};
use pdfws::workloads::threaded::{parallel_map_reduce, parallel_merge_sort, spawn_tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_data(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn both_pools_sort_identically_to_the_standard_library() {
    let data = random_data(50_000, 3);
    let mut expected = data.clone();
    expected.sort_unstable();

    let ws = WsPool::new(2).unwrap();
    let mut ws_data = data.clone();
    parallel_merge_sort(&ws, &mut ws_data, 1_000);
    assert_eq!(ws_data, expected);

    let pdf = PdfPool::new(2).unwrap();
    let mut pdf_data = data;
    parallel_merge_sort(&pdf, &mut pdf_data, 1_000);
    assert_eq!(pdf_data, expected);
}

#[test]
fn map_reduce_agrees_across_pools_and_grains() {
    let data = random_data(30_000, 5);
    let expected = data
        .iter()
        .map(|&x| x.wrapping_mul(31).rotate_left(11))
        .fold(0u64, u64::wrapping_add);
    let ws = WsPool::new(3).unwrap();
    let pdf = PdfPool::new(3).unwrap();
    for grain in [1usize, 64, 1_000, 100_000] {
        let f = |x: u64| x.wrapping_mul(31).rotate_left(11);
        assert_eq!(
            parallel_map_reduce(&ws, &data, grain, &f),
            expected,
            "ws grain {grain}"
        );
        assert_eq!(
            parallel_map_reduce(&pdf, &data, grain, &f),
            expected,
            "pdf grain {grain}"
        );
    }
}

#[test]
fn pools_survive_repeated_installs_and_deep_trees() {
    let ws = WsPool::new(2).unwrap();
    let pdf = PdfPool::new(2).unwrap();
    for _ in 0..5 {
        assert_eq!(spawn_tree(&ws, 8), (1 << 9) - 1);
        assert_eq!(spawn_tree(&pdf, 8), (1 << 9) - 1);
    }
    // Depth 13 (8191 empty-leaf joins per tree) keeps the latch hand-off as
    // tight as it gets: the owner pops the frame holding a join's latch as
    // soon as it sees the thief set it, so a setter that still touched the
    // latch afterwards would corrupt a live stack frame.
    for _ in 0..3 {
        assert_eq!(spawn_tree(&ws, 13), (1 << 14) - 1);
        assert_eq!(spawn_tree(&pdf, 13), (1 << 14) - 1);
    }
    assert!(ws.executed_jobs() > 0);
    assert!(pdf.executed_jobs() > 0);
}

#[test]
fn nested_joins_across_pool_boundaries_fall_back_to_sequential() {
    // Calling a pool's join from outside any pool thread is legal and sequential.
    let ws = WsPool::new(1).unwrap();
    let (a, b) = ws.join(|| 40, || 2);
    assert_eq!(a + b, 42);
    let pdf = PdfPool::new(1).unwrap();
    let (a, b) = pdf.join(|| "x".to_string(), || "y".to_string());
    assert_eq!(format!("{a}{b}"), "xy");
}

#[test]
fn single_threaded_pools_match_multi_threaded_results() {
    let data = random_data(10_000, 9);
    let f = |x: u64| x ^ (x >> 13);
    let one = WsPool::new(1).unwrap();
    let four = WsPool::new(4).unwrap();
    assert_eq!(
        parallel_map_reduce(&one, &data, 128, &f),
        parallel_map_reduce(&four, &data, 128, &f)
    );
}
