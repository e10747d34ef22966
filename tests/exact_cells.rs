//! Bit-identity golden for exact-mode simulation cells.
//!
//! Every counter of every [`SimResult`] on a small grid — quick-scale merge
//! sort and SpMV, at 1, 8 and 32 cores, under `pdf` and `ws`, in exact cache
//! mode on the default bus/DRAM memory system — is pinned as CSV under
//! `tests/golden/`.  Both quick-scale inputs fit the default configurations'
//! multi-megabyte L2, so the grid adds the 8- and 32-core cells once more
//! with the L2 cut to [`SMALL_L2_BYTES`]: only there do L2 evictions,
//! inclusion back-invalidation and dirty L2 write-backs happen.  Together the
//! rows cover L1 evictions and write-backs, write invalidation between L1s
//! and every L2 path, so any change to the cache simulator's storage that is
//! not a pure re-layout shows up as a byte diff here.

use pdfws::cache_sim::CacheStats;
use pdfws::prelude::*;
use pdfws::schedulers::simulate;

const WORKLOADS: [&str; 2] = ["mergesort:grain=2048,n=65536", "spmv:rows=8192"];
const CORES: [usize; 3] = [1, 8, 32];
const SCHEDULERS: [&str; 2] = ["pdf", "ws"];
/// L2 capacity of the eviction-heavy rows: smaller than either input.
const SMALL_L2_BYTES: usize = 256 * 1024;

fn joined(values: impl Iterator<Item = u64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(";")
}

/// One CSV row per cell; per-core vectors (busy cycles, each L1 counter) are
/// `;`-joined so the column set does not depend on the core count.
fn exact_cells_csv() -> String {
    let mut csv = String::from(
        "workload,cores,l2_bytes,scheduler,cycles,instructions,memory_accesses,tasks,\
         offchip_queue_cycles,bus_queue_cycles,dram_queue_cycles,migrations,steal_cycles,\
         l2_read_hits,l2_read_misses,l2_write_hits,l2_write_misses,l2_evictions,\
         l2_writebacks,l2_invalidations,offchip_bytes,memory_fills,coherence_invalidations,\
         busy_cycles,l1_read_hits,l1_read_misses,l1_write_hits,l1_write_misses,\
         l1_evictions,l1_writebacks,l1_invalidations\n",
    );
    for workload in WORKLOADS {
        let instance = WorkloadInstance::from_spec(&workload.parse().unwrap());
        let small_l2 = CORES
            .iter()
            .filter(|&&c| c > 1)
            .map(|&c| (c, SMALL_L2_BYTES));
        let default_l2 = CORES.iter().map(|&c| (c, 0));
        for (cores, l2_bytes) in default_l2.chain(small_l2) {
            let mut config = default_config(cores).expect("default configuration");
            if l2_bytes > 0 {
                config.l2.capacity_bytes = l2_bytes;
            }
            for scheduler in SCHEDULERS {
                let spec: SchedulerSpec = scheduler.parse().unwrap();
                let r = simulate(&instance.dag, &config, &spec, &SimOptions::default());
                let h = &r.hierarchy;
                let l1 = |f: fn(&CacheStats) -> u64| joined(h.l1.iter().map(f));
                csv.push_str(&format!(
                    "{workload:?},{cores},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    config.l2.capacity_bytes,
                    r.scheduler,
                    r.cycles,
                    r.instructions,
                    r.memory_accesses,
                    r.tasks,
                    r.offchip_queue_cycles,
                    r.bus_queue_cycles,
                    r.dram_queue_cycles,
                    r.migrations,
                    r.steal_cycles,
                    h.l2.read_hits,
                    h.l2.read_misses,
                    h.l2.write_hits,
                    h.l2.write_misses,
                    h.l2.evictions,
                    h.l2.writebacks,
                    h.l2.invalidations,
                    h.offchip_bytes,
                    h.memory_fills,
                    h.coherence_invalidations,
                    joined(r.busy_cycles.iter().copied()),
                    l1(|s| s.read_hits),
                    l1(|s| s.read_misses),
                    l1(|s| s.write_hits),
                    l1(|s| s.write_misses),
                    l1(|s| s.evictions),
                    l1(|s| s.writebacks),
                    l1(|s| s.invalidations),
                ));
            }
        }
    }
    csv
}

// A change to the cache simulator, the memory system or the engine that moves
// any counter shows up here.  Regenerate with
// `UPDATE_GOLDEN=1 cargo test --test exact_cells` only for an intended change
// of results, and review the diff.
#[test]
fn exact_cells_match_the_golden_file() {
    let csv = exact_cells_csv();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exact_cells.csv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &csv).expect("write golden exact-cells csv");
        return;
    }
    assert_eq!(
        csv,
        include_str!("golden/exact_cells.csv"),
        "exact-mode SimResult counters changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}
