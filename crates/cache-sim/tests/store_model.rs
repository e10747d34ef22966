//! The cache store against a naive reference model.
//!
//! [`Cache`] keeps each set as packed, recency-ordered way words.  The model
//! here is the textbook description instead: one deque per set, most recent
//! (LRU) or newest fill (FIFO) at the front, victim at the back.  Under random
//! read, write, `invalidate` and `set_dirty` traffic the two must agree on
//! every hit and miss, every evicted block and its dirty flag, every
//! invalidation, every statistic and the set of resident blocks.

use pdfws_cache_sim::cache::{CacheAccessResult, EvictedBlock};
use pdfws_cache_sim::{AccessKind, BlockAddr, Cache, CacheStats, ReplacementPolicy};
use pdfws_cmp_model::CacheGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

fn geometry(capacity_bytes: usize, associativity: usize) -> CacheGeometry {
    CacheGeometry {
        capacity_bytes,
        line_bytes: 64,
        associativity,
        latency_cycles: 1,
    }
}

struct ModelCache {
    sets: Vec<VecDeque<(BlockAddr, bool)>>,
    assoc: usize,
    lru: bool,
    stats: CacheStats,
}

impl ModelCache {
    fn new(geometry: &CacheGeometry, policy: ReplacementPolicy) -> Self {
        ModelCache {
            sets: vec![VecDeque::new(); geometry.sets()],
            assoc: geometry.associativity,
            lru: policy == ReplacementPolicy::Lru,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, block: BlockAddr) -> &mut VecDeque<(BlockAddr, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    fn access(&mut self, block: BlockAddr, kind: AccessKind) -> CacheAccessResult {
        let write = kind == AccessKind::Write;
        let (assoc, lru) = (self.assoc, self.lru);
        let set = self.set(block);
        if let Some(i) = set.iter().position(|&(b, _)| b == block) {
            set[i].1 |= write;
            if lru {
                let entry = set.remove(i).unwrap();
                set.push_front(entry);
            }
            if write {
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return CacheAccessResult {
                hit: true,
                evicted: None,
            };
        }
        let victim = if set.len() == assoc {
            set.pop_back()
        } else {
            None
        };
        set.push_front((block, write));
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let evicted = victim.map(|(block, dirty)| {
            self.stats.evictions += 1;
            self.stats.writebacks += dirty as u64;
            EvictedBlock { block, dirty }
        });
        CacheAccessResult {
            hit: false,
            evicted,
        }
    }

    fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let set = self.set(block);
        let i = set.iter().position(|&(b, _)| b == block)?;
        let (_, dirty) = set.remove(i).unwrap();
        self.stats.invalidations += 1;
        Some(dirty)
    }

    fn set_dirty(&mut self, block: BlockAddr) -> bool {
        let entry = self.set(block).iter_mut().find(|(b, _)| *b == block);
        entry.map(|e| e.1 = true).is_some()
    }

    fn resident_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<_> = self.sets.iter().flatten().map(|&(b, _)| b).collect();
        blocks.sort_unstable();
        blocks
    }
}

#[test]
fn cache_matches_the_reference_model_under_random_traffic() {
    // (capacity, associativity): direct-mapped, 2-, 4- and 16-way, and fully
    // associative.
    let geometries = [(512, 1), (1024, 2), (2048, 4), (4096, 16), (1024, 16)];
    for (seed, &(capacity, assoc)) in geometries.iter().enumerate() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let g = geometry(capacity, assoc);
            let mut cache: Cache = Cache::new(g, policy);
            let mut model = ModelCache::new(&g, policy);
            // Three times the capacity: plenty of conflicts and evictions.
            let span = 3 * g.lines() as u64;
            let mut rng = StdRng::seed_from_u64(seed as u64);
            for step in 0..4_000 {
                let block = rng.gen_range(0..span);
                let ctx = format!("{policy:?} {capacity}B/{assoc}-way, step {step}, block {block}");
                match rng.gen_range(0..10u32) {
                    0 => assert_eq!(cache.invalidate(block), model.invalidate(block), "{ctx}"),
                    1 => assert_eq!(cache.set_dirty(block), model.set_dirty(block), "{ctx}"),
                    op => {
                        let kind = if op < 6 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        assert_eq!(
                            cache.access(block, kind),
                            model.access(block, kind),
                            "{ctx}"
                        );
                    }
                }
                assert_eq!(*cache.stats(), model.stats, "{ctx}");
                let mut resident: Vec<_> = cache.resident_blocks().collect();
                resident.sort_unstable();
                assert_eq!(resident, model.resident_blocks(), "{ctx}");
                assert_eq!(cache.occupancy(), resident.len(), "{ctx}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "does not fit the cache's 63-bit tag")]
fn unencodable_block_is_rejected_not_aliased() {
    let mut cache: Cache = Cache::new(geometry(4096, 4), ReplacementPolicy::Lru);
    cache.access(5, AccessKind::Read);
    // `1 << 63 | 5` would alias block 5 once shifted past the dirty bit.
    cache.probe((1 << 63) | 5);
}
