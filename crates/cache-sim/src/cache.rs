//! One set-associative, write-back / write-allocate cache level.

use crate::addr::BlockAddr;
use crate::replacement::{next_random, set_rng_seed, ReplacementPolicy};
use crate::stats::CacheStats;
use pdfws_cmp_model::CacheGeometry;

/// Whether an access reads or writes the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (marks the line dirty).
    Write,
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The evicted block's address.
    pub block: BlockAddr,
    /// Whether the evicted line was dirty (requires a write-back).
    pub dirty: bool,
}

/// Outcome of a single access to one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessResult {
    /// Whether the block was already present.
    pub hit: bool,
    /// A block that had to be evicted to fill the new one (misses only).
    pub evicted: Option<EvictedBlock>,
}

/// Dirty bit of a stored way word; the block address sits in the bits above it.
const DIRTY: u64 = 1;

/// The way word of a clean `block`.  Panics, in release builds too, if `block`
/// needs the top bit, which the dirty bit's shift would drop (aliasing it).
#[inline]
fn clean_word(block: BlockAddr) -> u64 {
    assert!(
        block >> 63 == 0,
        "block address {block:#x} does not fit the cache's 63-bit tag"
    );
    block << 1
}

/// A set-associative cache with write-back, write-allocate semantics.
///
/// The cache stores block addresses only (no data): the simulator cares about
/// hits, misses, evictions and write-backs, not values.
///
/// Storage is flat and set-major: one `u64` word per way (block and dirty
/// bit), each set's valid words packed at the front in replacement order
/// (recency under LRU, fill order under FIFO) with a per-set length.  Fills
/// insert at the front, so a full set's victim is its last entry (`Random`
/// draws a position).  Every array starts zeroed, so building a cache writes
/// none of its lines.  `P` is a per-entry payload that moves with its block
/// (the shared L2's sharer masks; `()`, which takes no space, elsewhere).
#[derive(Debug, Clone)]
pub struct Cache<P: Copy + Default = ()> {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    /// Way words, set-major: set `s` owns `words[s*assoc .. (s+1)*assoc]`, of
    /// which the first `lens[s]` are valid, in replacement order.
    words: Box<[u64]>,
    /// Payloads parallel to `words`.
    payloads: Box<[P]>,
    /// Valid entries per set.
    lens: Box<[u32]>,
    /// Per-set xorshift state for the Random policy (empty otherwise).
    rng: Box<[u64]>,
    stats: CacheStats,
    set_mask: u64,
    assoc: usize,
}

impl<P: Copy + Default> Cache<P> {
    /// Build a cache with the given geometry and replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate; configurations coming from
    /// `pdfws-cmp-model` always do.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        geometry
            .validate()
            .expect("cache geometry must be valid (validated by pdfws-cmp-model)");
        let num_sets = geometry.sets();
        let assoc = geometry.associativity;
        let rng = if policy == ReplacementPolicy::Random {
            (0..num_sets).map(set_rng_seed).collect()
        } else {
            Box::default()
        };
        Cache {
            geometry,
            policy,
            words: vec![0; num_sets * assoc].into_boxed_slice(),
            payloads: vec![P::default(); num_sets * assoc].into_boxed_slice(),
            lens: vec![0; num_sets].into_boxed_slice(),
            rng,
            stats: CacheStats::default(),
            set_mask: (num_sets - 1) as u64,
            assoc,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset the statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index of `block`.
    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block & self.set_mask) as usize
    }

    /// Access `block`; on a miss the block is filled (write-allocate), possibly
    /// evicting another block from the same set.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> CacheAccessResult {
        self.access_entry(block, kind).0
    }

    /// [`Cache::access`], also returning the slot that now holds `block` and
    /// the payload of the evicted entry (default if nothing was evicted).  A
    /// filled entry starts with the default payload.
    pub(crate) fn access_entry(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
    ) -> (CacheAccessResult, usize, P) {
        let word = clean_word(block);
        let write = kind == AccessKind::Write;
        let set = self.set_of(block);
        let base = set * self.assoc;
        let len = self.lens[set] as usize;
        let words = &mut self.words[base..base + self.assoc];
        let payloads = &mut self.payloads[base..base + self.assoc];

        if let Some(mut pos) = words[..len].iter().position(|&w| w ^ word <= DIRTY) {
            if write {
                words[pos] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            if self.policy == ReplacementPolicy::Lru {
                words[..=pos].rotate_right(1);
                payloads[..=pos].rotate_right(1);
                pos = 0;
            }
            let hit = CacheAccessResult {
                hit: true,
                evicted: None,
            };
            return (hit, base + pos, P::default());
        }

        // Miss: count it, then fill at the front — shifting the set down one
        // place if it has room, else dropping the policy's victim.
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }

        let (shifted, evicted) = if len < self.assoc {
            self.lens[set] += 1;
            (len, None)
        } else {
            let pos = match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.assoc - 1,
                ReplacementPolicy::Random => {
                    (next_random(&mut self.rng[set]) % self.assoc as u64) as usize
                }
            };
            let dirty = words[pos] & DIRTY != 0;
            self.stats.evictions += 1;
            self.stats.writebacks += dirty as u64;
            let block = words[pos] >> 1;
            (pos, Some(EvictedBlock { block, dirty }))
        };
        let evicted_payload = evicted.map_or_else(P::default, |_| payloads[shifted]);
        words[..=shifted].rotate_right(1);
        payloads[..=shifted].rotate_right(1);
        words[0] = word | if write { DIRTY } else { 0 };
        payloads[0] = P::default();

        let miss = CacheAccessResult {
            hit: false,
            evicted,
        };
        (miss, base, evicted_payload)
    }

    /// Slot holding `block`, if it is resident.
    #[inline]
    pub(crate) fn find(&self, block: BlockAddr) -> Option<usize> {
        let word = clean_word(block);
        let set = self.set_of(block);
        let base = set * self.assoc;
        let len = self.lens[set] as usize;
        self.words[base..base + len]
            .iter()
            .position(|&w| w ^ word <= DIRTY)
            .map(|pos| base + pos)
    }

    /// Mark the entry in `slot` dirty.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, slot: usize) {
        self.words[slot] |= DIRTY;
    }

    /// The payload of the entry in `slot`.
    #[inline]
    pub(crate) fn payload_mut(&mut self, slot: usize) -> &mut P {
        &mut self.payloads[slot]
    }

    /// Check whether `block` is present without disturbing replacement state or
    /// statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Mark `block` dirty if it is resident, without touching statistics or
    /// replacement order.  Used to sink write-backs from an upper level into this
    /// one.  Returns whether the block was present.
    pub fn set_dirty(&mut self, block: BlockAddr) -> bool {
        self.find(block).map(|slot| self.mark_dirty(slot)).is_some()
    }

    /// Invalidate `block` if present.  Returns `Some(dirty)` if a line was
    /// invalidated, `None` if the block was not cached.  The entries behind it
    /// move up one place, keeping their order.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let slot = self.find(block)?;
        let dirty = self.words[slot] & DIRTY != 0;
        let set = self.set_of(block);
        let end = set * self.assoc + self.lens[set] as usize;
        self.words[slot..end].rotate_left(1);
        self.payloads[slot..end].rotate_left(1);
        self.lens[set] -= 1;
        self.stats.invalidations += 1;
        Some(dirty)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&len| len as usize).sum()
    }

    /// Every resident entry as `(block, payload)`, set by set in replacement
    /// order (most recent first under LRU).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (BlockAddr, P)> + '_ {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.assoc;
            let valid = base..base + len as usize;
            self.words[valid.clone()]
                .iter()
                .zip(&self.payloads[valid])
                .map(|(&w, &p)| (w >> 1, p))
        })
    }

    /// Iterate over all resident block addresses (used by tests and the working-set
    /// profiler; order is unspecified).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.entries().map(|(block, _)| block)
    }

    /// Drop every line (contents and replacement state), keeping statistics.
    pub fn flush(&mut self) {
        self.lens.fill(0);
        for (set_idx, state) in self.rng.iter_mut().enumerate() {
            *state = set_rng_seed(set_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(capacity: usize, assoc: usize) -> Cache {
        tiny_cache_with(capacity, assoc, ReplacementPolicy::Lru)
    }

    fn tiny_cache_with(capacity: usize, assoc: usize, policy: ReplacementPolicy) -> Cache {
        let g = CacheGeometry {
            capacity_bytes: capacity,
            line_bytes: 64,
            associativity: assoc,
            latency_cycles: 1,
        };
        Cache::new(g, policy)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny_cache(4096, 4);
        let first = c.access(7, AccessKind::Read);
        assert!(!first.hit);
        assert!(first.evicted.is_none());
        let second = c.access(7, AccessKind::Read);
        assert!(second.hit);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn write_allocate_marks_dirty_and_writes_back() {
        // Direct-mapped cache with 2 sets: blocks 0 and 2 collide in set 0.
        let mut c = tiny_cache(128, 1);
        assert_eq!(c.geometry().sets(), 2);
        c.access(0, AccessKind::Write);
        let r = c.access(2, AccessKind::Read);
        assert!(!r.hit);
        let ev = r.evicted.expect("block 0 must be evicted");
        assert_eq!(ev.block, 0);
        assert!(ev.dirty, "written block must be dirty on eviction");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_not_a_writeback() {
        let mut c = tiny_cache(128, 1);
        c.access(0, AccessKind::Read);
        let r = c.access(2, AccessKind::Read);
        assert!(!r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_keeps_the_hot_block() {
        // One set, 2 ways: blocks 0, 2, 4 all map to set 0 (2 sets -> even blocks).
        let mut c = tiny_cache(256, 2);
        assert_eq!(c.geometry().sets(), 2);
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 is now MRU
        let r = c.access(4, AccessKind::Read); // evicts 2
        assert_eq!(r.evicted.unwrap().block, 2);
        assert!(c.probe(0));
        assert!(!c.probe(2));
    }

    #[test]
    fn fifo_ignores_hits() {
        // One set, 2 ways under FIFO: re-touching block 0 must not save it.
        let mut c = tiny_cache_with(256, 2, ReplacementPolicy::Fifo);
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        c.access(0, AccessKind::Read); // hit; FIFO order unchanged
        let r = c.access(4, AccessKind::Read); // evicts 0, the earliest fill
        assert_eq!(r.evicted.unwrap().block, 0);
        assert!(c.probe(2));
        assert!(!c.probe(0));
    }

    #[test]
    fn random_policy_is_deterministic_across_identical_caches() {
        let run = || {
            let mut c = tiny_cache_with(4096, 4, ReplacementPolicy::Random);
            for b in 0..10_000u64 {
                c.access(b % 509, AccessKind::Read);
            }
            (*c.stats(), c.resident_blocks().collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_within_capacity_never_evicts() {
        let mut c = tiny_cache(64 * 1024, 8);
        let lines = c.geometry().lines() as u64;
        for round in 0..3 {
            for b in 0..lines {
                let r = c.access(b, AccessKind::Read);
                assert!(r.evicted.is_none(), "round {round} block {b}");
            }
        }
        assert_eq!(c.occupancy(), lines as usize);
        assert_eq!(c.stats().misses(), lines);
        assert_eq!(c.stats().hits(), 2 * lines);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru_sequential_scan() {
        let mut c = tiny_cache(4096, 4);
        let lines = c.geometry().lines() as u64;
        // Scan twice over twice-capacity: classic LRU worst case, everything misses.
        for _ in 0..2 {
            for b in 0..2 * lines {
                c.access(b, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 4 * lines);
    }

    #[test]
    fn invalidate_removes_block_and_reports_dirty() {
        let mut c = tiny_cache(4096, 4);
        c.access(10, AccessKind::Write);
        c.access(11, AccessKind::Read);
        assert_eq!(c.invalidate(10), Some(true));
        assert_eq!(c.invalidate(11), Some(false));
        assert_eq!(c.invalidate(12), None);
        assert!(!c.probe(10));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn probe_does_not_change_stats_or_order() {
        let mut c = tiny_cache(256, 2);
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        let before = *c.stats();
        // Probing block 0 many times must not make it MRU.
        for _ in 0..10 {
            assert!(c.probe(0));
        }
        assert_eq!(*c.stats(), before);
        c.access(4, AccessKind::Read); // LRU is still 0
        assert!(!c.probe(0));
        assert!(c.probe(2));
    }

    #[test]
    fn flush_empties_cache_but_keeps_stats() {
        let mut c = tiny_cache(4096, 4);
        for b in 0..10 {
            c.access(b, AccessKind::Read);
        }
        let misses = c.stats().misses();
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().misses(), misses);
        // Everything misses again after the flush.
        c.access(0, AccessKind::Read);
        assert_eq!(c.stats().misses(), misses + 1);
    }

    #[test]
    fn resident_blocks_lists_exactly_the_contents() {
        let mut c = tiny_cache(4096, 4);
        for b in [3u64, 17, 99] {
            c.access(b, AccessKind::Read);
        }
        let mut blocks: Vec<_> = c.resident_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![3, 17, 99]);
    }

    #[test]
    fn set_dirty_only_affects_resident_blocks() {
        let mut c = tiny_cache(128, 1);
        c.access(0, AccessKind::Read);
        let before = *c.stats();
        assert!(c.set_dirty(0));
        assert!(!c.set_dirty(99));
        assert_eq!(*c.stats(), before, "set_dirty must not change stats");
        // The dirtied block now requires a write-back when evicted.
        let r = c.access(2, AccessKind::Read);
        assert!(r.evicted.unwrap().dirty);
    }

    #[test]
    fn occupancy_never_exceeds_line_count() {
        let mut c = tiny_cache(2048, 2);
        for b in 0..10_000u64 {
            c.access(b % 77, AccessKind::Read);
            assert!(c.occupancy() <= c.geometry().lines());
        }
    }
}
