//! One-pass LRU stack-distance (reuse-distance) profiling.
//!
//! The stack distance of an access is the number of *distinct* blocks touched
//! since the previous access to the same block.  Under a fully-associative
//! LRU cache of `S` blocks an access hits iff its stack distance is `< S`, so
//! one histogram of distances prices the same address stream against **every**
//! cache size at once — the machinery behind the `cache=analytic` simulation
//! mode (and the validation theory in "Analysis of Work-Stealing and Parallel
//! Cache Complexity", see PAPERS.md).
//!
//! [`StackDistanceProfiler`] runs in `O(n log m)` time and `O(m)` memory for
//! `n` accesses over `m` distinct blocks: a Fenwick tree counts live
//! last-access positions, and the position space is renumbered whenever it
//! grows past twice the live-block count, so profiling a multi-gigabyte
//! address stream never allocates more than a few megabytes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-fold hasher for block addresses: SipHash costs more than the
/// work it guards, and near-sequential block numbers mix fine with one
/// Fibonacci multiply.
#[derive(Debug, Default, Clone)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the profiler only hashes u64 block addresses");
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type LastAccessMap = HashMap<u64, u32, BuildHasherDefault<BlockHasher>>;

/// Number of exact (width-1) buckets at the head of a histogram; distances
/// `>= EXACT_BUCKETS` fall into logarithmically scaled buckets.
const EXACT_BUCKETS: u64 = 256;

/// Sub-buckets per octave above the exact range (16 → bucket width grows
/// ~4.4% per bucket, comfortably finer than cache-size steps).
const LOG_SUB_BUCKETS: u64 = 16;

/// A compact histogram of stack distances: exact counts below
/// `EXACT_BUCKETS` (256), log-scaled buckets above, plus a cold-miss count
/// for first-touch accesses (infinite distance — they miss in every finite
/// cache).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// Bucket counts, indexed by [`bucket_of`].
    counts: Vec<u64>,
    /// First-touch accesses (no previous access to the block).
    cold: u64,
    /// Total finite-distance accesses recorded.
    recorded: u64,
}

/// Bucket index for a finite distance.
#[inline]
fn bucket_of(distance: u64) -> usize {
    if distance < EXACT_BUCKETS {
        return distance as usize;
    }
    // Octave = position of the leading bit above the exact range; sub-bucket
    // from the next log2(LOG_SUB_BUCKETS) bits.
    let bits = 63 - distance.leading_zeros() as u64; // floor(log2(distance))
    let base_bits = 63 - EXACT_BUCKETS.leading_zeros() as u64; // log2(EXACT_BUCKETS)
    let octave = bits - base_bits;
    let sub = (distance >> (bits.saturating_sub(4))) & (LOG_SUB_BUCKETS - 1);
    (EXACT_BUCKETS + octave * LOG_SUB_BUCKETS + sub) as usize
}

/// Smallest distance mapping to bucket `index` (inverse of [`bucket_of`] on
/// bucket lower edges).
fn bucket_lo(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT_BUCKETS {
        return index;
    }
    let base_bits = 63 - EXACT_BUCKETS.leading_zeros() as u64;
    let octave = (index - EXACT_BUCKETS) / LOG_SUB_BUCKETS;
    let sub = (index - EXACT_BUCKETS) % LOG_SUB_BUCKETS;
    let bits = base_bits + octave;
    (1u64 << bits) | (sub << bits.saturating_sub(4))
}

/// Exclusive upper edge of bucket `index`.
fn bucket_hi(index: usize) -> u64 {
    if (index as u64) < EXACT_BUCKETS {
        return index as u64 + 1;
    }
    bucket_lo(index + 1)
}

impl DistanceHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access with a finite stack distance.
    #[inline]
    pub fn record(&mut self, distance: u64) {
        let b = bucket_of(distance);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.recorded += 1;
    }

    /// Record one first-touch (cold) access.
    #[inline]
    pub fn record_cold(&mut self) {
        self.cold += 1;
    }

    /// Total accesses recorded (finite + cold).
    pub fn total(&self) -> u64 {
        self.recorded + self.cold
    }

    /// First-touch accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Number of recorded accesses with stack distance `< capacity_blocks` —
    /// the hits a fully-associative LRU cache of that many blocks would see.
    /// The bucket straddling the boundary is split pro-rata (deterministic
    /// integer interpolation); cold accesses never count as hits.
    pub fn count_below(&self, capacity_blocks: u64) -> u64 {
        if capacity_blocks == 0 {
            return 0;
        }
        let boundary = bucket_of(capacity_blocks - 1);
        let mut hits = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if i < boundary {
                hits += c;
            } else if i == boundary {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i);
                // Distances lo..capacity_blocks (out of lo..hi) are hits.
                let span = hi - lo;
                let covered = capacity_blocks - lo;
                hits += if covered >= span {
                    c
                } else {
                    (c as u128 * covered as u128 / span as u128) as u64
                };
            } else {
                break;
            }
        }
        hits
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &DistanceHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.cold += other.cold;
        self.recorded += other.recorded;
    }
}

/// Fenwick (binary indexed) tree over last-access positions.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(capacity: usize) -> Self {
        Fenwick {
            tree: vec![0; capacity + 1],
        }
    }

    /// Add `delta` (±1) at position `i` (0-based).
    #[inline]
    fn add(&mut self, i: u32, delta: i32) {
        let mut i = i as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    #[inline]
    fn prefix(&self, i: u32) -> u64 {
        let mut i = i as usize + 1;
        let mut sum = 0u64;
        while i > 0 {
            sum += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Streaming stack-distance profiler: feed block addresses in program order,
/// read distances back one per access.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    /// Block → position of its last access in the (renumbered) time space.
    last: LastAccessMap,
    fenwick: Fenwick,
    /// Next free position; when it reaches the Fenwick capacity the position
    /// space is renumbered (compacted to the live blocks).
    next_pos: u32,
    /// Live (distinct) blocks — positions currently holding a 1.
    live: u64,
}

/// Initial/minimum position capacity (grows to 2× the live-block count).
const MIN_CAPACITY: u32 = 4096;

impl Default for StackDistanceProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDistanceProfiler {
    /// A fresh profiler with no history.
    pub fn new() -> Self {
        StackDistanceProfiler {
            last: LastAccessMap::default(),
            fenwick: Fenwick::new(MIN_CAPACITY as usize),
            next_pos: 0,
            live: 0,
        }
    }

    /// Distinct blocks seen so far.
    pub fn distinct_blocks(&self) -> u64 {
        self.live
    }

    /// Record one access to `block`; returns its stack distance, or `None`
    /// for a first touch.
    #[inline]
    pub fn access(&mut self, block: u64) -> Option<u64> {
        if self.next_pos as usize >= self.fenwick.tree.len() - 1 {
            self.compact();
        }
        let pos = self.next_pos;
        self.next_pos += 1;
        match self.last.insert(block, pos) {
            Some(prev) => {
                // Distance = live blocks last accessed strictly after `prev`.
                let distance = self.live - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -1);
                self.fenwick.add(pos, 1);
                Some(distance)
            }
            None => {
                self.live += 1;
                self.fenwick.add(pos, 1);
                None
            }
        }
    }

    /// Renumber the position space to the live blocks (amortised `O(m log m)`
    /// every `O(m)` accesses, so `O(log m)` per access).
    fn compact(&mut self) {
        let mut entries: Vec<(u64, u32)> = self.last.drain().collect();
        // Preserve recency order: sort by old position.
        entries.sort_unstable_by_key(|&(_, pos)| pos);
        let capacity = (entries.len() as u32 * 2).max(MIN_CAPACITY);
        self.fenwick = Fenwick::new(capacity as usize);
        for (new_pos, (block, _)) in entries.into_iter().enumerate() {
            self.last.insert(block, new_pos as u32);
            self.fenwick.add(new_pos as u32, 1);
        }
        self.next_pos = self.live as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: an explicit LRU stack.
    fn naive_distances(stream: &[u64]) -> Vec<Option<u64>> {
        let mut stack: Vec<u64> = Vec::new();
        stream
            .iter()
            .map(|&b| {
                let d = stack.iter().rev().position(|&x| x == b).map(|d| d as u64);
                if let Some(i) = stack.iter().position(|&x| x == b) {
                    stack.remove(i);
                }
                stack.push(b);
                d
            })
            .collect()
    }

    #[test]
    fn distances_match_the_naive_lru_stack() {
        let stream = [1u64, 2, 3, 1, 2, 3, 4, 4, 1, 5, 3, 2, 1];
        let expected = naive_distances(&stream);
        let mut p = StackDistanceProfiler::new();
        let got: Vec<Option<u64>> = stream.iter().map(|&b| p.access(b)).collect();
        assert_eq!(got, expected);
        assert_eq!(p.distinct_blocks(), 5);
    }

    #[test]
    fn distances_survive_compaction() {
        // Force many compactions with a stream much longer than MIN_CAPACITY
        // over a small block set, checked against the naive stack.
        let stream: Vec<u64> = (0..3 * MIN_CAPACITY as u64)
            .map(|i| (i * 7 + (i / 13)) % 97)
            .collect();
        let expected = naive_distances(&stream);
        let mut p = StackDistanceProfiler::new();
        for (i, &b) in stream.iter().enumerate() {
            assert_eq!(p.access(b), expected[i], "access {i}");
        }
    }

    #[test]
    fn histogram_counts_below_capacity() {
        let mut h = DistanceHistogram::new();
        for d in [0u64, 1, 2, 5, 100, 300, 5000] {
            h.record(d);
        }
        h.record_cold();
        assert_eq!(h.total(), 8);
        assert_eq!(h.cold(), 1);
        assert_eq!(h.count_below(1), 1); // only d=0
        assert_eq!(h.count_below(3), 3); // 0,1,2
        assert_eq!(h.count_below(101), 5); // + 5, 100
        assert_eq!(h.count_below(1 << 20), 7); // all finite distances
        assert_eq!(h.count_below(0), 0);
    }

    #[test]
    fn histogram_boundary_interpolation_is_monotone() {
        let mut h = DistanceHistogram::new();
        for _ in 0..1000 {
            h.record(700); // one log-scaled bucket
        }
        let mut prev = 0;
        for cap in (0..2048).step_by(32) {
            let c = h.count_below(cap);
            assert!(c >= prev, "count_below must be monotone");
            prev = c;
        }
        assert_eq!(h.count_below(2048), 1000);
        assert_eq!(h.count_below(512), 0);
    }

    #[test]
    fn log_buckets_partition_the_distance_space() {
        // Every distance maps to exactly one bucket whose [lo, hi) range
        // contains it, and bucket edges are contiguous.
        for d in (0..100_000u64).step_by(37).chain([1 << 30, 1 << 40]) {
            let b = bucket_of(d);
            assert!(bucket_lo(b) <= d && d < bucket_hi(b), "d={d} bucket={b}");
        }
        for b in 0..(EXACT_BUCKETS as usize + 5 * LOG_SUB_BUCKETS as usize) {
            assert_eq!(bucket_hi(b), bucket_lo(b + 1), "bucket {b} edges");
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DistanceHistogram::new();
        a.record(3);
        a.record_cold();
        let mut b = DistanceHistogram::new();
        b.record(3);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count_below(4), 2);
    }
}
