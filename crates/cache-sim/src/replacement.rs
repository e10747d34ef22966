//! Replacement policies for the cache's sets.
//!
//! The study's caches use LRU; FIFO and a seeded pseudo-random policy are provided
//! for sensitivity experiments and to exercise the policy abstraction in tests.
//!
//! The policy state itself lives inside [`Cache`](crate::cache::Cache): each
//! set keeps its entries in replacement order (recency for LRU, fill order for
//! FIFO), so LRU and FIFO need no state beyond that order, and Random keeps one
//! xorshift word per set.  This module holds the policy enum and the RNG
//! helpers.

use serde::{Deserialize, Serialize};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the default for every configuration in
    /// the paper).
    #[default]
    Lru,
    /// Evict the way that was filled earliest.
    Fifo,
    /// Evict a pseudo-random entry (deterministic: xorshift seeded per set).
    /// A draw indexes a position in the set's fill order, not a physical way;
    /// no golden result pins the victims.
    Random,
}

/// Initial xorshift64* state for set `set_index`, chosen so every set draws a
/// different deterministic victim sequence.
#[inline]
pub(crate) fn set_rng_seed(set_index: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ (set_index as u64 + 1)
}

/// Advance a set's xorshift64* state and return the next pseudo-random draw.
#[inline]
pub(crate) fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed_and_differs_across_sets() {
        let mut a = set_rng_seed(7);
        let mut b = set_rng_seed(7);
        let seq_a: Vec<u64> = (0..32).map(|_| next_random(&mut a) % 8).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| next_random(&mut b) % 8).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().all(|&w| w < 8));
        let mut c = set_rng_seed(8);
        let seq_c: Vec<u64> = (0..32).map(|_| next_random(&mut c) % 8).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
