//! Set-associative cache model with true-LRU replacement.
//!
//! Each set keeps its tags in recency order, most recently used first:
//! a hit moves its tag to the front, a miss inserts at the front and
//! evicts the tag at the back. A hit on the MRU way costs one compare.
//!
//! Used for the D$ (64 KB / 4-way / 32 B lines), the E$ (8 MB / 2-way /
//! 512 B lines) and the I$ (32 KB / 4-way / 32 B lines) of the
//! simulated Sun Fire 280R. The model tracks tags only — data flows
//! through the flat [`crate::Memory`] — because the paper's metrics
//! depend on hit/miss behaviour, not on cached values.

/// Geometry of one cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.bytes / self.line_bytes / self.ways as u64
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    Hit,
    Miss,
}

/// A set-associative, true-LRU, write-allocate cache.
pub struct SetAssocCache {
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways..][..ways]` holds one set's line tags in
    /// recency order: MRU first, LRU last. `u64::MAX` = invalid, and
    /// invalid ways always trail the valid ones.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

impl SetAssocCache {
    pub fn new(config: CacheConfig) -> SetAssocCache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two"
        );
        assert!(config.ways >= 1 && config.ways <= 16);
        let total = (sets as usize) * config.ways as usize;
        SetAssocCache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways: config.ways as usize,
            tags: vec![INVALID; total],
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Access the line containing `addr`, allocating it on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if set[0] == line || move_to_front(set, line) {
            self.hits += 1;
            CacheOutcome::Hit
        } else {
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Probe without touching recency order or counting (used by
    /// tests).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Move `tag` to the front of a recency-ordered set, shifting the
/// tags ahead of it back one way. Returns whether `tag` was present;
/// if not, it is inserted as MRU and the LRU tag falls off the end.
#[inline(always)]
pub(crate) fn move_to_front<T: Copy + PartialEq>(set: &mut [T], tag: T) -> bool {
    let mut carried = tag;
    for way in set.iter_mut() {
        let displaced = std::mem::replace(way, carried);
        if displaced == tag {
            return true;
        }
        carried = displaced;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 32-byte lines = 128 bytes.
        SetAssocCache::new(CacheConfig {
            bytes: 128,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        };
        assert_eq!(c.sets(), 512);
        let e = CacheConfig {
            bytes: 8 * 1024 * 1024,
            ways: 2,
            line_bytes: 512,
        };
        assert_eq!(e.sets(), 8192);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(31), CacheOutcome::Hit); // same line
        assert_eq!(c.access(32), CacheOutcome::Miss); // next line, set 1
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines whose line-number is even (2 sets).
        let a = 0u64; // line 0, set 0
        let b = 64; // line 2, set 0
        let d = 128; // line 4, set 0
        assert_eq!(c.access(a), CacheOutcome::Miss);
        assert_eq!(c.access(b), CacheOutcome::Miss);
        // Touch `a` so `b` is LRU.
        assert_eq!(c.access(a), CacheOutcome::Hit);
        // `d` evicts `b`.
        assert_eq!(c.access(d), CacheOutcome::Miss);
        assert_eq!(c.access(a), CacheOutcome::Hit);
        assert_eq!(c.access(b), CacheOutcome::Miss);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = tiny();
        c.access(0);
        let stats = c.stats();
        assert!(c.probe(16));
        assert!(!c.probe(64));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        // 64KB 4-way: any 16 distinct lines mapping to the same set fit in 4 ways?
        // Use a full-cache sweep instead: 2048 lines fit exactly.
        let mut c = SetAssocCache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        });
        for i in 0..2048u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Miss);
        }
        for i in 0..2048u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Hit, "line {i}");
        }
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses() {
        let mut c = tiny(); // 4 lines total
        for round in 0..3 {
            for i in 0..8u64 {
                assert_eq!(
                    c.access(i * 32),
                    CacheOutcome::Miss,
                    "round {round} line {i}"
                );
            }
        }
    }
}
