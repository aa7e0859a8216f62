//! Data TLB model with mixed page sizes.
//!
//! UltraSPARC-III has a 512-entry 2-way DTLB for 8 KB pages (plus
//! small fully-associative arrays for large pages). The paper's §3.3
//! shows that rebuilding MCF with `-xpagesize_heap=512k` cut DTLB
//! misses enough for a 3.9% gain; to reproduce that experiment the
//! model supports a per-*segment* page size: the heap can use large
//! pages while text/data/stack stay at the 8 KB system default.
//!
//! Entries are tagged with `(virtual page, page size class)` so mixed
//! sizes coexist, approximating the real hardware's separate arrays.
//! Like the caches, each set keeps its entries in recency order (MRU
//! first, move-to-front on a hit, the LRU entry evicted on a miss).

use crate::cache::move_to_front;

/// The Solaris default page size on the paper's machine.
pub const DEFAULT_PAGE_BYTES: u64 = 8 * 1024;

/// The page sizes the UltraSPARC-III MMU supports — the legal values
/// of a `-xpagesize_heap`-style request. (Solaris `ppgsz`/`-xpagesize`
/// accept exactly these on the paper's machine.)
pub const SUPPORTED_PAGE_BYTES: [u64; 4] = [8 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024];

/// Is `bytes` a page size the MMU can map?
pub fn page_size_supported(bytes: u64) -> bool {
    SUPPORTED_PAGE_BYTES.contains(&bytes)
}

/// TLB geometry.
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
}

impl TlbConfig {
    /// Address bytes the TLB can map at once with uniform pages of
    /// `page_bytes` — the quantity a page-size decision trades against
    /// the working-set size (§3.3: 512 KB pages took the scaled DTLB's
    /// reach past MCF's heap).
    pub fn reach_bytes(&self, page_bytes: u64) -> u64 {
        self.entries as u64 * page_bytes
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 512,
            ways: 2,
        }
    }
}

/// One TLB entry: a virtual page number tagged with its size shift.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TlbTag {
    vpn: u64,
    page_shift: u32,
}

const INVALID: TlbTag = TlbTag {
    vpn: u64::MAX,
    page_shift: 0,
};

/// Set-associative DTLB with true-LRU replacement.
pub struct Tlb {
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways..][..ways]` holds one set's entries in recency
    /// order: MRU first, LRU last, invalid entries trailing.
    tags: Vec<TlbTag>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.ways >= 1 && config.entries.is_multiple_of(config.ways));
        let sets = (config.entries / config.ways) as u64;
        assert!(sets.is_power_of_two());
        Tlb {
            set_mask: sets - 1,
            ways: config.ways as usize,
            tags: vec![INVALID; config.entries as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// Translate an access to `addr` within a segment whose pages are
    /// `page_bytes` (a power of two). Returns `true` on a TLB hit.
    #[inline]
    pub fn access(&mut self, addr: u64, page_bytes: u64) -> bool {
        debug_assert!(page_bytes.is_power_of_two());
        let page_shift = page_bytes.trailing_zeros();
        let vpn = addr >> page_shift;
        let tag = TlbTag { vpn, page_shift };
        let base = (vpn & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        let hit = set[0] == tag || move_to_front(set, tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total reach in bytes for a uniform page size (diagnostic).
    pub fn reach_bytes(&self, page_bytes: u64) -> u64 {
        self.tags.len() as u64 * page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(TlbConfig::default());
        assert!(!t.access(0x4000_0000, DEFAULT_PAGE_BYTES));
        assert!(t.access(0x4000_1fff, DEFAULT_PAGE_BYTES));
        assert!(!t.access(0x4000_2000, DEFAULT_PAGE_BYTES));
        assert_eq!(t.stats(), (1, 2));
    }

    #[test]
    fn working_set_within_reach_stops_missing() {
        let mut t = Tlb::new(TlbConfig {
            entries: 16,
            ways: 2,
        });
        // 8 pages, uniformly spread across sets: fits.
        for round in 0..3 {
            for p in 0..8u64 {
                let hit = t.access(p * DEFAULT_PAGE_BYTES, DEFAULT_PAGE_BYTES);
                assert_eq!(hit, round > 0, "round {round} page {p}");
            }
        }
    }

    #[test]
    fn large_pages_extend_reach() {
        // A 4 MB working set with 8 KB pages = 512 pages; with 512 KB
        // pages = 8 pages. A 16-entry TLB thrashes on the former and
        // holds the latter.
        let mut t = Tlb::new(TlbConfig {
            entries: 16,
            ways: 2,
        });
        let span = 4 * 1024 * 1024u64;
        let stride = 8 * 1024u64;

        let mut misses_small = 0;
        for round in 0..2 {
            let mut a = 0;
            while a < span {
                if !t.access(0x4000_0000 + a, DEFAULT_PAGE_BYTES) && round == 1 {
                    misses_small += 1;
                }
                a += stride;
            }
        }
        assert!(
            misses_small > 400,
            "small pages should thrash: {misses_small}"
        );

        let mut t = Tlb::new(TlbConfig {
            entries: 16,
            ways: 2,
        });
        let mut misses_large = 0;
        for round in 0..2 {
            let mut a = 0;
            while a < span {
                if !t.access(0x4000_0000 + a, 512 * 1024) && round == 1 {
                    misses_large += 1;
                }
                a += stride;
            }
        }
        assert_eq!(misses_large, 0, "large pages should all hit after warmup");
    }

    #[test]
    fn mixed_page_sizes_coexist() {
        let mut t = Tlb::new(TlbConfig::default());
        t.access(0x4000_0000, 512 * 1024);
        t.access(0x2000_0000, DEFAULT_PAGE_BYTES);
        assert!(
            t.access(0x4007_ffff, 512 * 1024),
            "within the same large page"
        );
        assert!(
            t.access(0x2000_1000, DEFAULT_PAGE_BYTES),
            "within the same small page"
        );
    }
}
