//! Property tests for the machine substrate: the set-associative
//! cache and the DTLB against naive MRU-list reference models, TLB
//! page granularity, and sparse-memory read/write laws.

use proptest::prelude::*;
use simsparc_machine::{CacheConfig, CacheOutcome, Memory, SetAssocCache, Tlb, TlbConfig};

/// A straightforward reference model: per set, a vector of lines in
/// LRU order (front = MRU).
struct RefCache {
    line_shift: u32,
    sets: u64,
    ways: usize,
    lru: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let sets = config.sets();
        RefCache {
            line_shift: config.line_bytes.trailing_zeros(),
            sets,
            ways: config.ways as usize,
            lru: vec![Vec::new(); sets as usize],
        }
    }

    fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let v = &mut self.lru[set];
        if let Some(pos) = v.iter().position(|&l| l == line) {
            v.remove(pos);
            v.insert(0, line);
            CacheOutcome::Hit
        } else {
            v.insert(0, line);
            v.truncate(self.ways);
            CacheOutcome::Miss
        }
    }
}

/// The same MRU-list reference for the DTLB: entries are keyed by
/// `(virtual page, page shift)` and indexed by the low bits of the
/// virtual page number, so 8 KB and 512 KB pages share the sets.
struct RefTlb {
    sets: u64,
    ways: usize,
    lru: Vec<Vec<(u64, u32)>>,
}

impl RefTlb {
    fn new(config: TlbConfig) -> RefTlb {
        let sets = (config.entries / config.ways) as u64;
        RefTlb {
            sets,
            ways: config.ways as usize,
            lru: vec![Vec::new(); sets as usize],
        }
    }

    fn access(&mut self, addr: u64, page_bytes: u64) -> bool {
        let shift = page_bytes.trailing_zeros();
        let key = (addr >> shift, shift);
        let v = &mut self.lru[(key.0 % self.sets) as usize];
        if let Some(pos) = v.iter().position(|&k| k == key) {
            v.remove(pos);
            v.insert(0, key);
            true
        } else {
            v.insert(0, key);
            v.truncate(self.ways);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production DTLB and the reference model agree on every
    /// access of a random trace mixing 8 KB and 512 KB pages, for 1-,
    /// 2- and 4-way geometries.
    #[test]
    fn tlb_matches_reference_model(
        ways in prop::sample::select(&[1u32, 2, 4][..]),
        sets_log in 0u32..=3,
        trace in prop::collection::vec((0u64..(1 << 24), any::<bool>()), 1..500),
    ) {
        let config = TlbConfig { entries: ways << sets_log, ways };
        let mut real = Tlb::new(config);
        let mut reference = RefTlb::new(config);
        for (i, &(addr, large)) in trace.iter().enumerate() {
            let page_bytes = if large { 512 * 1024 } else { 8 * 1024 };
            let a = real.access(addr, page_bytes);
            let b = reference.access(addr, page_bytes);
            prop_assert_eq!(a, b, "divergence at access {} (addr {:#x}, {} B pages)", i, addr, page_bytes);
        }
        let (hits, misses) = real.stats();
        prop_assert_eq!(hits + misses, trace.len() as u64);
    }

    /// The production cache and the reference model agree on every
    /// access of a random trace, for random (small) geometries.
    #[test]
    fn cache_matches_reference_model(
        ways in 1u32..=4,
        sets_log in 1u32..=4,
        line_log in 4u32..=7,
        trace in prop::collection::vec(0u64..(1 << 16), 1..500),
    ) {
        let line_bytes = 1u64 << line_log;
        let bytes = line_bytes * (1 << sets_log) * ways as u64;
        let config = CacheConfig { bytes, ways, line_bytes };
        let mut real = SetAssocCache::new(config);
        let mut reference = RefCache::new(config);
        for (i, &addr) in trace.iter().enumerate() {
            let a = real.access(addr);
            let b = reference.access(addr);
            prop_assert_eq!(a, b, "divergence at access {} (addr {:#x})", i, addr);
        }
    }

    /// Hits + misses equals the number of accesses, and re-running the
    /// same trace on a fresh cache is deterministic.
    #[test]
    fn cache_stats_are_consistent(
        trace in prop::collection::vec(0u64..(1 << 20), 1..300),
    ) {
        let config = CacheConfig { bytes: 4096, ways: 2, line_bytes: 64 };
        let mut c1 = SetAssocCache::new(config);
        let r1: Vec<CacheOutcome> = trace.iter().map(|&a| c1.access(a)).collect();
        let (h, m) = c1.stats();
        prop_assert_eq!(h + m, trace.len() as u64);
        let mut c2 = SetAssocCache::new(config);
        let r2: Vec<CacheOutcome> = trace.iter().map(|&a| c2.access(a)).collect();
        prop_assert_eq!(r1, r2);
    }

    /// A second pass over any working set that fits within one way's
    /// worth of distinct lines per set never misses.
    #[test]
    fn cache_second_pass_hits_when_fits(
        seed_lines in prop::collection::btree_set(0u64..128, 1..16),
    ) {
        // 16 sets x 4 ways of 32-byte lines: any 16 distinct lines that
        // map to distinct sets fit; to be safe, use <= 4 lines per set.
        let config = CacheConfig { bytes: 2048, ways: 4, line_bytes: 32 };
        let sets = config.sets();
        let mut per_set = std::collections::HashMap::new();
        let lines: Vec<u64> = seed_lines
            .into_iter()
            .filter(|l| {
                let c = per_set.entry(l % sets).or_insert(0u32);
                *c += 1;
                *c <= 4
            })
            .collect();
        let mut c = SetAssocCache::new(config);
        for &l in &lines {
            c.access(l * 32);
        }
        for &l in &lines {
            prop_assert_eq!(c.access(l * 32), CacheOutcome::Hit);
        }
    }

    /// TLB: accesses within one page hit after the first touch,
    /// regardless of page size; the large-page tag covers the whole
    /// large page.
    #[test]
    fn tlb_page_granularity(base in 0u64..(1 << 28), offs in prop::collection::vec(0u64..8192, 1..50)) {
        let mut t = Tlb::new(TlbConfig { entries: 8, ways: 2 });
        let page = base & !8191;
        t.access(page, 8192);
        for &o in &offs {
            prop_assert!(t.access(page + o, 8192), "same 8K page must hit");
        }
        let mut t = Tlb::new(TlbConfig { entries: 8, ways: 2 });
        let lpage = base & !(512 * 1024 - 1);
        t.access(lpage, 512 * 1024);
        for &o in &offs {
            prop_assert!(t.access(lpage + o * 63, 512 * 1024), "same 512K page must hit");
        }
    }

    /// Memory: the last write wins, all widths, and disjoint writes do
    /// not interfere.
    #[test]
    fn memory_last_write_wins(
        writes in prop::collection::vec((0u64..1024u64, prop::sample::select(&[1u64,2,4,8][..]), any::<u64>()), 1..100),
    ) {
        let mut mem = Memory::new();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (slot, len, val) in writes {
            let addr = 0x2000_0000 + slot * 8; // 8-aligned, any width legal
            prop_assert!(mem.write(addr, len, val));
            for (i, b) in val.to_le_bytes()[..len as usize].iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (&addr, &b) in &model {
            prop_assert_eq!(mem.read(addr, 1), Some(b as u64));
        }
    }
}
