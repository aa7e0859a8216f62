//! Address-space views — the §4 "future work" of the paper,
//! implemented here as extensions: effective addresses broken down by
//! memory segment, by page, by cache line, and aggregated by
//! *structure instance* (with the E$-line straddle analysis that
//! motivates the §3.3 padding optimization).
//!
//! The segment, page and cache-line views come in three parts. The
//! keyed map ([`AddrMap`]: bucket → samples per column) has two
//! producers: [`Analysis::addr_map`] over the attributed batch, and
//! `memprof_store::address_streams` straight from `MPES` chunks. Both
//! count exactly the events that keep their effective address
//! ([`super::Attribution::keeps_ea`]). One row builder ([`addr_rows`])
//! and one renderer ([`render_addr_rows`]) serve every map, so
//! `mp-er-print` and `mp-serve` print the same lines from either.

use std::collections::HashMap;
use std::fmt::Write as _;

use minic::MemDesc;
use simsparc_machine::SegmentKind;

use super::views::sort_by_metric;
use super::Analysis;
use crate::batch::{aggregate_by, AttrTag, EventBatch, GroupKey};

/// The page of the page view that `mp-serve` answers.
pub const PAGE_BYTES: u64 = 8192;
/// The E$ line of the line view that `mp-er-print` and `mp-serve`
/// print.
pub const EC_LINE_BYTES: u64 = 512;

/// The segments in key order ([`AddrBucket::Segment`]).
const SEGMENTS: [SegmentKind; 4] = [
    SegmentKind::Text,
    SegmentKind::Data,
    SegmentKind::Heap,
    SegmentKind::Stack,
];

/// How an address view buckets an effective address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrBucket {
    /// By address-space segment. The key is the segment's index in
    /// text, data, heap, stack order.
    Segment,
    /// By aligned block of this many bytes, a power of two (a page, an
    /// E$ line). The key is the block's number, its base divided by its
    /// size, so keys carry no run of zero low bits into a hash index.
    Block(u64),
}

impl AddrBucket {
    /// The key of the bucket `ea` falls in.
    #[inline]
    pub fn key(self, ea: u64) -> u64 {
        match self {
            AddrBucket::Segment => match SegmentKind::of_addr(ea) {
                SegmentKind::Text => 0,
                SegmentKind::Data => 1,
                SegmentKind::Heap => 2,
                SegmentKind::Stack => 3,
            },
            AddrBucket::Block(bytes) => {
                debug_assert!(bytes.is_power_of_two());
                ea >> bytes.trailing_zeros()
            }
        }
    }
}

/// Rows without an effective address are skipped.
impl GroupKey for AddrBucket {
    type Key = u64;

    fn raw(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        batch.ea_of(i).map(|ea| self.key(ea))
    }

    fn decode(&self, raw: u64) -> u64 {
        raw
    }
}

/// The keyed map of an address view: bucket key ([`AddrBucket::key`])
/// → samples per column.
pub type AddrMap = HashMap<u64, Vec<u64>>;

/// The rows of an address view: its buckets by total samples over
/// every column, descending, ties broken by key (segment order,
/// address order), the first `limit` of them.
pub fn addr_rows(map: AddrMap, limit: usize) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = map.into_iter().collect();
    sort_by_metric(&mut rows, |(_, s)| s.iter().sum(), |a, b| a.0.cmp(&b.0));
    rows.truncate(limit);
    rows
}

/// Render address-view rows, one line each: a segment's name or a
/// block's base address, then its events.
pub fn render_addr_rows(bucket: AddrBucket, rows: &[(u64, Vec<u64>)]) -> String {
    let mut out = String::new();
    for (key, samples) in rows {
        let events = samples.iter().sum::<u64>();
        match bucket {
            AddrBucket::Segment => {
                let name = SEGMENTS[*key as usize].name();
                writeln!(out, "{name:>6}: {events:>8} events")
            }
            AddrBucket::Block(bytes) => writeln!(out, "{:#012x}: {events:>6} events", key * bytes),
        }
        .unwrap();
    }
    out
}

/// Group by structure-instance base address (`ea - member offset`)
/// for one target structure. The per-descriptor offsets are
/// precomputed from the batch's interned descriptor pool, so the raw
/// key is a table lookup per row, not a descriptor match.
pub(super) struct ByInstanceBase {
    /// Offset of the accessed member within the target structure,
    /// indexed by interned descriptor id; `None` for descriptors of
    /// other structures (and non-member descriptors).
    offsets: Vec<Option<u64>>,
}

impl ByInstanceBase {
    pub(super) fn new(batch: &EventBatch, struct_name: &str) -> ByInstanceBase {
        let offsets = batch
            .descs
            .iter()
            .map(|d| match d {
                MemDesc::Member {
                    struct_name: s,
                    offset,
                    ..
                } if s == struct_name => Some(*offset),
                _ => None,
            })
            .collect();
        ByInstanceBase { offsets }
    }
}

impl GroupKey for ByInstanceBase {
    type Key = u64;

    fn raw(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        let ea = batch.ea_of(i)?;
        if batch.tag[i] != AttrTag::Data {
            return None;
        }
        self.offsets[batch.desc[i] as usize].map(|off| ea.wrapping_sub(off))
    }

    fn decode(&self, raw: u64) -> u64 {
        raw
    }
}

/// Per-segment event counts.
#[derive(Clone, Debug)]
pub struct SegmentRow {
    pub segment: SegmentKind,
    pub samples: Vec<u64>,
}

/// Per-page event counts (top pages by the sort column).
#[derive(Clone, Debug)]
pub struct PageRow {
    pub page_base: u64,
    pub segment: SegmentKind,
    pub samples: Vec<u64>,
}

/// Per-cache-line event counts.
#[derive(Clone, Debug)]
pub struct CacheLineRow {
    pub line_base: u64,
    pub samples: Vec<u64>,
}

/// Instance-level aggregation for one structure type (§4: "translating
/// the effective addresses into structure object instances, and
/// aggregating data by instance, rather than only by type").
#[derive(Clone, Debug)]
pub struct InstanceReport {
    pub struct_name: String,
    pub struct_size: u64,
    /// (instance base address, samples), hottest first.
    pub instances: Vec<(u64, Vec<u64>)>,
    /// Fraction of *referenced* instances whose extent straddles an
    /// E$ line boundary (the paper's "28% of these 120-byte data
    /// objects end up split this way").
    pub straddle_fraction: f64,
}

impl Analysis<'_> {
    /// The keyed map of an address view: every event that kept its
    /// effective address, counted into its bucket.
    pub fn addr_map(&self, bucket: AddrBucket) -> AddrMap {
        aggregate_by(&self.batch, &bucket)
    }

    /// Events with reconstructed effective addresses, by segment.
    pub fn segments(&self) -> Vec<SegmentRow> {
        addr_rows(self.addr_map(AddrBucket::Segment), usize::MAX)
            .into_iter()
            .map(|(key, samples)| SegmentRow {
                segment: SEGMENTS[key as usize],
                samples,
            })
            .collect()
    }

    /// Top pages by total events. `page_bytes` must be a power of two.
    pub fn pages(&self, page_bytes: u64, limit: usize) -> Vec<PageRow> {
        assert!(page_bytes.is_power_of_two());
        addr_rows(self.addr_map(AddrBucket::Block(page_bytes)), limit)
            .into_iter()
            .map(|(key, samples)| {
                let page_base = key * page_bytes;
                PageRow {
                    page_base,
                    segment: SegmentKind::of_addr(page_base),
                    samples,
                }
            })
            .collect()
    }

    /// Top cache lines by total events.
    pub fn cache_lines(&self, line_bytes: u64, limit: usize) -> Vec<CacheLineRow> {
        assert!(line_bytes.is_power_of_two());
        addr_rows(self.addr_map(AddrBucket::Block(line_bytes)), limit)
            .into_iter()
            .map(|(key, samples)| CacheLineRow {
                line_base: key * line_bytes,
                samples,
            })
            .collect()
    }

    /// Aggregate events on one structure type by object *instance*:
    /// the instance base is `ea - member_offset`, both known from the
    /// event's effective address and the member descriptor.
    pub fn instances(
        &self,
        struct_name: &str,
        ec_line_bytes: u64,
        limit: usize,
    ) -> Option<InstanceReport> {
        let sinfo = self.syms.struct_by_name(struct_name)?;
        let size = sinfo.size;

        let map: HashMap<u64, Vec<u64>> =
            aggregate_by(&self.batch, &ByInstanceBase::new(&self.batch, struct_name));
        if map.is_empty() {
            return Some(InstanceReport {
                struct_name: struct_name.to_string(),
                struct_size: size,
                instances: Vec::new(),
                straddle_fraction: 0.0,
            });
        }

        let straddling = map
            .keys()
            .filter(|&&base| (base / ec_line_bytes) != ((base + size - 1) / ec_line_bytes))
            .count();
        let straddle_fraction = straddling as f64 / map.len() as f64;

        let mut instances: Vec<(u64, Vec<u64>)> = map.into_iter().collect();
        instances
            .sort_by_key(|(base, samples)| (std::cmp::Reverse(samples.iter().sum::<u64>()), *base));
        instances.truncate(limit);
        Some(InstanceReport {
            struct_name: struct_name.to_string(),
            struct_size: size,
            instances,
            straddle_fraction,
        })
    }
}
