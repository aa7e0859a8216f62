//! Address-space views — the §4 "future work" of the paper,
//! implemented here as extensions: effective addresses broken down by
//! memory segment, by page, by cache line, and aggregated by
//! *structure instance* (with the E$-line straddle analysis that
//! motivates the §3.3 padding optimization).

use std::collections::HashMap;

use minic::MemDesc;
use simsparc_machine::SegmentKind;

use super::views::sort_by_metric;
use super::Analysis;
use crate::batch::{aggregate_by, AttrTag, ByAddrBucket, EventBatch, GroupKey};

/// Group by address-space segment of the effective address; rows
/// without an EA are skipped. The raw key is the segment's index in
/// [`BY_SEGMENT_KINDS`].
pub(super) struct BySegment;

const BY_SEGMENT_KINDS: [SegmentKind; 4] = [
    SegmentKind::Text,
    SegmentKind::Data,
    SegmentKind::Heap,
    SegmentKind::Stack,
];

fn segment_index(kind: SegmentKind) -> u64 {
    match kind {
        SegmentKind::Text => 0,
        SegmentKind::Data => 1,
        SegmentKind::Heap => 2,
        SegmentKind::Stack => 3,
    }
}

impl GroupKey for BySegment {
    type Key = SegmentKind;

    fn raw(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        batch
            .ea_of(i)
            .map(|ea| segment_index(SegmentKind::of_addr(ea)))
    }

    fn decode(&self, raw: u64) -> SegmentKind {
        BY_SEGMENT_KINDS[raw as usize]
    }
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
    /// Events with reconstructed effective addresses, by segment.
    pub fn segments(&self) -> Vec<SegmentRow> {
        let map = aggregate_by(&self.batch, &BySegment);
        let mut rows: Vec<SegmentRow> = map
            .into_iter()
            .map(|(segment, samples)| SegmentRow { segment, samples })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples.iter().sum::<u64>(),
            |a, b| segment_index(a.segment).cmp(&segment_index(b.segment)),
        );
        rows
    }

    /// Top pages by total events. `page_bytes` must be a power of two.
    pub fn pages(&self, page_bytes: u64, limit: usize) -> Vec<PageRow> {
        assert!(page_bytes.is_power_of_two());
        let map = aggregate_by(&self.batch, &ByAddrBucket { bytes: page_bytes });
        let mut rows: Vec<PageRow> = map
            .into_iter()
            .map(|(page_base, samples)| PageRow {
                page_base,
                segment: SegmentKind::of_addr(page_base),
                samples,
            })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples.iter().sum::<u64>(),
            |a, b| a.page_base.cmp(&b.page_base),
        );
        rows.truncate(limit);
        rows
    }

    /// Top cache lines by total events.
    pub fn cache_lines(&self, line_bytes: u64, limit: usize) -> Vec<CacheLineRow> {
        assert!(line_bytes.is_power_of_two());
        let map = aggregate_by(&self.batch, &ByAddrBucket { bytes: line_bytes });
        let mut rows: Vec<CacheLineRow> = map
            .into_iter()
            .map(|(line_base, samples)| CacheLineRow { line_base, samples })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples.iter().sum::<u64>(),
            |a, b| a.line_base.cmp(&b.line_base),
        );
        rows.truncate(limit);
        rows
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
