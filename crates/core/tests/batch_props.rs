//! Property tests for the shared aggregation kernel: for arbitrary
//! batches and keyers, the raw-table fold ([`aggregate_by`]) must
//! equal the per-row oracle fold ([`aggregate_by_serial`]) *exactly* —
//! same keys, same per-column sums. This is the contract every view
//! and `mp-store stat` rests on.

use proptest::collection::vec;
use proptest::prelude::*;

use memprof_core::analyze::AddrBucket;
use memprof_core::batch::{
    AttrTag, BatchEvent, ByFunc, ByLine, ByLineInRange, ByPc, ByPcInRange, NO_ID, NO_LINE,
};
use memprof_core::{aggregate_by, aggregate_by_serial, EventBatch, GroupKey};

type RawRow = (usize, u64, bool, u64, bool, u64);

/// A keyer that skips rows and folds raws: it keeps rows of column
/// `col` whose PC is a multiple of 8, and decodes each PC to its
/// 64-byte block, so several raws decode to one key and their samples
/// must sum. A column no row has skips every row.
struct AlignedPcBlock {
    col: u32,
}

impl GroupKey for AlignedPcBlock {
    type Key = u64;

    fn raw(&self, b: &EventBatch, i: usize) -> Option<u64> {
        (b.col[i] == self.col && b.pc[i].is_multiple_of(8)).then(|| b.pc[i])
    }

    fn decode(&self, raw: u64) -> u64 {
        raw / 64
    }
}

/// Build a batch of unattributed rows from generated rows `(col,
/// delivered_pc, has_candidate, candidate_delta, has_ea, ea)`,
/// charging the candidate when present — the charge-PC rule.
fn build_batch(ncols: usize, rows: &[RawRow]) -> EventBatch {
    let mut batch = EventBatch::new(ncols);
    for (i, &(col, delivered, has_cand, cand_delta, has_ea, ea)) in rows.iter().enumerate() {
        let candidate = has_cand.then(|| delivered.wrapping_sub(cand_delta));
        batch.push(BatchEvent {
            col: col % ncols,
            pc: candidate.unwrap_or(delivered),
            ea: has_ea.then_some(ea),
            tag: AttrTag::Plain,
            desc: NO_ID,
            func: NO_ID,
            line: NO_LINE,
            src: (0, i, false),
        });
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raw_table_fold_equals_serial(
        rows in vec(
            (
                0usize..4,
                0x1_0000u64..0x4_0000,
                any::<bool>(),
                0u64..64,
                any::<bool>(),
                0u64..0x1_0000,
            ),
            0..200,
        ),
    ) {
        let batch = build_batch(4, &rows);

        let by_pc = aggregate_by_serial(&batch, &ByPc);
        prop_assert_eq!(aggregate_by(&batch, &ByPc), by_pc.clone());

        let bucket = AddrBucket::Block(64);
        prop_assert_eq!(aggregate_by(&batch, &bucket), aggregate_by_serial(&batch, &bucket));

        // A keyer that skips rows and decodes several raws to one key.
        let keyer = AlignedPcBlock { col: 0 };
        prop_assert_eq!(aggregate_by(&batch, &keyer), aggregate_by_serial(&batch, &keyer));

        // Totals are the column-wise sums of any exhaustive keying.
        let mut sums = vec![0u64; 4];
        for samples in by_pc.values() {
            for (dst, src) in sums.iter_mut().zip(samples) {
                *dst += src;
            }
        }
        prop_assert_eq!(batch.totals(), sums);
    }
}

/// Generated attributed row: `(col, pc, tag_sel, desc, func_sel,
/// (has_line, line), (has_ea, ea))`. Tag cycles
/// Plain/Data/artificial; `func_sel == 4` means "outside any
/// function" ([`NO_ID`]).
type AttrRow = (usize, u64, u8, u32, u32, (bool, u32), (bool, u64));

/// Build a fully-attributed batch, the shape the analyzer produces —
/// exercises the enrichment columns (`tag`, `desc`, `func`, `line`)
/// that `build_batch` leaves at their sentinels.
fn build_attr_batch(ncols: usize, rows: &[AttrRow]) -> EventBatch {
    let mut batch = EventBatch::new(ncols);
    for &(col, pc, tag_sel, desc, func_sel, (has_line, line), (has_ea, ea)) in rows {
        let tag = match tag_sel % 3 {
            0 => AttrTag::Plain,
            1 => AttrTag::Data,
            _ => AttrTag::UnkUnresolvable,
        };
        batch.push(BatchEvent {
            col: col % ncols,
            pc,
            ea: has_ea.then_some(ea),
            tag,
            desc: if tag == AttrTag::Data { desc } else { NO_ID },
            func: if func_sel == 4 { NO_ID } else { func_sel },
            line: if has_line { line } else { NO_LINE },
            src: (0, 0, false),
        });
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every public `GroupKey` folds identically on the raw-table and
    /// oracle paths over attributed batches.
    #[test]
    fn every_keyer_equals_serial_on_attributed_batches(
        rows in vec(
            (
                0usize..3,
                0x1_0000u64..0x1_2000,
                0u8..3,
                0u32..6,
                0u32..5,
                (any::<bool>(), 0u32..50),
                (any::<bool>(), 0u64..0x1000),
            ),
            0..300,
        ),
    ) {
        let batch = build_attr_batch(3, &rows);

        prop_assert_eq!(aggregate_by(&batch, &ByPc), aggregate_by_serial(&batch, &ByPc));
        prop_assert_eq!(aggregate_by(&batch, &ByFunc), aggregate_by_serial(&batch, &ByFunc));
        prop_assert_eq!(aggregate_by(&batch, &ByLine), aggregate_by_serial(&batch, &ByLine));
        let bucket = AddrBucket::Block(256);
        prop_assert_eq!(aggregate_by(&batch, &bucket), aggregate_by_serial(&batch, &bucket));
        for artificial in [false, true] {
            let in_range = ByPcInRange { entry: 0x1_0800, end: 0x1_1000, artificial };
            prop_assert_eq!(
                aggregate_by(&batch, &in_range),
                aggregate_by_serial(&batch, &in_range)
            );
        }
        let line_range = ByLineInRange { entry: 0x1_0800, end: 0x1_1000 };
        prop_assert_eq!(
            aggregate_by(&batch, &line_range),
            aggregate_by_serial(&batch, &line_range)
        );
    }
}

/// A keyer that skips every row must yield an empty aggregate on both
/// paths — `build_batch` rows have no source line, and no row is in
/// column 4 — and the kernel must not fabricate groups from them.
#[test]
fn all_none_key_rows_aggregate_to_nothing() {
    let rows: Vec<RawRow> = (0..500)
        .map(|i| (i % 4, 0x2_0000 + i as u64, false, 0, false, 0))
        .collect();
    let batch = build_batch(4, &rows);
    assert!(aggregate_by(&batch, &ByLine).is_empty());
    let never = AlignedPcBlock { col: 4 };
    assert!(aggregate_by(&batch, &never).is_empty());
    assert!(aggregate_by_serial(&batch, &ByLine).is_empty());
}

/// One key repeated across every row collapses to a single group with
/// the full column totals — the degenerate distribution where every
/// probe lands on one slot.
#[test]
fn single_repeated_key_folds_to_one_group() {
    let rows: Vec<RawRow> = (0..10_000)
        .map(|i| (i % 4, 0xBEEF, false, 0, true, 0x40))
        .collect();
    let batch = build_batch(4, &rows);
    let serial = aggregate_by_serial(&batch, &ByPc);
    assert_eq!(serial.len(), 1);
    assert_eq!(serial[&0xBEEF].iter().sum::<u64>(), 10_000);
    assert_eq!(aggregate_by(&batch, &ByPc), serial);
    // Every EA is in the same bucket too.
    let bucket = AddrBucket::Block(4096);
    assert_eq!(aggregate_by(&batch, &bucket).len(), 1);
}

/// 999 distinct keys, more than half the table's initial 1024 slots:
/// the fold grows its table mid-batch, and every group must survive
/// the rehash with its counts.
#[test]
fn table_growth_keeps_every_group() {
    let rows: Vec<RawRow> = (0..8_192)
        .map(|i| (i % 4, 0x1_0000 + (i as u64 % 999), false, 0, false, 0))
        .collect();
    let batch = build_batch(4, &rows);
    let serial = aggregate_by_serial(&batch, &ByPc);
    assert_eq!(serial.len(), 999);
    assert_eq!(aggregate_by(&batch, &ByPc), serial);
}

/// A long attributed batch (135k rows, 1,531 PCs, 4,099 EA words):
/// the table grows twice past its 1,024 initial slots while groups
/// keep recurring, and every keyer must still equal the oracle.
#[test]
fn long_attributed_batch_equals_serial() {
    let rows: Vec<AttrRow> = (0..(2 << 16) + 4_321)
        .map(|i| {
            let i = i as u32;
            (
                (i % 3) as usize,
                0x1_0000 + u64::from(i % 1_531) * 4,
                (i % 3) as u8,
                i % 6,
                i % 5,
                (!i.is_multiple_of(7), i % 50),
                (!i.is_multiple_of(4), u64::from(i % 4_099) * 8),
            )
        })
        .collect();
    let batch = build_attr_batch(3, &rows);
    assert_eq!(
        aggregate_by(&batch, &ByPc),
        aggregate_by_serial(&batch, &ByPc)
    );
    assert_eq!(
        aggregate_by(&batch, &ByLine),
        aggregate_by_serial(&batch, &ByLine)
    );
    let bucket = AddrBucket::Block(64);
    assert_eq!(
        aggregate_by(&batch, &bucket),
        aggregate_by_serial(&batch, &bucket)
    );
}
