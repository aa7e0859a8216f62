//! Property tests for the shared aggregation kernel: for arbitrary
//! batches, keyers, and shard counts, the sharded fold must equal the
//! serial fold *exactly* — same keys, same per-column sums. This is
//! the contract that lets every view and `mp-store stat` switch
//! between the paths freely.

use proptest::collection::vec;
use proptest::prelude::*;

use memprof_core::batch::{
    AttrTag, BatchEvent, ByAddrBucket, ByDesc, ByFunc, ByLine, ByLineInRange, ByPc, ByPcInRange,
    NO_ID, NO_LINE,
};
use memprof_core::{aggregate_by, aggregate_by_exact, aggregate_by_serial, EventBatch};

type RawRow = (usize, u64, bool, u64, bool, u64);

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
    fn sharded_equals_serial_for_every_shard_count(
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
        shards in 1usize..24,
    ) {
        let batch = build_batch(4, &rows);

        // `aggregate_by` may cap the request down to the hardware (on
        // a small host these all collapse to the serial path);
        // `aggregate_by_exact` honors the count, so the morsel workers
        // and partition fold are exercised on any machine.
        let by_pc = aggregate_by_serial(&batch, &ByPc);
        prop_assert_eq!(aggregate_by(&batch, &ByPc, shards), by_pc.clone());
        prop_assert_eq!(aggregate_by_exact(&batch, &ByPc, shards), by_pc.clone());

        let bucket = ByAddrBucket { bytes: 64 };
        let by_bucket = aggregate_by_serial(&batch, &bucket);
        prop_assert_eq!(aggregate_by(&batch, &bucket, shards), by_bucket.clone());
        prop_assert_eq!(aggregate_by_exact(&batch, &bucket, shards), by_bucket);

        // A filtering closure key (only even PCs in column 0), to
        // cover keys that skip rows.
        let keyer = |b: &EventBatch, i: usize| -> Option<u64> {
            (b.col[i] == 0 && b.pc[i].is_multiple_of(8)).then(|| b.pc[i])
        };
        prop_assert_eq!(
            aggregate_by_exact(&batch, &keyer, shards),
            aggregate_by_serial(&batch, &keyer)
        );

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

    /// Every `GroupKey` shape the views use — raw-keyed and
    /// generic-fallback alike — folds identically on the sharded and
    /// serial paths over attributed batches, including `shards = 0`
    /// (size to the available cores).
    #[test]
    fn every_keyer_sharded_equals_serial_on_attributed_batches(
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
        shards in 0usize..24,
    ) {
        let batch = build_attr_batch(3, &rows);

        // Both the capped entry point and the exact-shard one (which
        // keeps the parallel machinery honest on single-core hosts).
        prop_assert_eq!(
            aggregate_by(&batch, &ByPc, shards),
            aggregate_by_serial(&batch, &ByPc)
        );
        prop_assert_eq!(
            aggregate_by_exact(&batch, &ByPc, shards),
            aggregate_by_serial(&batch, &ByPc)
        );
        prop_assert_eq!(
            aggregate_by_exact(&batch, &ByFunc, shards),
            aggregate_by_serial(&batch, &ByFunc)
        );
        prop_assert_eq!(
            aggregate_by_exact(&batch, &ByLine, shards),
            aggregate_by_serial(&batch, &ByLine)
        );
        prop_assert_eq!(
            aggregate_by_exact(&batch, &ByDesc, shards),
            aggregate_by_serial(&batch, &ByDesc)
        );
        let bucket = ByAddrBucket { bytes: 256 };
        prop_assert_eq!(
            aggregate_by_exact(&batch, &bucket, shards),
            aggregate_by_serial(&batch, &bucket)
        );
        for artificial in [false, true] {
            let in_range = ByPcInRange { entry: 0x1_0800, end: 0x1_1000, artificial };
            prop_assert_eq!(
                aggregate_by_exact(&batch, &in_range, shards),
                aggregate_by_serial(&batch, &in_range)
            );
        }
        let line_range = ByLineInRange { entry: 0x1_0800, end: 0x1_1000 };
        prop_assert_eq!(
            aggregate_by_exact(&batch, &line_range, shards),
            aggregate_by_serial(&batch, &line_range)
        );
    }
}

/// A keyer that skips every row must yield an empty aggregate on both
/// paths — `build_batch` rows feed `ByLine`/`ByDesc` all-`None` key
/// columns, and the kernel must not fabricate groups from them.
#[test]
fn all_none_key_rows_aggregate_to_nothing() {
    let rows: Vec<RawRow> = (0..500)
        .map(|i| (i % 4, 0x2_0000 + i as u64, false, 0, false, 0))
        .collect();
    let batch = build_batch(4, &rows);
    for shards in [0, 1, 3, 8] {
        assert!(aggregate_by(&batch, &ByLine, shards).is_empty());
        assert!(aggregate_by(&batch, &ByDesc, shards).is_empty());
        assert!(aggregate_by_exact(&batch, &ByLine, shards).is_empty());
        assert!(aggregate_by_exact(&batch, &ByDesc, shards).is_empty());
        let never = |_: &EventBatch, _: usize| -> Option<u64> { None };
        assert!(aggregate_by_exact(&batch, &never, shards).is_empty());
    }
    assert!(aggregate_by_serial(&batch, &ByLine).is_empty());
}

/// One key repeated across every row collapses to a single group with
/// the full column totals, at every shard count — the degenerate
/// distribution where every radix partition but one is empty.
#[test]
fn single_repeated_key_folds_to_one_group() {
    let rows: Vec<RawRow> = (0..10_000)
        .map(|i| (i % 4, 0xBEEF, false, 0, true, 0x40))
        .collect();
    let batch = build_batch(4, &rows);
    let serial = aggregate_by_serial(&batch, &ByPc);
    assert_eq!(serial.len(), 1);
    assert_eq!(serial[&0xBEEF].iter().sum::<u64>(), 10_000);
    for shards in [0, 1, 2, 7, 16, 23] {
        assert_eq!(aggregate_by(&batch, &ByPc, shards), serial);
        assert_eq!(aggregate_by_exact(&batch, &ByPc, shards), serial);
        // Every EA is in the same bucket too.
        let bucket = ByAddrBucket { bytes: 4096 };
        assert_eq!(aggregate_by_exact(&batch, &bucket, shards).len(), 1);
    }
}

/// More distinct keys than radix partitions, each key recurring in
/// every shard's row range: partition boundaries fall *inside* key
/// runs, so per-partition merges must re-unite groups split across
/// shards.
#[test]
fn keys_straddling_partition_boundaries_reunite() {
    let rows: Vec<RawRow> = (0..8_192)
        .map(|i| (i % 4, 0x1_0000 + (i as u64 % 999), false, 0, false, 0))
        .collect();
    let batch = build_batch(4, &rows);
    let serial = aggregate_by_serial(&batch, &ByPc);
    assert_eq!(serial.len(), 999);
    for shards in [0, 2, 3, 8, 13] {
        assert_eq!(aggregate_by(&batch, &ByPc, shards), serial);
        // The exact path forces real partitioning: boundaries fall
        // inside key runs regardless of how many cores exist.
        assert_eq!(aggregate_by_exact(&batch, &ByPc, shards), serial);
    }
}
