//! The shared view-aggregation kernel: a merged 8-experiment store
//! reduced to a per-PC histogram by `memprof_core::aggregate_by` — the
//! kernel every analyzer view runs on, so this measures the engine
//! under every `mp-er-print` table. (`mp-store stat` folds attribution
//! keys as chunks decode instead; `store_aggregation` times that.)
//!
//! The batch build (one streaming pass per source) is kept outside
//! the timed region: the kernel contract is that the batch is built
//! once per analysis and every view re-reduces it, so the fold is
//! what repeats in practice.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use memprof_core::batch::{AttrTag, BatchEvent, ByPc, NO_ID, NO_LINE};
use memprof_core::{
    aggregate_by, charged_pc, CallstackTable, CounterRequest, EventBatch, Experiment,
    PackedClockEvent, PackedHwcEvent, RunInfo,
};
use memprof_store::merge_loaded;
use rand::{rngs::StdRng, Rng, SeedableRng};
use simsparc_machine::CounterEvent;

/// A synthetic profile shaped like a real MCF run: two backtracked
/// counters plus clock ticks, PCs clustered over a few hot loops with
/// a long cold tail.
fn synthetic_experiment(seed: u64, n_events: usize) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_loops: Vec<u64> = (0..8).map(|i| 0x1_0000 + i * 0x400).collect();
    let pc = |rng: &mut StdRng| -> u64 {
        if rng.random_bool(0.8) {
            hot_loops[rng.random_range(0..hot_loops.len())] + 4 * rng.random_range(0..32u64)
        } else {
            0x1_0000 + 4 * rng.random_range(0..12_000u64)
        }
    };
    let mut stacks = CallstackTable::new();
    let hwc_events = (0..n_events)
        .map(|_| {
            let delivered = pc(&mut rng);
            PackedHwcEvent {
                counter: rng.random_range(0..2usize),
                delivered_pc: delivered,
                candidate_pc: rng.random_bool(0.9).then(|| delivered.saturating_sub(8)),
                ea: rng
                    .random_bool(0.7)
                    .then(|| 0x4000_0000 + rng.random_range(0..1u64 << 24)),
                stack: stacks.intern(&[0x1_0000, delivered]),
                truth_trigger_pc: delivered.saturating_sub(8),
                truth_ea: rng
                    .random_bool(0.7)
                    .then(|| 0x4000_0000 + rng.random_range(0..1u64 << 24)),
                truth_skid: rng.random_range(0..6u32),
            }
        })
        .collect();
    let clock_events = (0..n_events / 4)
        .map(|_| PackedClockEvent {
            pc: pc(&mut rng),
            stack: stacks.intern(&[0x1_0000]),
        })
        .collect();
    Experiment {
        counters: vec![
            CounterRequest {
                event: CounterEvent::ECStallCycles,
                backtrack: true,
                interval: 99991,
            },
            CounterRequest {
                event: CounterEvent::ECReadMiss,
                backtrack: true,
                interval: 499,
            },
        ],
        clock_period: Some(20011),
        stacks: stacks.into_stacks(),
        hwc_events,
        clock_events,
        run: RunInfo {
            clock_hz: 900_000_000,
            dropped: vec![0, 0],
            ..RunInfo::default()
        },
        log: vec![],
    }
}

fn bench_view_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_aggregation");
    group.sample_size(10);

    // Eight same-recipe experiments folded into one merged store —
    // the multi-experiment shape `mp-store merge` hands the analyzer.
    let exps: Vec<Experiment> = (0..8)
        .map(|i| synthetic_experiment(0x5EED + i, 150_000))
        .collect();
    let merged = merge_loaded(&exps).unwrap();

    // The batch, built once (columns: clock, then the two counters):
    // every tick at its PC, every counter event at its charge PC —
    // the columns a per-PC fold reads.
    let row = |col: usize, pc: u64, src: (usize, usize, bool)| BatchEvent {
        col,
        pc,
        ea: None,
        tag: AttrTag::Plain,
        desc: NO_ID,
        func: NO_ID,
        line: NO_LINE,
        src,
    };
    let mut batch = EventBatch::new(3);
    for (i, ev) in merged.clock_events.iter().enumerate() {
        batch.push(row(0, ev.pc, (0, i, true)));
    }
    for (i, ev) in merged.hwc_events.iter().enumerate() {
        let backtrack = merged.counters[ev.counter].backtrack;
        batch.push(row(
            1 + ev.counter,
            charged_pc(ev, backtrack),
            (0, i, false),
        ));
    }

    group.bench_function("aggregate_by", |b| {
        b.iter(|| {
            let map = aggregate_by(black_box(&batch), &ByPc);
            black_box(map.len());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_view_aggregation);
criterion_main!(benches);
