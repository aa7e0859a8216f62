//! The `mp-store merge` + `mp-store stat` pipeline over packed
//! stores: fold several same-recipe packed experiments into one
//! merged experiment, then aggregate the merged store.
//!
//! `merge` measures the in-memory merge over the packed inputs, which
//! decodes them one per core; `aggregate` measures stat-style
//! aggregation of the single merged store, where every iteration
//! re-reads and re-decodes the store's column chunks — the decode is
//! most of its wall clock.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

use memprof_core::{
    CallstackTable, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, RunInfo,
};
use memprof_store::{aggregate_refs, merge_experiments, pack_experiment, ExperimentRef};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simsparc_machine::CounterEvent;

/// A synthetic profile shaped like a real MCF run: two backtracked
/// counters plus clock ticks, PCs clustered over a few hot loops with
/// a long cold tail (same shape as the `store_aggregation` bench).
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

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mp_bench_merged_{}_{tag}.mps", std::process::id()))
}

fn bench_merged_store_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("merged_store_aggregation");
    group.sample_size(10);

    // Four same-recipe experiments, ~400k hwc events total, packed to
    // store files like `mp-store pack` would leave them.
    let inputs: Vec<PathBuf> = (0..4)
        .map(|i| {
            let exp = synthetic_experiment(0xC3C3 + i as u64, 100_000);
            let path = scratch(&format!("in{i}"));
            std::fs::write(&path, pack_experiment(&exp, &[])).unwrap();
            path
        })
        .collect();
    let refs: Vec<ExperimentRef> = inputs
        .iter()
        .map(|p| ExperimentRef::open(p).unwrap())
        .collect();

    group.bench_function("merge", |b| {
        b.iter(|| {
            let merged = merge_experiments(black_box(&refs)).unwrap();
            black_box(merged.hwc_events.len());
        })
    });

    // One merged packed store, aggregated the way `mp-store stat`
    // does it: every iteration re-opens and re-decodes the store.
    let merged = merge_experiments(&refs).unwrap();
    let merged_path = scratch("out");
    std::fs::write(&merged_path, pack_experiment(&merged, &[])).unwrap();
    drop(merged);

    let merged_ref = [ExperimentRef::open(&merged_path).unwrap()];
    group.bench_function("aggregate", |b| {
        b.iter(|| {
            let agg = aggregate_refs(black_box(&merged_ref), 0).unwrap();
            black_box(agg.totals);
        })
    });
    group.finish();

    for path in inputs.iter().chain([&merged_path]) {
        std::fs::remove_file(path).ok();
    }
}

criterion_group!(benches, bench_merged_store_aggregation);
criterion_main!(benches);
