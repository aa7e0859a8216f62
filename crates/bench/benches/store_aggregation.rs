//! The multi-experiment aggregation engine as `mp-store stat` runs
//! it: four ~250k-event profiles, packed into `MPES` images and opened
//! outside the timed region, reduced to a per-PC histogram by
//! `memprof_store::aggregate_streams` — the attribution-key fold and
//! its projection.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use memprof_core::{
    CallstackTable, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, RunInfo,
};
use memprof_store::{aggregate_streams, pack_experiment, StreamFile};
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
            // Hot: one of a few short loops.
            hot_loops[rng.random_range(0..hot_loops.len())] + 4 * rng.random_range(0..32u64)
        } else {
            // Cold tail: the rest of a realistically sized text
            // segment (distinct PCs stay in the thousands, as in a
            // real instruction-space profile).
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

fn bench_store_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_aggregation");
    group.sample_size(10);

    // Four same-recipe experiments, ~1M events total.
    let exps: Vec<Experiment> = (0..4)
        .map(|i| synthetic_experiment(0xA5A5 + i, 200_000))
        .collect();
    let streams: Vec<StreamFile> = exps
        .iter()
        .map(|e| StreamFile::from_bytes(pack_experiment(e, &[])).unwrap())
        .collect();

    group.bench_function("aggregate", |b| {
        b.iter(|| {
            let agg = aggregate_streams(black_box(&streams)).unwrap();
            black_box(agg.totals);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store_aggregation);
criterion_main!(benches);
