//! The attribution-key histogram, pinned over generated `MPES` images,
//! recipes and symbol tables: its per-PC projection
//! ([`aggregate_streams`]) is the event-by-event [`aggregate`] oracle's
//! histogram byte for byte, the fold of a merged image is the sum of
//! the inputs' folds, merging two folds of any recipes equals folding
//! both sets of inputs, and Figure 6 attributed from its keys is the
//! analyzer's Figure 6 over the decoded experiment, for every sort
//! column. Beside it, the address fold ([`address_streams`]) is
//! additive and is the analyzer's keyed map of every address view.

use memprof_core::analyze::{
    addr_rows, data_objects_of_pairs, render_addr_rows, render_data_object_rows, AddrBucket,
    AddrMap, Analysis, ColKind, EC_LINE_BYTES, PAGE_BYTES,
};
use memprof_core::{CollectSink as _, CounterRequest, PackedClockEvent, PackedHwcEvent, RunInfo};
use memprof_store::{
    address_streams, aggregate, aggregate_streams, merge_streams, pair_streams, ColSpec,
    PairHistogram, SegmentWriter, StreamFile,
};
use minic::SymbolTable;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestRng;
use simsparc_machine::CounterEvent;

const CLOCK_HZ: u64 = 900_000_000;

/// A draw in `0..n`.
fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    below(rng, one_in) == 0
}

/// A collection recipe: clock profiling or not, and up to two
/// counters, backtracked only when they count a memory event. Two
/// identical counters occur (the collector accepts `cycles,N,cycles,N`),
/// but never two identical backtracked ones: each memory event has one
/// counter register.
fn recipe(rng: &mut TestRng) -> (Vec<CounterRequest>, Option<u64>) {
    let counter = |rng: &mut TestRng| {
        let event = CounterEvent::ALL[below(rng, 8) as usize];
        CounterRequest {
            event,
            backtrack: event.is_memory_event() && !chance(rng, 3),
            interval: [53, 101, 4001][below(rng, 3) as usize],
        }
    };
    let mut counters: Vec<CounterRequest> = (0..below(rng, 3)).map(|_| counter(rng)).collect();
    if let [a, b] = &mut counters[..] {
        if chance(rng, 3) {
            *b = *a;
        }
        if a == b && a.backtrack {
            b.backtrack = false;
        }
    }
    let clock = (counters.is_empty() || !chance(rng, 3)).then_some(10007);
    (counters, clock)
}

/// A symbol table over 64 instructions from `0x10000`: two modules
/// with random `-xhwcprof`/DWARF flags, functions that leave a gap,
/// and a random descriptor and branch-target flag per instruction.
fn symbol_table(rng: &mut TestRng) -> SymbolTable {
    let mut text = String::from("simsparc-syms text_base=0x10000\n");
    for m in 0..2 {
        let flag = |rng: &mut TestRng| u8::from(!chance(rng, 3));
        let (hwcprof, dwarf) = (flag(rng), flag(rng));
        text.push_str(&format!("MODULE {hwcprof} {dwarf} m{m} m{m}.c\n"));
    }
    text.push_str("FUNC 0x10000 0x10080 0 1 f\nFUNC 0x10080 0x100e0 1 9 g\n");
    for _ in 0..64 {
        let desc = match below(rng, 6) {
            0 => "-".to_string(),
            1 => "T".to_string(),
            2 => "S long count".to_string(),
            k => format!("M s{} m{} long 8", k % 2, below(rng, 3)),
        };
        let target = u8::from(chance(rng, 8));
        text.push_str(&format!("PC 1 {target} {desc}\n"));
    }
    SymbolTable::parse(&text).unwrap()
}

/// An effective address in one of the four segments, within 32 KiB of
/// its base: a few pages, many E$ lines.
fn address(rng: &mut TestRng) -> u64 {
    let base = [
        simsparc_machine::DATA_BASE,
        simsparc_machine::HEAP_BASE,
        simsparc_machine::HEAP_END,
        simsparc_machine::TEXT_BASE,
    ][below(rng, 4) as usize];
    base + 8 * below(rng, 4096)
}

/// A counter event; most carry an effective address, whatever their
/// counter and key.
fn hwc_event(rng: &mut TestRng, n_counters: usize) -> PackedHwcEvent {
    let delivered = 0x1_0000 + 4 * below(rng, 72);
    PackedHwcEvent {
        counter: below(rng, n_counters as u64) as usize,
        delivered_pc: delivered,
        candidate_pc: chance(rng, 2).then(|| delivered - 4 * below(rng, 4)),
        ea: (!chance(rng, 4)).then(|| address(rng)),
        stack: 0,
        truth_trigger_pc: delivered,
        truth_ea: None,
        truth_skid: 0,
    }
}

/// One image collected with `recipe`: a few chunks of counter events
/// and clock ticks, then a footer.
fn image(rng: &mut TestRng, recipe: &(Vec<CounterRequest>, Option<u64>)) -> Vec<u8> {
    image_at(rng, recipe, CLOCK_HZ)
}

/// [`image`], on a machine clocked at `clock_hz`.
fn image_at(
    rng: &mut TestRng,
    recipe: &(Vec<CounterRequest>, Option<u64>),
    clock_hz: u64,
) -> Vec<u8> {
    let (counters, clock) = recipe;
    let mut w = SegmentWriter::new(Vec::new());
    w.begin(counters, *clock, clock_hz).unwrap();
    w.stacks(&[vec![0x1_0000]]).unwrap();
    for _ in 0..1 + below(rng, 3) {
        if !counters.is_empty() {
            let events: Vec<PackedHwcEvent> = (0..below(rng, 40))
                .map(|_| hwc_event(rng, counters.len()))
                .collect();
            w.hwc_segment(&events).unwrap();
        }
        let ticks: Vec<PackedClockEvent> = (0..below(rng, 12))
            .map(|_| PackedClockEvent {
                pc: 0x1_0000 + 4 * below(rng, 72),
                stack: 0,
            })
            .collect();
        w.clock_segment(&ticks).unwrap();
    }
    let run = RunInfo {
        clock_hz,
        dropped: vec![0; counters.len()],
        ..RunInfo::default()
    };
    w.finish(&run, &[]).unwrap();
    w.into_inner()
}

/// One case: two images of one recipe, a third of another, and a
/// symbol table.
type Case = (Vec<u8>, Vec<u8>, Vec<u8>, SymbolTable);

fn cases() -> BoxedStrategy<Case> {
    BoxedStrategy::new(|rng| {
        let shared = recipe(rng);
        let (a, b) = (image(rng, &shared), image(rng, &shared));
        let other = recipe(rng);
        (a, b, image(rng, &other), symbol_table(rng))
    })
}

fn open(bytes: &[u8]) -> StreamFile {
    StreamFile::from_bytes(bytes.to_vec()).unwrap()
}

fn pairs(images: &[&[u8]]) -> PairHistogram {
    let streams: Vec<StreamFile> = images.iter().map(|b| open(b)).collect();
    pair_streams(&streams).unwrap()
}

const BUCKETS: [AddrBucket; 3] = [
    AddrBucket::Segment,
    AddrBucket::Block(PAGE_BYTES),
    AddrBucket::Block(EC_LINE_BYTES),
];

fn addresses(images: &[&[u8]], syms: &SymbolTable, bucket: AddrBucket) -> AddrMap {
    let streams: Vec<StreamFile> = images.iter().map(|b| open(b)).collect();
    address_streams(&streams, syms, bucket).unwrap()
}

/// Each bucket's samples summed over its columns.
fn totals(map: &AddrMap) -> std::collections::BTreeMap<u64, u64> {
    map.iter().map(|(k, s)| (*k, s.iter().sum())).collect()
}

/// The histogram column an analyzer column lands in.
fn spec_of(kind: &ColKind, interval: u64) -> ColSpec {
    match *kind {
        ColKind::UserCpu { .. } => ColSpec::Clock { period: interval },
        ColKind::Hwc {
            event, backtrack, ..
        } => ColSpec::Hwc {
            event,
            backtrack,
            interval,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_projection_is_the_per_pc_aggregate(case in cases()) {
        let (a, b, c, syms) = case;
        for images in [vec![&a[..]], vec![&a[..], &b[..]], vec![&a[..], &c[..]], vec![&c[..], &a[..], &b[..]]] {
            let streams: Vec<StreamFile> = images.iter().map(|b| open(b)).collect();
            let exps: Vec<_> = streams.iter().map(|s| s.to_experiment().unwrap()).collect();
            let oracle = aggregate(&exps.iter().collect::<Vec<_>>()).unwrap();
            let projected = aggregate_streams(&streams).unwrap();
            prop_assert_eq!(projected.stat_json(Some(&syms)), oracle.stat_json(Some(&syms)));
            prop_assert_eq!(projected.render(), oracle.render());
        }
    }

    #[test]
    fn merging_folds_of_any_recipes_is_folding_their_inputs(case in cases()) {
        let (a, b, c, _) = case;
        let mut ac = pairs(&[&a]);
        ac.merge(&pairs(&[&c])).unwrap();
        prop_assert_eq!(&ac, &pairs(&[&a, &c]));
        let mut ca = pairs(&[&c]);
        ca.merge(&pairs(&[&a])).unwrap();
        prop_assert_eq!(&ca, &pairs(&[&c, &a]));
        // Associative: (a + c) + b == a + (c + b), both the fold of all
        // three.
        let mut left = ac.clone();
        left.merge(&pairs(&[&b])).unwrap();
        let mut cb = pairs(&[&c]);
        cb.merge(&pairs(&[&b])).unwrap();
        let mut right = pairs(&[&a]);
        right.merge(&cb).unwrap();
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &pairs(&[&a, &c, &b]));
        // Only a different clock rate refuses.
        let mut other_rate = pairs(&[&c]);
        other_rate.clock_hz += 1;
        prop_assert!(ac.clone().merge(&other_rate).is_err());
    }

    #[test]
    fn the_fold_of_a_merge_is_the_sum_of_the_folds(case in cases()) {
        let (a, b, _, _) = case;
        let merged = merge_streams(&[open(&a), open(&b)]).unwrap();
        let mut sum = pairs(&[&a]);
        sum.merge(&pairs(&[&b])).unwrap();
        prop_assert_eq!(&pairs(&[&merged]), &sum);
        prop_assert_eq!(&pairs(&[&a, &b]), &sum);
        prop_assert_eq!(sum.clock_hz, CLOCK_HZ);
    }

    #[test]
    fn figure_6_from_the_keys_is_the_analyzers(case in cases()) {
        let (a, b, _, syms) = case;
        let merged = merge_streams(&[open(&a), open(&b)]).unwrap();
        let exp = open(&merged).to_experiment().unwrap();
        let analysis = Analysis::new(&[&exp], &syms);
        let hist = pairs(&[&merged]);
        let columns = hist.metric_cols();
        let data = |cols: &[usize], rows: Vec<memprof_core::analyze::DataObjectRow>| {
            rows.into_iter()
                .map(|r| (r.name, cols.iter().map(|&c| r.samples[c]).collect::<Vec<u64>>()))
                .collect::<Vec<_>>()
        };
        for (sort, col) in analysis.columns.iter().enumerate() {
            let at = hist
                .columns
                .iter()
                .position(|s| *s == spec_of(&col.kind, col.interval))
                .unwrap();
            let rows = data_objects_of_pairs(&syms, &columns, &hist.pairs, at);
            prop_assert_eq!(render_data_object_rows(&columns, &rows), analysis.render_data_objects(sort));
            prop_assert_eq!(
                data(&memprof_core::analyze::data_columns(&columns), rows),
                data(&analysis.data_columns(), analysis.data_objects(sort))
            );
        }
    }

    /// `fold([a, b]) == fold([a]) + fold([b])` under one table, and the
    /// fold is the analyzer's keyed map of the decoded merge, column
    /// for column. The generated events give addresses to plain
    /// counters (key `(None, d)`), to backtracked events with no
    /// candidate and to candidates cut off by a branch target (both
    /// Unresolvable, so their addresses drop), and interleave clock
    /// ticks. Over two recipes the fold counts the union of their
    /// columns, and each bucket holds the analyzer's total over both
    /// experiments, so every view renders the same lines.
    #[test]
    fn the_address_fold_is_additive_and_the_analyzers_map(case in cases()) {
        let (a, b, c, syms) = case;
        let merged = merge_streams(&[open(&a), open(&b)]).unwrap();
        let exp = open(&merged).to_experiment().unwrap();
        let analysis = Analysis::new(&[&exp], &syms);
        let columns = pairs(&[&merged]).columns;
        let (exp_a, exp_c) = (open(&a).to_experiment().unwrap(), open(&c).to_experiment().unwrap());
        let two_recipes = Analysis::new(&[&exp_a, &exp_c], &syms);
        for bucket in BUCKETS {
            let both = addresses(&[&a, &b], &syms, bucket);
            let mut sum = addresses(&[&a], &syms, bucket);
            for (key, samples) in addresses(&[&b], &syms, bucket) {
                let slot = sum.entry(key).or_insert_with(|| vec![0; samples.len()]);
                for (d, s) in slot.iter_mut().zip(&samples) {
                    *d += s;
                }
            }
            prop_assert_eq!(&both, &sum);
            prop_assert_eq!(&addresses(&[&merged], &syms, bucket), &both);

            let mut oracle = AddrMap::new();
            for (key, samples) in analysis.addr_map(bucket) {
                let slot = oracle.entry(key).or_insert_with(|| vec![0; columns.len()]);
                for (col, s) in analysis.columns.iter().zip(&samples) {
                    let at = columns.iter().position(|c| *c == spec_of(&col.kind, col.interval));
                    slot[at.unwrap()] += s;
                }
            }
            prop_assert_eq!(&both, &oracle);

            let union = addresses(&[&a, &c], &syms, bucket);
            let union_cols = pairs(&[&a, &c]).columns.len();
            prop_assert!(union.values().all(|s| s.len() == union_cols));
            prop_assert_eq!(totals(&union), totals(&two_recipes.addr_map(bucket)));
            for limit in [1, 7, usize::MAX] {
                prop_assert_eq!(
                    render_addr_rows(bucket, &addr_rows(union.clone(), limit)),
                    render_addr_rows(bucket, &addr_rows(two_recipes.addr_map(bucket), limit))
                );
            }
        }
    }
}

/// The address rule on one handmade stream: of five events with an
/// effective address, the fold keeps a plain counter's (key `(None,
/// d)`) and a validated candidate's, and drops a backtracked event's
/// with no candidate and one whose candidate window crosses a branch
/// target; clock ticks carry none. The analyzer keeps the same ones.
#[test]
fn the_address_fold_keeps_only_addresses_the_analysis_keeps() {
    let syms = SymbolTable::parse(
        "simsparc-syms text_base=0x10000\nMODULE 1 1 m0 m0.c\nFUNC 0x10000 0x10010 0 1 f\n\
         PC 1 0 S long count\nPC 1 1 -\nPC 1 0 S long count\nPC 1 0 -\n",
    )
    .unwrap();
    let recipe = vec![
        CounterRequest {
            event: CounterEvent::ECReadMiss,
            backtrack: true,
            interval: 101,
        },
        CounterRequest {
            event: CounterEvent::ECRef,
            backtrack: false,
            interval: 53,
        },
    ];
    let event = |counter, candidate_pc, delivered_pc, ea: u64| PackedHwcEvent {
        counter,
        delivered_pc,
        candidate_pc,
        ea: Some(ea),
        stack: 0,
        truth_trigger_pc: delivered_pc,
        truth_ea: Some(ea),
        truth_skid: 0,
    };
    let heap = simsparc_machine::HEAP_BASE;
    let data = simsparc_machine::DATA_BASE;
    let mut w = SegmentWriter::new(Vec::new());
    w.begin(&recipe, Some(10007), CLOCK_HZ).unwrap();
    w.stacks(&[vec![0x1_0000]]).unwrap();
    w.hwc_segment(&[
        // Validated: no branch target after 0x10008 up to 0x1000c.
        event(0, Some(0x1_0008), 0x1_000c, heap + 0x200),
        // Blocked by the branch target at 0x10004: Unresolvable.
        event(0, Some(0x1_0000), 0x1_0008, heap + 0x400),
        // Backtracked with no candidate: Unresolvable.
        event(0, None, 0x1_0008, heap + 0x600),
        // A plain counter with the same key keeps its address.
        event(1, None, 0x1_0008, data + 0x40),
        // A plain counter's candidate is not part of its key.
        event(1, Some(0x1_0000), 0x1_0008, data + 0x2040),
    ])
    .unwrap();
    w.clock_segment(&[PackedClockEvent {
        pc: 0x1_0004,
        stack: 0,
    }])
    .unwrap();
    w.finish(
        &RunInfo {
            clock_hz: CLOCK_HZ,
            dropped: vec![0, 0],
            ..RunInfo::default()
        },
        &[],
    )
    .unwrap();
    let image = w.into_inner();
    let exp = open(&image).to_experiment().unwrap();
    let analysis = Analysis::new(&[&exp], &syms);

    let lines = addresses(&[&image], &syms, AddrBucket::Block(EC_LINE_BYTES));
    let bases: std::collections::BTreeSet<u64> = lines.keys().map(|k| k * EC_LINE_BYTES).collect();
    assert_eq!(
        bases,
        [data, data + 0x2000, heap + 0x200].into_iter().collect()
    );
    assert_eq!(lines, analysis.addr_map(AddrBucket::Block(EC_LINE_BYTES)));
    // Columns: User CPU, E$ read misses, E$ references.
    let segments = addresses(&[&image], &syms, AddrBucket::Segment);
    assert_eq!(segments[&1], vec![0, 0, 2]);
    assert_eq!(segments[&2], vec![0, 1, 0]);
    assert_eq!(segments.len(), 2);
    assert_eq!(
        render_addr_rows(AddrBucket::Segment, &addr_rows(segments, usize::MAX)),
        "  data:        2 events\n  heap:        1 events\n"
    );
}

/// Different columns merge into their union, which is the fold of
/// both inputs; a different clock rate refuses to merge instead of
/// summing.
#[test]
fn only_a_different_clock_rate_refuses_to_merge() {
    let mut rng = TestRng::new("mismatched_histograms");
    let counter = |event, interval| CounterRequest {
        event,
        backtrack: true,
        interval,
    };
    let stall = (
        vec![counter(CounterEvent::ECStallCycles, 4001)],
        Some(10007),
    );
    let refs = (vec![counter(CounterEvent::ECRef, 2003)], None);
    let (x, y) = (image(&mut rng, &stall), image(&mut rng, &refs));
    let one = pairs(&[&x]);
    let mut other_rate = one.clone();
    other_rate.clock_hz += 1;
    let err = one.clone().merge(&other_rate).unwrap_err();
    assert!(err.to_string().contains("clock rates differ"), "{err}");
    let mut union = one.clone();
    union.merge(&pairs(&[&y])).unwrap();
    assert_eq!(union, pairs(&[&x, &y]));
    assert_eq!(union.columns.len(), 3);
    let mut twice = one.clone();
    twice.merge(&one).unwrap();
    assert_eq!(
        twice.totals,
        one.totals.iter().map(|t| 2 * t).collect::<Vec<_>>()
    );
}

/// The fold, and so `mp-store stat`, refuses inputs collected at
/// different clock rates, as `mp-store merge` and `diff` do.
#[test]
fn the_fold_refuses_different_clock_rates() {
    let mut rng = TestRng::new("clock_rates");
    let recipe = (Vec::new(), Some(10007));
    let fast = image_at(&mut rng, &recipe, CLOCK_HZ);
    let slow = image_at(&mut rng, &recipe, CLOCK_HZ / 2);
    let Err(err) = aggregate_streams(&[open(&fast), open(&slow)]) else {
        panic!("aggregated streams with different clock rates");
    };
    assert_eq!(
        err.to_string(),
        "incompatible experiments: clock rates differ: 900000000 vs 450000000"
    );
}
