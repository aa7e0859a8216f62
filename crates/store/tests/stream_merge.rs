//! The merge algebra, pinned over generated `MPES` images: one to four
//! streams with random stack tables (stacks repeated across inputs),
//! counter events with and without candidate, EA and truth EA, clock
//! ticks, several chunks each, cut-short prefixes and header-only
//! inputs. On them [`merge_streams`] is associative byte for byte, its
//! decode is [`merge_experiments`]' result field for field and packs
//! like [`merge_loaded`] over the decoded inputs, and an event naming a
//! stack its own input does not define fails the merge, naming that
//! input, as does a stack table with bad content.

use std::path::{Path, PathBuf};

use memprof_core::{
    CollectSink as _, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, RunInfo,
};
use memprof_store::{
    merge_experiments, merge_loaded, merge_streams, merged_attachments, pack_experiment, xxh64,
    ExperimentRef, SegmentWriter, StoreError, StreamFile,
};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestRng;
use simsparc_machine::{CounterEvent, EventCounts};

const CLOCK_HZ: u64 = 900_000_000;

fn counters() -> Vec<CounterRequest> {
    vec![
        CounterRequest {
            event: CounterEvent::ECStallCycles,
            backtrack: true,
            interval: 4001,
        },
        CounterRequest {
            event: CounterEvent::DTLBMiss,
            backtrack: false,
            interval: 53,
        },
    ]
}

/// A draw in `0..n`.
fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    below(rng, one_in) == 0
}

/// Stacks the inputs draw from, so the same stack recurs across
/// inputs (and within one, under two ids).
fn stack_pool(rng: &mut TestRng) -> Vec<Vec<u64>> {
    (0..1 + below(rng, 6))
        .map(|_| {
            (0..below(rng, 4))
                .map(|_| 0x1_0000 + 4 * below(rng, 0x4000))
                .collect()
        })
        .collect()
}

fn hwc_event(rng: &mut TestRng, n_stacks: u32) -> PackedHwcEvent {
    let delivered = 0x1_0000 + 4 * below(rng, 64);
    let ea = (!chance(rng, 3)).then(|| 0x4000_0000 + 8 * below(rng, 1 << 20));
    PackedHwcEvent {
        counter: below(rng, 2) as usize,
        delivered_pc: delivered,
        candidate_pc: chance(rng, 2).then(|| delivered - 4 * below(rng, 4)),
        ea,
        stack: below(rng, u64::from(n_stacks)) as u32,
        truth_trigger_pc: delivered - 4 * below(rng, 3),
        truth_ea: match below(rng, 3) {
            0 => ea,
            1 => None,
            _ => Some(0x4000_0000 + below(rng, 1 << 24)),
        },
        truth_skid: below(rng, 8) as u32,
    }
}

/// One generated input image: a header, then up to four rounds of
/// newly defined stacks, an HWC chunk and a CLOCK chunk, then a
/// footer. Some inputs stop after the header, and some are cut short
/// anywhere past it.
fn input_image(rng: &mut TestRng, pool: &[Vec<u64>], seq: u64) -> Vec<u8> {
    let mut w = SegmentWriter::new(Vec::new());
    match below(rng, 4) {
        0 => w.attach("syms.txt", &format!("syms of input {seq}\n")),
        1 => w.attach("image.txt", &format!("image of input {seq}\n")),
        2 => w.attach("notes.txt", "not an attachment file\n"),
        _ => {}
    }
    w.begin(&counters(), Some(10007), CLOCK_HZ).unwrap();
    let header_only = chance(rng, 6);
    let mut defined = 0u32;
    for _ in 0..if header_only { 0 } else { 1 + below(rng, 4) } {
        let fresh: Vec<Vec<u64>> = (0..below(rng, 3))
            .map(|_| pool[below(rng, pool.len() as u64) as usize].clone())
            .collect();
        if defined == 0 || !fresh.is_empty() {
            let fresh = if fresh.is_empty() {
                vec![pool[0].clone()]
            } else {
                fresh
            };
            defined += fresh.len() as u32;
            w.stacks(&fresh).unwrap();
        }
        let events: Vec<PackedHwcEvent> = (0..below(rng, 12))
            .map(|_| hwc_event(rng, defined))
            .collect();
        w.hwc_segment(&events).unwrap();
        let ticks: Vec<PackedClockEvent> = (0..below(rng, 5))
            .map(|_| PackedClockEvent {
                pc: 0x1_0000 + 4 * below(rng, 64),
                stack: below(rng, u64::from(defined)) as u32,
            })
            .collect();
        w.clock_segment(&ticks).unwrap();
    }
    if !header_only {
        let run = RunInfo {
            exit_code: below(rng, 3) as i64,
            output: format!("output {seq}\n"),
            counts: EventCounts {
                cycles: below(rng, 1 << 30),
                insts: below(rng, 1 << 28),
                loads: below(rng, 1 << 20),
                ..Default::default()
            },
            clock_hz: CLOCK_HZ,
            dropped: vec![below(rng, 5), below(rng, 5)],
        };
        w.finish(
            &run,
            &[format!("{seq} collect start"), format!("{seq} exit")],
        )
        .unwrap();
    }
    let mut bytes = w.into_inner();
    if !header_only && chance(rng, 4) {
        // A cut anywhere past the header chunk leaves a readable prefix.
        let header_end = 5 + 13 + u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
        let cut = header_end + below(rng, (bytes.len() - header_end) as u64) as usize;
        bytes.truncate(cut);
    }
    bytes
}

/// An input whose last event names a stack one past those it defines,
/// though earlier inputs define more: a hole in its own table.
fn undefined_stack_image(rng: &mut TestRng, pool: &[Vec<u64>]) -> Vec<u8> {
    let mut w = SegmentWriter::new(Vec::new());
    w.begin(&counters(), Some(10007), CLOCK_HZ).unwrap();
    let defined = below(rng, 3) as u32;
    if defined > 0 {
        w.stacks(&vec![pool[0].clone(); defined as usize]).unwrap();
    }
    let mut events: Vec<PackedHwcEvent> = (0..below(rng, 4))
        .map(|_| hwc_event(rng, defined.max(1)))
        .filter(|e| e.stack < defined)
        .collect();
    let mut bad = hwc_event(rng, 1);
    bad.stack = defined;
    events.push(bad);
    if chance(rng, 2) {
        w.hwc_segment(&events).unwrap();
    } else {
        let ticks: Vec<PackedClockEvent> = events
            .iter()
            .map(|e| PackedClockEvent {
                pc: e.delivered_pc,
                stack: e.stack,
            })
            .collect();
        w.clock_segment(&ticks).unwrap();
    }
    w.into_inner()
}

/// One case: the input images, and a bad image with where it goes.
type Case = (Vec<Vec<u8>>, Vec<u8>, usize);

fn cases() -> BoxedStrategy<Case> {
    BoxedStrategy::new(|rng| {
        let pool = stack_pool(rng);
        let n = 1 + below(rng, 4);
        let images = (0..n).map(|i| input_image(rng, &pool, i)).collect();
        let bad = undefined_stack_image(rng, &pool);
        let at = below(rng, n + 1) as usize;
        (images, bad, at)
    })
}

/// A scratch directory unique to one case.
fn scratch() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "memprof_stream_merge_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(bytes: &[u8]) -> StreamFile {
    StreamFile::from_bytes(bytes.to_vec()).unwrap()
}

/// `merge_streams` over images.
fn merge(images: &[&[u8]]) -> Vec<u8> {
    let inputs: Vec<StreamFile> = images.iter().map(|b| open(b)).collect();
    merge_streams(&inputs).unwrap()
}

/// Two experiments equal field for field.
fn assert_identical(a: &Experiment, b: &Experiment) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.counters, &b.counters);
    prop_assert_eq!(a.clock_period, b.clock_period);
    prop_assert_eq!(&a.stacks, &b.stacks);
    prop_assert_eq!(&a.hwc_events, &b.hwc_events);
    prop_assert_eq!(&a.clock_events, &b.clock_events);
    prop_assert_eq!(&a.run, &b.run);
    prop_assert_eq!(&a.log, &b.log);
    Ok(())
}

fn write_all(dir: &Path, images: &[Vec<u8>]) -> Vec<PathBuf> {
    images
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let path = dir.join(format!("in{i}.mpes"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_streams_is_associative_and_decodes_like_the_fold(case in cases()) {
        let (images, bad, at) = case;
        let slices: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let flat = merge(&slices);

        // Every split into a merged head and a merged tail, and every
        // merged middle between two plain ends, is the flat merge.
        for k in 1..slices.len() {
            let (head, tail) = (merge(&slices[..k]), merge(&slices[k..]));
            prop_assert!(merge(&[&head, &tail]) == flat, "split at {}", k);
            prop_assert!(merge(&[&head, &merge(&[&tail])]) == flat, "rewrapped tail at {}", k);
            for j in k + 1..slices.len() {
                let mut nested = slices[..k].to_vec();
                let middle = merge(&slices[k..j]);
                nested.push(&middle);
                nested.extend_from_slice(&slices[j..]);
                prop_assert!(merge(&nested) == flat, "middle {}..{}", k, j);
            }
        }
        if let [a, b, c] = slices[..] {
            prop_assert!(merge(&[&merge(&[a, b]), c]) == flat);
            prop_assert!(merge(&[a, &merge(&[b, c])]) == flat);
        }

        // The decode is the in-memory fold's result, field for field,
        // and packs like the interning oracle over the decoded inputs.
        let dir = scratch();
        let paths = write_all(&dir, &images);
        let refs: Vec<ExperimentRef> = paths.iter().map(|p| ExperimentRef::open(p).unwrap()).collect();
        let merged = open(&flat);
        prop_assert!(merged.is_complete());
        let decoded = merged.to_experiment()?;
        assert_identical(&decoded, &merge_experiments(&refs)?)?;
        let loaded: Vec<Experiment> = slices.iter().map(|b| open(b).to_experiment().unwrap()).collect();
        prop_assert!(pack_experiment(&decoded, &[]) == pack_experiment(&merge_loaded(&loaded)?, &[]));
        let inputs: Vec<StreamFile> = slices.iter().map(|b| open(b)).collect();
        prop_assert_eq!(
            merged.attachments(),
            &merged_attachments(inputs.iter().map(StreamFile::attachments))[..]
        );

        // An input naming a stack it does not define fails the merge,
        // wherever it sits, naming that input.
        let mut with_bad = images.clone();
        with_bad.insert(at, bad);
        let paths = write_all(&dir, &with_bad);
        let inputs: Vec<StreamFile> = paths.iter().map(|p| StreamFile::open(p).unwrap()).collect();
        match merge_streams(&inputs) {
            Err(StoreError::At(path, inner)) => {
                prop_assert_eq!(&path, &paths[at]);
                prop_assert!(
                    matches!(*inner, StoreError::Corrupt("event references undefined stack id")),
                    "{}", inner
                );
            }
            other => prop_assert!(false, "merge with an undefined stack id: {:?}", other.map(|b| b.len())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `image` with the payload of its first chunk of `kind` changed by
/// `edit`, resealed with a matching length and checksum so the damage
/// passes the framing and reaches the content checks.
fn resealed(image: &[u8], kind: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let len_at = |at: usize| u32::from_le_bytes(image[at + 1..at + 5].try_into().unwrap());
    let mut at = 5;
    while image[at] != kind {
        at += 13 + len_at(at) as usize;
    }
    let end = at + 13 + len_at(at) as usize;
    let mut payload = image[at + 13..end].to_vec();
    edit(&mut payload);
    let len = payload.len() as u32;
    let mut bytes = image[..at].to_vec();
    bytes.push(kind);
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&xxh64(&payload, u64::from(kind) | u64::from(len) << 8).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&image[end..]);
    bytes
}

/// The merge copies STACKS chunks as they are, so it decodes each one
/// first: a stack table with bad content under a valid checksum (a
/// trailing byte, a cut varint) fails the merge, naming its input,
/// where the merged image would otherwise carry it to every reader.
#[test]
fn bad_stack_tables_fail_the_merge_naming_their_input() {
    let mut rng = TestRng::new("bad_stack_tables");
    let pool = stack_pool(&mut rng);
    let mut w = SegmentWriter::new(Vec::new());
    w.begin(&counters(), Some(10007), CLOCK_HZ).unwrap();
    w.stacks(&[vec![0x1_0000, 0x1_0040], vec![0x1_0100]])
        .unwrap();
    w.hwc_segment(&[hwc_event(&mut rng, 2)]).unwrap();
    let run = RunInfo {
        clock_hz: CLOCK_HZ,
        dropped: vec![0, 0],
        ..RunInfo::default()
    };
    w.finish(&run, &[]).unwrap();
    let image = w.into_inner();
    let good = input_image(&mut rng, &pool, 0);
    let dir = scratch();
    for (bad, why) in [
        (
            resealed(&image, 1, |p| p.push(0)),
            StoreError::Corrupt("trailing bytes in chunk"),
        ),
        (
            resealed(&image, 1, |p| *p.last_mut().unwrap() |= 0x80),
            StoreError::Truncated,
        ),
    ] {
        let paths = write_all(&dir, &[good.clone(), bad]);
        let inputs: Vec<StreamFile> = paths.iter().map(|p| StreamFile::open(p).unwrap()).collect();
        match merge_streams(&inputs) {
            Err(StoreError::At(path, inner)) => {
                assert_eq!(path, paths[1]);
                assert_eq!(inner.to_string(), why.to_string());
            }
            other => panic!("merge of a bad stack table: {:?}", other.map(|b| b.len())),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recipes are checked before any event is read, and an empty input
/// list is refused.
#[test]
fn mixed_recipes_and_empty_merges_are_refused() {
    let mut rng = TestRng::new("mixed_recipes");
    let pool = stack_pool(&mut rng);
    let good = input_image(&mut rng, &pool, 0);
    let mut w = SegmentWriter::new(Vec::new());
    let mut other = counters();
    other[1].interval += 1;
    w.begin(&other, Some(10007), CLOCK_HZ).unwrap();
    let odd = w.into_inner();
    let err = merge_streams(&[open(&good), open(&odd)]).unwrap_err();
    assert!(
        err.to_string().starts_with("incompatible experiments:"),
        "{err}"
    );
    assert!(matches!(
        merge_streams(&[]),
        Err(StoreError::Incompatible(_))
    ));
}
