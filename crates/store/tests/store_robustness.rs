//! Robustness of the binary format: property-tested lossless packing
//! over arbitrary experiments (`load(pack(x))` holds x's events with
//! x's frames, and packs to the same bytes), aggregation of a packed
//! file equal to aggregation of its loaded experiment, and
//! typed errors — never panics — on every truncation and byte flip of
//! a packed image. Mirrors the text-format robustness suite in
//! memprof-core.

use std::path::{Path, PathBuf};

use memprof_core::{CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, RunInfo};
use memprof_store::{
    aggregate, aggregate_refs, pack_experiment, xxh64, ExperimentRef, StoreError, StreamFile,
};
use proptest::collection::vec;
use proptest::prelude::*;
use simsparc_machine::{CounterEvent, EventCounts};

/// The two counters every generated experiment collects; field values
/// come from the proptest strategies.
fn counters(i0: u64, i1: u64) -> Vec<CounterRequest> {
    vec![
        CounterRequest {
            event: CounterEvent::ECStallCycles,
            backtrack: true,
            interval: i0,
        },
        CounterRequest {
            event: CounterEvent::DTLBMiss,
            backtrack: false,
            interval: i1,
        },
    ]
}

/// One generated hwc event; the last field picks its stack.
type RawHwc = (usize, u64, bool, u64, bool, u64, u64, usize);

/// A stack no generated event uses.
const UNUSED_STACK: u64 = 0x7fff_0000;

/// Build an experiment whose stack table is `pool` twice over plus one
/// stack no event uses, so every table holds duplicates and an unused
/// entry. Each event's pick selects any of the `2 * pool.len()` used
/// positions, so either copy of a stack can be used, and a clock tick
/// can be the first event to use one. The skid also picks the truth
/// EA: equal to the EA, different from it, or present without one.
fn build_experiment(
    intervals: (u64, u64),
    period: u64,
    pool: Vec<Vec<u64>>,
    raw_events: Vec<RawHwc>,
    raw_clocks: Vec<(u64, usize)>,
    dropped: (u64, u64),
) -> Experiment {
    let used = 2 * pool.len();
    let id = |pick: usize| (pick % used) as u32;
    let hwc_events = raw_events
        .into_iter()
        .map(
            |(counter, delivered, has_cand, cand_delta, has_ea, ea, skid, pick)| PackedHwcEvent {
                counter,
                delivered_pc: delivered,
                candidate_pc: has_cand.then(|| delivered.wrapping_sub(cand_delta)),
                ea: has_ea.then_some(ea),
                stack: id(pick),
                truth_trigger_pc: delivered.wrapping_sub(cand_delta / 2),
                truth_ea: match (has_ea, skid % 3) {
                    (true, 0) => Some(ea),
                    (true, _) => Some(ea ^ 0x40),
                    (false, 0) => None,
                    (false, _) => Some(ea | 8),
                },
                truth_skid: (skid % 8) as u32,
            },
        )
        .collect();
    let clock_events = raw_clocks
        .into_iter()
        .map(|(pc, pick)| PackedClockEvent {
            pc,
            stack: id(pick),
        })
        .collect();
    let mut stacks = pool.clone();
    stacks.extend(pool);
    stacks.push(vec![UNUSED_STACK]);
    Experiment {
        counters: counters(intervals.0, intervals.1),
        clock_period: (period > 0).then_some(period),
        stacks,
        hwc_events,
        clock_events,
        run: RunInfo {
            exit_code: 0,
            output: "ok\n".to_string(),
            counts: EventCounts {
                cycles: 123_456,
                insts: 60_000,
                ..Default::default()
            },
            clock_hz: 900_000_000,
            dropped: vec![dropped.0, dropped.1],
        },
        log: vec!["0 collect start".to_string()],
    }
}

/// A symbol table covering the generated PCs.
const SYMS: &str =
    "simsparc-syms text_base=0x10000\nMODULE 1 1 m m.c\nFUNC 0x10000 0x2000000 0 1 func\n";

fn attachments() -> Vec<(String, String)> {
    vec![("syms.txt".to_string(), SYMS.to_string())]
}

/// A scratch directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "memprof_store_robust_{tag}_{}_{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn packed_ref(path: &Path, bytes: &[u8]) -> ExperimentRef {
    std::fs::write(path, bytes).unwrap();
    ExperimentRef::Packed(path.to_path_buf())
}

/// Each hwc event with its frames in place of its stack id.
fn hwc_frames(e: &Experiment) -> Vec<(PackedHwcEvent, &[u64])> {
    e.hwc_events
        .iter()
        .map(|ev| {
            (
                PackedHwcEvent { stack: 0, ..*ev },
                &e.stacks[ev.stack as usize][..],
            )
        })
        .collect()
}

/// Each clock tick with its frames in place of its stack id.
fn clock_frames(e: &Experiment) -> Vec<(u64, &[u64])> {
    e.clock_events
        .iter()
        .map(|ev| (ev.pc, &e.stacks[ev.stack as usize][..]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing is lossless up to stack numbering: `load(pack(x))`
    /// holds x's events, each with x's frames, and packs to x's bytes.
    /// Pack depends only on each event's frames — the property
    /// compaction's cache seeding rests on: a seeded merge packs
    /// exactly like a merge that re-read the packed store.
    #[test]
    fn load_of_pack_is_identity(
        intervals in (1u64..100_000, 1u64..100_000),
        period in 0u64..20_000,
        pool in vec(vec(0x1_0000u64..0x200_0000, 0..5), 1..8),
        raw_events in vec(
            (
                0usize..2,
                0x1_0000u64..0x200_0000,
                any::<bool>(),
                0u64..64,
                any::<bool>(),
                0u64..0x4000_0000,
                0u64..8,
                any::<usize>(),
            ),
            0..48,
        ),
        raw_clocks in vec((0x1_0000u64..0x200_0000, any::<usize>()), 0..24),
        dropped in (0u64..10, 0u64..10),
    ) {
        let exp = build_experiment(intervals, period, pool, raw_events, raw_clocks, dropped);
        let bytes = pack_experiment(&exp, &attachments());
        prop_assert!(bytes.starts_with(b"MPES\x03"));
        let dir = scratch("identity");
        let r = packed_ref(&dir.join("x.mps"), &bytes);
        let back = r.load()?;
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&back.counters, &exp.counters);
        prop_assert_eq!(back.clock_period, exp.clock_period);
        prop_assert_eq!(hwc_frames(&back), hwc_frames(&exp));
        prop_assert_eq!(clock_frames(&back), clock_frames(&exp));
        prop_assert_eq!(&back.run, &exp.run);
        prop_assert_eq!(&back.log, &exp.log);
        prop_assert!(pack_experiment(&back, &attachments()) == bytes, "pack(load(pack(x))) != pack(x)");
        let stream = StreamFile::from_bytes(bytes)?;
        prop_assert!(stream.is_complete());
        prop_assert_eq!(stream.attachments(), &attachments()[..]);
    }

    /// Aggregating a packed file — its chunks decoded straight into
    /// the batch — equals aggregating its loaded experiment.
    #[test]
    fn aggregate_of_packed_equals_aggregate_of_loaded(
        raw_events in vec(
            (
                0usize..2,
                0x1_0000u64..0x1_0400,
                any::<bool>(),
                0u64..64,
                any::<bool>(),
                0u64..0x4000_0000,
                0u64..8,
                any::<usize>(),
            ),
            0..64,
        ),
        raw_clocks in vec((0x1_0000u64..0x1_0400, any::<usize>()), 0..24),
        pool in vec(vec(0x1_0000u64..0x200_0000, 0..3), 1..4),
        period in 0u64..2,
    ) {
        let exp = build_experiment((4001, 53), period * 10007, pool, raw_events, raw_clocks, (0, 0));
        let dir = scratch("agg");
        let r = packed_ref(&dir.join("x.mps"), &pack_experiment(&exp, &[]));
        let streamed = aggregate_refs(std::slice::from_ref(&r), 1)?;
        let loaded = aggregate(&[&r.load()?])?;
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&streamed.columns, &loaded.columns);
        prop_assert_eq!(&streamed.pc_samples, &loaded.pc_samples);
        prop_assert_eq!(&streamed.totals, &loaded.totals);
        prop_assert_eq!(streamed.render(), loaded.render());
    }
}

/// A small deterministic event mix used by the corruption tests:
/// event `i` calls from `[0x1_0000, 0x1_0040 + i]`, every clock tick
/// from `[0x1_0000]` (the pool's last stack, picked in its second
/// copy).
fn sample_pool() -> Vec<Vec<u64>> {
    (0..24)
        .map(|i| vec![0x1_0000, 0x1_0040 + i])
        .chain([vec![0x1_0000]])
        .collect()
}

fn sample_events() -> Vec<RawHwc> {
    (0..24)
        .map(|i| {
            (
                (i % 2) as usize,
                0x1_0000 + i * 8,
                i % 3 == 0,
                (i % 16) * 4,
                i % 4 == 0,
                0x4000_0000 + i * 16,
                i % 8,
                i as usize,
            )
        })
        .collect()
}

fn sample_clocks() -> Vec<(u64, usize)> {
    (0..12).map(|i| (0x1_0100 + i * 4, 2 * 25 - 1)).collect()
}

fn sample_image() -> Vec<u8> {
    let exp = build_experiment(
        (4001, 53),
        10007,
        sample_pool(),
        sample_events(),
        sample_clocks(),
        (1, 0),
    );
    pack_experiment(&exp, &attachments())
}

/// The error a damaged image may legitimately produce: always typed,
/// always naming the file. A symbol table whose text no longer parses
/// is reported as the parser's `InvalidData`.
fn assert_typed(err: &StoreError, path: &Path, what: &str) {
    let StoreError::At(at, inner) = err else {
        panic!("{what}: error without a path: {err}");
    };
    assert_eq!(at, path, "{what}");
    assert!(
        match &**inner {
            StoreError::Io(e) => e.kind() == std::io::ErrorKind::InvalidData,
            inner => matches!(
                inner,
                StoreError::Truncated
                    | StoreError::BadMagic
                    | StoreError::BadVersion(_)
                    | StoreError::Corrupt(_)
            ),
        },
        "{what}: unexpected error {err}"
    );
}

/// Run a damaged image through every reading entry point: each must
/// return `Ok` or a typed error naming the file, never panic. Returns
/// the loaded experiment, if it loaded.
fn read_every_way(path: &Path, what: &str) -> Option<Experiment> {
    let r = ExperimentRef::Packed(path.to_path_buf());
    if let Err(e) = aggregate_refs(std::slice::from_ref(&r), 1) {
        assert_typed(&e, path, what);
    }
    if let Err(e) = r.read_syms() {
        assert_typed(&e, path, what);
    }
    r.load().map_err(|e| assert_typed(&e, path, what)).ok()
}

/// A prefix of the sample image loads no more events than the whole,
/// and carries its symbol table only if the footer survived.
fn assert_prefix(path: &Path, what: &str) {
    let clean = StreamFile::from_bytes(sample_image()).unwrap();
    if let Some(exp) = read_every_way(path, what) {
        assert!(exp.hwc_events.len() <= clean.hwc_total(), "{what}");
    }
    if let Ok(Some(syms)) = ExperimentRef::Packed(path.to_path_buf()).read_syms() {
        assert!(syms.func_at(0x1_0000).is_some(), "{what}");
    }
}

#[test]
fn every_truncation_reads_as_a_prefix_or_a_typed_error() {
    let bytes = sample_image();
    let dir = scratch("cuts");
    let path = dir.join("cut.mps");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert_prefix(&path, &format!("cut at {cut}"));
        // A cut file never passes for a finished run.
        if let Ok(f) = StreamFile::open(&path) {
            assert!(!f.is_complete(), "cut at {cut} claims completeness");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `[start, end)` byte range of every chunk (header included) in
/// an intact `MPES` image, in file order.
fn chunk_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 5;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
        let end = pos + 13 + len as usize;
        spans.push((pos, end));
        pos = end;
    }
    spans
}

/// Give the chunk at `start` a checksum that matches its (possibly
/// damaged) kind, length and payload, as if it had been written that
/// way: XXH64 of the payload seeded with `kind | len << 8`. A length
/// pushed past the end of the image is left alone: that is framing
/// damage whatever the checksum says.
fn reseal(bytes: &mut [u8], start: usize) {
    let kind = bytes[start];
    let len = u32::from_le_bytes(bytes[start + 1..start + 5].try_into().unwrap());
    let Some(payload) = bytes.get(start + 13..start + 13 + len as usize) else {
        return;
    };
    let sum = xxh64(payload, u64::from(kind) | u64::from(len) << 8);
    bytes[start + 5..start + 13].copy_from_slice(&sum.to_le_bytes());
}

/// Every single-byte flip, read twice. As flipped, the chunk checksum
/// (XXH64 of the payload, seeded with kind and length) catches the
/// change, so the file reads as a prefix or a typed error. Resealed
/// with a matching checksum, the damaged content reaches the decoders
/// instead: the content checks (header and footer fields, counter
/// bound, flags, PC index, skid, stack id, bytes left in a column)
/// must turn it into `Ok` or a typed error — never a panic. Some
/// resealed images must open and then fail `load` as `Corrupt`, or the
/// reseal missed the checksum and nothing reached a content check.
#[test]
fn every_byte_flip_reads_as_a_prefix_or_a_typed_error() {
    let clean = sample_image();
    let spans = chunk_spans(&clean);
    let dir = scratch("flips");
    let path = dir.join("flip.mps");
    let mut corrupt_past_open = 0;
    for pos in 0..clean.len() {
        for mask in [0x01u8, 0x10, 0xff] {
            let mut bytes = clean.clone();
            bytes[pos] ^= mask;
            let what = format!("byte {pos} ^ {mask:#04x}");
            std::fs::write(&path, &bytes).unwrap();
            assert_prefix(&path, &what);
            // The chunk checksum covers kind and length too, so a
            // flipped file can never pass for a cleanly finished run.
            if let Ok(f) = StreamFile::open(&path) {
                assert!(!f.is_complete(), "silent misparse: {what}");
            }
            if let Some(&(start, _)) = spans.iter().find(|&&(s, e)| (s..e).contains(&pos)) {
                reseal(&mut bytes, start);
                std::fs::write(&path, &bytes).unwrap();
                read_every_way(&path, &format!("{what}, resealed"));
                if StreamFile::open(&path).is_ok_and(|f| f.truncation().is_none())
                    && is_corrupt(ExperimentRef::Packed(path.clone()).load())
                {
                    corrupt_past_open += 1;
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        corrupt_past_open > 0,
        "no resealed flip reached a content check"
    );
}

/// Did reading fail with `Corrupt`, naming the file?
fn is_corrupt<T>(read: Result<T, StoreError>) -> bool {
    matches!(read, Err(StoreError::At(_, inner)) if matches!(*inner, StoreError::Corrupt(_)))
}

/// The attribution-key decode behind `aggregate_refs` keeps every content
/// check of the full decode behind `load`. For every flip inside an
/// HWC or CLOCK chunk's payload, resealed so the damage reaches the
/// decoders, the two fail together, and when both succeed they agree
/// on every column's samples. Some of those images must open cleanly
/// and then fail `load` as `Corrupt`, or the flips never reached a
/// content check.
#[test]
fn resealed_event_payload_flips_fail_aggregate_and_load_alike() {
    let clean = sample_image();
    let dir = scratch("differential");
    let path = dir.join("flip.mps");
    let r = ExperimentRef::Packed(path.clone());
    let (mut both_ok, mut both_failed, mut corrupt_past_open) = (0, 0, 0);
    for (start, end) in chunk_spans(&clean) {
        if !matches!(clean[start], 2 | 3) {
            continue;
        }
        for pos in start + 13..end {
            for mask in [0x01u8, 0x10, 0xff] {
                let mut bytes = clean.clone();
                bytes[pos] ^= mask;
                reseal(&mut bytes, start);
                std::fs::write(&path, &bytes).unwrap();
                let what = format!("byte {pos} ^ {mask:#04x}, resealed");
                if let Ok(f) = StreamFile::open(&path) {
                    assert_eq!(f.truncation(), None, "{what}: walk stopped at the flip");
                }
                let streamed = aggregate_refs(std::slice::from_ref(&r), 1);
                let loaded = r.load();
                match (streamed, loaded) {
                    (Ok(s), Ok(exp)) => {
                        let l = aggregate(&[&exp]).unwrap();
                        assert_eq!(s.columns, l.columns, "{what}");
                        assert_eq!(s.totals, l.totals, "{what}");
                        assert_eq!(s.pc_samples, l.pc_samples, "{what}");
                        both_ok += 1;
                    }
                    (Err(_), Err(e)) => {
                        assert_typed(&e, &path, &what);
                        if StreamFile::open(&path).is_ok() && is_corrupt::<()>(Err(e)) {
                            corrupt_past_open += 1;
                        }
                        both_failed += 1;
                    }
                    (s, l) => panic!(
                        "{what}: aggregate {} but load {}",
                        s.map_or_else(|e| e.to_string(), |_| "ok".into()),
                        l.map_or_else(|e| e.to_string(), |_| "ok".into())
                    ),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "{both_ok} images read on both paths, {both_failed} failed on both \
         ({corrupt_past_open} as Corrupt after a clean open)"
    );
    assert!(
        both_ok > 0 && corrupt_past_open > 0,
        "flips never reached the decoders"
    );
}

/// Versions 1 and 2 are earlier layouts of the same format. No
/// decoder for them remains, so each reads as `BadVersion` naming the
/// file, on every entry point.
#[test]
fn version_one_images_are_rejected_naming_the_file() {
    let dir = scratch("v1");
    let path = dir.join("old.mps");
    for version in [1u8, 2] {
        let mut bytes = sample_image();
        bytes[4] = version;
        let r = packed_ref(&path, &bytes);
        for err in [
            r.load().err(),
            aggregate_refs(std::slice::from_ref(&r), 1).err(),
            r.read_syms().err(),
        ] {
            let err = err.expect("an earlier version's image must not read");
            assert!(
                err.to_string().contains("old.mps"),
                "error lacks path: {err}"
            );
            assert!(
                matches!(&err, StoreError::At(_, inner) if matches!(**inner, StoreError::BadVersion(v) if v == version)),
                "{err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_and_foreign_inputs_are_rejected() {
    assert!(matches!(
        StreamFile::from_bytes(Vec::new()),
        Err(StoreError::Truncated)
    ));
    assert!(matches!(
        StreamFile::from_bytes(b"counters 2\nhello world\n".to_vec()),
        Err(StoreError::BadMagic)
    ));
    assert!(matches!(
        StreamFile::from_bytes(b"MPES\x09".to_vec()),
        Err(StoreError::BadVersion(9))
    ));
    let bytes = sample_image();
    for len in 0..5 {
        assert!(
            matches!(
                StreamFile::from_bytes(bytes[..len].to_vec()),
                Err(StoreError::Truncated)
            ),
            "prefix of {len} bytes"
        );
    }
}

/// Reading from disk reads the whole file into the image the reader
/// owns. Truncating the file on disk at any point must behave exactly
/// like truncating the in-memory image, end to end through
/// [`ExperimentRef::load`].
#[test]
fn truncated_files_on_disk_match_in_memory_truncation() {
    let bytes = sample_image();
    let dir = scratch("pread_trunc");
    let path = dir.join("x.mps");
    // Sample cut points; always include the interesting boundaries.
    let cuts: Vec<usize> = (0..bytes.len())
        .step_by(7)
        .chain([0, 1, 4, 5, bytes.len() - 1, bytes.len()])
        .collect();
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let from_disk = ExperimentRef::Packed(path.clone()).load();
        let in_memory =
            StreamFile::from_bytes(bytes[..cut].to_vec()).and_then(|s| s.to_experiment());
        match (from_disk, in_memory) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.counters, b.counters, "cut {cut}");
                assert_eq!(a.stacks, b.stacks, "cut {cut}");
                assert_eq!(a.hwc_events, b.hwc_events, "cut {cut}");
                assert_eq!(a.clock_events, b.clock_events, "cut {cut}");
                assert_eq!(a.log, b.log, "cut {cut}");
            }
            (Err(_), Err(_)) => {}
            (disk, mem) => panic!(
                "cut {cut}: disk {:?} vs memory {:?}",
                disk.is_ok(),
                mem.is_ok()
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
