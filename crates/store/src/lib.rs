//! # memprof-store — binary experiment store + multi-experiment aggregation
//!
//! The collector's text experiment directories (§2.2) are the format
//! of record: greppable, diffable, stable. This crate adds the layer
//! the paper's production tool had and the reproduction lacked —
//! archival and aggregation at scale:
//!
//! * one compact, versioned, chunk-checksummed **binary format**
//!   (`MPES` v3, events in delta-coded column blocks) for a whole
//!   experiment (events, run summary, log, and
//!   the `syms.txt` / `image.txt` companions): the collector streams
//!   it through [`SegmentWriter`], and [`pack_experiment`] writes the
//!   same format for a packed store, losslessly convertible to and
//!   from the text directory ([`pack_dir`] / [`unpack_to_dir`]);
//! * one **lazy reader** ([`StreamFile`]) that indexes an image's
//!   chunks on open and decodes events straight from the bytes only
//!   when asked;
//! * one **aggregation engine** ([`aggregate_streams`]) reducing many
//!   experiments to per-PC histograms through the shared group-by
//!   kernel, with [`aggregate`] over in-memory experiments as its
//!   oracle;
//! * one merge rule in two representations: [`merge_experiments`]
//!   folds same-recipe runs into one in-memory experiment (feeding the
//!   ordinary analyzer views), and [`merge_streams`] folds their
//!   `MPES` images into one image by copying chunks, rewriting only the
//!   stack ids; decoding the second gives the first, and both are
//!   associative;
//! * [`diff_experiments`], which compares two runs function by
//!   function.
//!
//! Sources are addressed by [`ExperimentRef`], which accepts either a
//! text directory or a packed file and distinguishes them by the
//! store magic. [`ExperimentRef::open_stream`] opens either one, once,
//! as a [`StreamFile`] — a text directory by packing it in memory — so
//! the tools that aggregate (`stat`, `diff`) and every serve tier read
//! through that one reader.

mod aggregate;
mod dict;
mod format;
mod varint;
mod writer;

use std::path::{Path, PathBuf};

use memprof_core::{
    CallstackTable, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, StackId,
};

pub use aggregate::{
    aggregate, aggregate_streams, diff_aggregates, AggDiff, Aggregate, ColSpec, DiffRow,
};
pub use format::{pack_dir, pack_experiment, unpack_to_dir, xxh64, ATTACHMENT_FILES};
pub use writer::{merge_streams, validate_stream_prefix, SegmentWriter, StreamFile};

/// Everything that can go wrong opening, decoding, or combining
/// stores.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Input ended mid-record.
    Truncated,
    /// The file does not start with the store magic.
    BadMagic,
    /// The file is a store, but a version this build does not read.
    BadVersion(u8),
    /// Structurally invalid content (with a static reason).
    Corrupt(&'static str),
    /// Experiments whose collection recipes do not line up.
    Incompatible(String),
    /// An event column could not be resolved against the combined
    /// column set during aggregation (mismatched counter recipes).
    ColumnMismatch(String),
    /// Any of the above, annotated with the file it happened on.
    /// Multi-segment operations (compaction, merges, windowed
    /// queries) touch many files; a bare "unexpected end of input"
    /// with no path is undebuggable there.
    At(PathBuf, Box<StoreError>),
}

impl StoreError {
    /// Annotate this error with the path it occurred on. Idempotent:
    /// an error that already carries a path keeps the innermost one
    /// (closest to the failing read).
    pub fn at(self, path: &Path) -> StoreError {
        match self {
            StoreError::At(p, e) => StoreError::At(p, e),
            other => StoreError::At(path.to_path_buf(), Box::new(other)),
        }
    }
}

/// Result adapter used by every file-opening entry point: wraps any
/// error with the offending path.
pub(crate) trait PathContext {
    fn path_context(self, path: &Path) -> Self;
}

impl<T> PathContext for Result<T, StoreError> {
    fn path_context(self, path: &Path) -> Self {
        self.map_err(|e| e.at(path))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "{e}"),
            StoreError::Truncated => write!(f, "unexpected end of input"),
            StoreError::BadMagic => write!(f, "not a packed experiment store (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Corrupt(why) => write!(f, "corrupt store: {why}"),
            StoreError::Incompatible(why) => write!(f, "incompatible experiments: {why}"),
            StoreError::ColumnMismatch(why) => write!(f, "column mismatch: {why}"),
            StoreError::At(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A reference to an experiment on disk, in either representation.
#[derive(Clone, Debug)]
pub enum ExperimentRef {
    /// A text experiment directory written by `mp-collect`.
    TextDir(PathBuf),
    /// An `MPES` file: a packed store (`mp-store pack`/`merge`,
    /// `mp-serve` compaction) or a collector's stream.
    Packed(PathBuf),
}

impl ExperimentRef {
    /// Identify what `path` points at: directories are text
    /// experiments, files are sniffed for the store magic.
    pub fn open(path: &Path) -> Result<ExperimentRef, StoreError> {
        if path.is_dir() {
            return Ok(ExperimentRef::TextDir(path.to_path_buf()));
        }
        let open = || -> Result<ExperimentRef, StoreError> {
            let mut magic = [0u8; 4];
            let mut f = std::fs::File::open(path)?;
            std::io::Read::read_exact(&mut f, &mut magic).map_err(|_| StoreError::Truncated)?;
            if magic == format::MAGIC {
                Ok(ExperimentRef::Packed(path.to_path_buf()))
            } else {
                Err(StoreError::BadMagic)
            }
        };
        open().path_context(path)
    }

    pub fn path(&self) -> &Path {
        match self {
            ExperimentRef::TextDir(p) | ExperimentRef::Packed(p) => p,
        }
    }

    /// Open the experiment as an `MPES` image, whichever representation
    /// it is in: a packed file is read whole, and a text directory is
    /// loaded and packed in memory with the `syms.txt`/`image.txt`
    /// beside it attached (the files [`collect_attachments`] reads).
    /// Errors from opening and from every later decode name the path.
    pub fn open_stream(&self) -> Result<StreamFile, StoreError> {
        match self {
            ExperimentRef::TextDir(dir) => {
                let exp = Experiment::load(dir)
                    .map_err(StoreError::Io)
                    .path_context(dir)?;
                StreamFile::named(pack_experiment(&exp, &dir_attachments(dir)), dir)
            }
            ExperimentRef::Packed(file) => StreamFile::open(file),
        }
    }

    /// Load the full experiment, whichever representation it is in.
    pub fn load(&self) -> Result<Experiment, StoreError> {
        match self {
            ExperimentRef::TextDir(dir) => Experiment::load(dir)
                .map_err(StoreError::Io)
                .path_context(dir),
            ExperimentRef::Packed(file) => StreamFile::open(file)?.to_experiment(),
        }
    }

    /// Read the symbol table that travels with the experiment
    /// (`syms.txt` beside a text directory, the footer attachment of
    /// an `MPES` file — opening one decodes no event chunk). `Ok(None)`
    /// means the experiment carries no table; a store that cannot be
    /// opened, or a table that does not parse, is an error naming the
    /// offending path. A file whose footer never arrived (or was lost
    /// to damage, see [`StreamFile::truncation`]) carries no table.
    pub fn read_syms(&self) -> Result<Option<minic::SymbolTable>, StoreError> {
        match self {
            ExperimentRef::TextDir(dir) => {
                let path = dir.join("syms.txt");
                match std::fs::read_to_string(&path) {
                    Ok(text) => parse_syms(&text, &path).map(Some),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                    Err(e) => Err(StoreError::Io(e).at(&path)),
                }
            }
            ExperimentRef::Packed(file) => syms_attachment(StreamFile::open(file)?.attachments())
                .map(|text| parse_syms(text, file))
                .transpose(),
        }
    }

    /// [`ExperimentRef::read_syms`] for callers that only decorate
    /// output with symbols: any error reads as "no table".
    pub fn load_syms(&self) -> Option<minic::SymbolTable> {
        self.read_syms().ok().flatten()
    }
}

/// Parse a `syms.txt` body (see [`minic::SymbolTable::parse`]);
/// `path` names the file it came from in an error.
pub fn parse_syms(text: &str, path: &Path) -> Result<minic::SymbolTable, StoreError> {
    minic::SymbolTable::parse(text)
        .map_err(StoreError::Io)
        .path_context(path)
}

/// The `syms.txt` text among a packed store's attachments, if it
/// carries one.
pub fn syms_attachment(attachments: &[(String, String)]) -> Option<&str> {
    attachments
        .iter()
        .find(|(name, _)| name == "syms.txt")
        .map(|(_, text)| text.as_str())
}

/// The [`ATTACHMENT_FILES`] beside a text experiment directory, in
/// that order; a file that is missing or unreadable is left out.
fn dir_attachments(dir: &Path) -> Vec<(String, String)> {
    ATTACHMENT_FILES
        .iter()
        .filter_map(|&name| {
            let contents = std::fs::read_to_string(dir.join(name)).ok()?;
            Some((name.to_string(), contents))
        })
        .collect()
}

/// The auxiliary files a merge carries: the [`ATTACHMENT_FILES`] of
/// the first input that has any of them, in that order. Each item is
/// one input's attachments; inputs after the first that has any are
/// never visited. [`merge_streams`] writes these, and
/// [`collect_attachments`] picks them from references.
pub fn merged_attachments<A: AsRef<[(String, String)]>>(
    inputs: impl IntoIterator<Item = A>,
) -> Vec<(String, String)> {
    for attached in inputs {
        let found: Vec<(String, String)> = ATTACHMENT_FILES
            .iter()
            .filter_map(|&name| attached.as_ref().iter().find(|(n, _)| n == name).cloned())
            .collect();
        if !found.is_empty() {
            return found;
        }
    }
    Vec::new()
}

/// The auxiliary files to carry into a packed store merged from
/// `refs`, by [`merged_attachments`]' rule: a text directory offers
/// the files beside it, a packed file its footer's (one read each).
pub fn collect_attachments(refs: &[ExperimentRef]) -> Vec<(String, String)> {
    merged_attachments(refs.iter().map(|r| {
        match r {
            ExperimentRef::TextDir(dir) => dir_attachments(dir),
            ExperimentRef::Packed(file) => StreamFile::open(file)
                .map(|f| f.attachments().to_vec())
                .unwrap_or_default(),
        }
    }))
}

#[cfg(test)]
fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "memprof_store_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A collection recipe: counters, clock period and clock rate.
type Recipe<'a> = (&'a [CounterRequest], Option<u64>, u64);

/// Check that two collection recipes line up — the precondition for
/// folding their events together. Works on header fields alone, so a
/// packed store never needs decoding to be checked.
fn check_compatible_headers(a: Recipe<'_>, b: Recipe<'_>) -> Result<(), StoreError> {
    let ((counters_a, period_a, hz_a), (counters_b, period_b, hz_b)) = (a, b);
    if counters_a != counters_b {
        return Err(StoreError::Incompatible(format!(
            "counter sets differ: {counters_a:?} vs {counters_b:?}"
        )));
    }
    if period_a != period_b {
        return Err(StoreError::Incompatible(format!(
            "clock profiling differs: {period_a:?} vs {period_b:?}"
        )));
    }
    if hz_a != hz_b {
        return Err(StoreError::Incompatible(format!(
            "clock rates differ: {hz_a} vs {hz_b}"
        )));
    }
    Ok(())
}

/// An experiment's collection recipe.
fn recipe(e: &Experiment) -> Recipe<'_> {
    (&e.counters, e.clock_period, e.run.clock_hz)
}

/// Merge already-loaded experiments collected with the same recipe
/// into one. Events concatenate in argument order (per-experiment
/// order is preserved), the run summaries sum and the logs
/// concatenate, so merging is associative. The result is an ordinary
/// [`Experiment`], so every analyzer view works on it unchanged, and
/// per-function / per-data-object totals equal the element-wise sum of
/// the inputs' individual analyses. Stacks are interned into one
/// table, so this is an independent oracle for
/// [`merge_experiments`] and [`merge_streams`]: they agree on every
/// event and its frames, not on stack numbering.
pub fn merge_loaded(exps: &[Experiment]) -> Result<Experiment, StoreError> {
    let first = exps
        .first()
        .ok_or(StoreError::Incompatible("nothing to merge".to_string()))?;
    for other in &exps[1..] {
        check_compatible_headers(recipe(first), recipe(other))?;
    }
    let mut merged = Experiment {
        counters: first.counters.clone(),
        clock_period: first.clock_period,
        run: dict::merged_run(first.counters.len(), exps.iter().map(|e| &e.run)),
        ..Experiment::default()
    };
    let mut table = CallstackTable::new();
    for exp in exps {
        let mut intern = |id: StackId| table.intern(&exp.stacks[id as usize]);
        for &e in &exp.hwc_events {
            let stack = intern(e.stack);
            merged.hwc_events.push(PackedHwcEvent { stack, ..e });
        }
        for &e in &exp.clock_events {
            let stack = intern(e.stack);
            merged.clock_events.push(PackedClockEvent { stack, ..e });
        }
        merged.log.extend(exp.log.iter().cloned());
    }
    merged.stacks = table.into_stacks();
    Ok(merged)
}

/// Load and merge a set of experiment references (text directories or
/// packed stores, freely mixed) into one experiment, in memory. The
/// references decode one per available core on scoped threads, which
/// is where all per-event decoding happens; the fold concatenates the
/// stack tables and moves the events. The result holds the events and
/// frames of loading every input and calling [`merge_loaded`], and is
/// what decoding [`merge_streams`] over the same inputs gives, field
/// for field.
pub fn merge_experiments(refs: &[ExperimentRef]) -> Result<Experiment, StoreError> {
    dict::merge_inputs(dict::load_inputs(refs)?)
}

/// Compare two experiments collected with the same recipe: open both
/// sides ([`ExperimentRef::open_stream`]), then [`diff_streams`].
/// Render the result with [`AggDiff::render`] or, with a symbol table,
/// [`AggDiff::render_by_function`].
///
/// `_shards` is ignored: the fold is serial and [`diff_streams`] sizes
/// its own threads to the machine. The argument stays only because the
/// `mp-bench` benchmark calls this with `0`, and its sources change
/// only with the benchmark itself.
pub fn diff_experiments(
    a: &ExperimentRef,
    b: &ExperimentRef,
    _shards: usize,
) -> Result<AggDiff, StoreError> {
    diff_streams(&a.open_stream()?, &b.open_stream()?)
}

/// Compare two opened experiments collected with the same recipe:
/// aggregate each side, the two sides concurrently when there is more
/// than one core, and diff the per-PC histograms.
pub fn diff_streams(a: &StreamFile, b: &StreamFile) -> Result<AggDiff, StoreError> {
    // Compatibility is a header property, checked before any event
    // chunk is decoded.
    check_compatible_headers(a.recipe(), b.recipe())?;
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let aggregate_one = |s: &StreamFile| aggregate_streams(std::slice::from_ref(s));
    let (agg_a, agg_b) = if hw > 1 {
        // The two sides are independent; aggregate them concurrently.
        std::thread::scope(|scope| {
            let hb = scope.spawn(|| aggregate_one(b));
            (aggregate_one(a), hb.join().unwrap())
        })
    } else {
        (aggregate_one(a), aggregate_one(b))
    };
    diff_aggregates(&agg_a?, &agg_b?)
}

/// Convenience for tools: aggregate whatever `refs` point at, each
/// opened once as a stream ([`ExperimentRef::open_stream`]).
///
/// `_shards` is ignored: the fold runs on the calling thread. The
/// argument stays only because the `mp-bench` benchmark calls this
/// with `0`, and its sources change only with the benchmark itself.
pub fn aggregate_refs(refs: &[ExperimentRef], _shards: usize) -> Result<Aggregate, StoreError> {
    let streams = refs
        .iter()
        .map(ExperimentRef::open_stream)
        .collect::<Result<Vec<StreamFile>, StoreError>>()?;
    aggregate_streams(&streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memprof_core::CounterRequest;
    use simsparc_machine::CounterEvent;

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

    /// Two experiments hold the same events with the same frames,
    /// however their stack tables are numbered.
    fn assert_same_events(a: &Experiment, b: &Experiment) {
        assert_eq!(hwc_frames(a), hwc_frames(b));
        assert_eq!(clock_frames(a), clock_frames(b));
    }

    /// Two experiments equal field for field: the same stacks, ids,
    /// events, run and log.
    fn assert_identical(a: &Experiment, b: &Experiment) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.clock_period, b.clock_period);
        assert_eq!(a.stacks, b.stacks);
        assert_eq!(a.hwc_events, b.hwc_events);
        assert_eq!(a.clock_events, b.clock_events);
        assert_eq!(a.run, b.run);
        assert_eq!(a.log, b.log);
    }

    pub(crate) fn sample_experiment() -> Experiment {
        Experiment {
            counters: vec![
                CounterRequest {
                    event: CounterEvent::ECStallCycles,
                    backtrack: true,
                    interval: 1009,
                },
                CounterRequest {
                    event: CounterEvent::DTLBMiss,
                    backtrack: false,
                    interval: 53,
                },
            ],
            clock_period: Some(10007),
            // Numbered as a collector numbers them when a clock tick
            // meets a stack first, with one stack listed twice and one
            // unused — all legal, none visible in what the events mean.
            stacks: vec![
                vec![0x1000_0010],
                vec![],
                vec![0x1000_0010, 0x1000_0200],
                vec![0xdead],
                vec![0x1000_0010],
            ],
            hwc_events: vec![
                PackedHwcEvent {
                    counter: 0,
                    delivered_pc: 0x1000_31b8,
                    candidate_pc: Some(0x1000_31b0),
                    ea: Some(0x4000_0038),
                    stack: 2,
                    truth_trigger_pc: 0x1000_31b0,
                    truth_ea: Some(0x4000_0038),
                    truth_skid: 2,
                },
                PackedHwcEvent {
                    counter: 1,
                    delivered_pc: 0x1000_31d8,
                    candidate_pc: None,
                    ea: None,
                    stack: 1,
                    truth_trigger_pc: 0x1000_31d4,
                    truth_ea: None,
                    truth_skid: 1,
                },
                PackedHwcEvent {
                    counter: 0,
                    delivered_pc: 0x1000_31b8,
                    candidate_pc: Some(0x1000_31b0),
                    ea: Some(0x4000_0110),
                    stack: 4,
                    truth_trigger_pc: 0x1000_31b4,
                    truth_ea: Some(0x4000_0110),
                    truth_skid: 1,
                },
            ],
            clock_events: vec![
                PackedClockEvent {
                    pc: 0x1000_31d8,
                    stack: 0,
                },
                PackedClockEvent {
                    pc: 0x1000_31b8,
                    stack: 1,
                },
            ],
            run: memprof_core::RunInfo {
                exit_code: 0,
                output: "cost 42\n".to_string(),
                counts: simsparc_machine::EventCounts {
                    cycles: 1_000_000,
                    insts: 400_000,
                    ec_stall_cycles: 250_000,
                    dtlb_miss: 1_200,
                    ..Default::default()
                },
                clock_hz: 900_000_000,
                dropped: vec![3, 0],
            },
            log: vec!["0 collect start".to_string(), "1000000 exit 0".to_string()],
        }
    }

    #[test]
    fn pack_round_trips_losslessly() {
        let exp = sample_experiment();
        let attachments = vec![("syms.txt".to_string(), "module m 1 1\n".to_string())];
        let bytes = pack_experiment(&exp, &attachments);
        assert!(bytes.starts_with(b"MPES\x03"));
        let store = StreamFile::from_bytes(bytes.clone()).unwrap();
        assert!(store.is_complete());
        assert_eq!(store.attachments(), &attachments[..]);
        let back = store.to_experiment().unwrap();
        assert_eq!(back.counters, exp.counters);
        assert_eq!(back.clock_period, exp.clock_period);
        assert_same_events(&back, &exp);
        assert_eq!(back.run, exp.run);
        assert_eq!(back.log, exp.log);
        // Packing renumbers in first use, hwc before clock, and drops
        // the duplicate and the unused stack.
        assert_eq!(
            back.stacks,
            vec![vec![0x1000_0010, 0x1000_0200], vec![], vec![0x1000_0010]]
        );
        assert_eq!(pack_experiment(&back, &attachments), bytes);
    }

    #[test]
    fn packed_is_smaller_than_text() {
        let exp = sample_experiment();
        let dir = scratch_path("size");
        exp.save(&dir).unwrap();
        let text_size: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        std::fs::remove_dir_all(&dir).ok();
        let packed = pack_experiment(&exp, &[]);
        assert!(
            (packed.len() as u64) < text_size,
            "packed {} vs text {text_size}",
            packed.len()
        );
    }

    #[test]
    fn packing_chunks_events_and_interns_each_stack_once() {
        let mut exp = sample_experiment();
        let chunk = memprof_core::StreamConfig::default().spill_events;
        let template = exp.hwc_events[0];
        let base = exp.stacks.len() as u32;
        exp.stacks
            .extend((0..3).map(|k| vec![0x1000_0010, 0x1000_0200 + k]));
        exp.hwc_events = (0..2 * chunk + 3)
            .map(|i| PackedHwcEvent {
                delivered_pc: 0x1000_0000 + 4 * i as u64,
                stack: base + (i % 3) as u32,
                ..template
            })
            .collect();
        let bytes = pack_experiment(&exp, &[]);
        let store = StreamFile::from_bytes(bytes.clone()).unwrap();
        assert_eq!(store.hwc_total(), exp.hwc_events.len());
        assert_eq!(store.clock_count(), exp.clock_events.len());
        assert_same_events(&store.to_experiment().unwrap(), &exp);
        // Three hwc chunks and one clock chunk; stacks only where new
        // ones first appear (the first hwc chunk and the clock chunk).
        let kinds = chunk_kinds(&bytes);
        assert_eq!(kinds, [0, 1, 2, 2, 2, 1, 3, 4]);
    }

    /// The kind byte of every chunk in an `MPES` image, in file order.
    fn chunk_kinds(bytes: &[u8]) -> Vec<u8> {
        let mut kinds = Vec::new();
        let mut pos = format::PREAMBLE_LEN;
        while pos < bytes.len() {
            kinds.push(bytes[pos]);
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
            pos += format::CHUNK_HEADER_LEN + len as usize;
        }
        kinds
    }

    #[test]
    fn merge_requires_matching_recipes() {
        let a = sample_experiment();
        let mut b = sample_experiment();
        b.counters[0].interval = 997;
        assert!(matches!(
            merge_loaded(&[a, b]),
            Err(StoreError::Incompatible(_))
        ));
        assert!(matches!(
            merge_loaded(&[]),
            Err(StoreError::Incompatible(_))
        ));
    }

    #[test]
    fn merge_concatenates_and_sums() {
        let a = sample_experiment();
        let b = sample_experiment();
        let m = merge_loaded(&[a.clone(), b]).unwrap();
        assert_eq!(m.hwc_events.len(), 2 * a.hwc_events.len());
        assert_eq!(m.clock_events.len(), 2 * a.clock_events.len());
        assert_eq!(m.run.counts.cycles, 2 * a.run.counts.cycles);
        assert_eq!(m.run.dropped, vec![6, 0]);
    }

    #[test]
    fn dict_merge_matches_load_then_merge_loaded() {
        use memprof_core::CollectSink as _;
        let exp = sample_experiment();

        // Input 1: text directory (loading interns, hwc lines first).
        let dir = scratch_path("dictmerge_text");
        exp.save(&dir).unwrap();

        // Input 2: packed store (numbered in pack order).
        let packed = scratch_path("dictmerge_packed");
        std::fs::write(&packed, pack_experiment(&exp, &[])).unwrap();

        // Input 3: a stream file carrying the same events, written
        // through the collector's sink in one segment per kind, with
        // the sample's table reversed — so the three inputs hold the
        // same stacks under different ids.
        let n = exp.stacks.len() as u32;
        let reversed: Vec<Vec<u64>> = exp.stacks.iter().rev().cloned().collect();
        let hwc: Vec<PackedHwcEvent> = exp
            .hwc_events
            .iter()
            .map(|ev| PackedHwcEvent {
                stack: n - 1 - ev.stack,
                ..*ev
            })
            .collect();
        let clock: Vec<PackedClockEvent> = exp
            .clock_events
            .iter()
            .map(|ev| PackedClockEvent {
                stack: n - 1 - ev.stack,
                ..*ev
            })
            .collect();
        let mut w = SegmentWriter::new(Vec::new());
        w.begin(&exp.counters, exp.clock_period, exp.run.clock_hz)
            .unwrap();
        w.stacks(&reversed).unwrap();
        w.hwc_segment(&hwc).unwrap();
        w.clock_segment(&clock).unwrap();
        w.finish(&exp.run, &exp.log).unwrap();
        let stream = scratch_path("dictmerge_stream");
        std::fs::write(&stream, w.into_inner()).unwrap();

        let refs = vec![
            ExperimentRef::TextDir(dir.clone()),
            ExperimentRef::Packed(packed.clone()),
            ExperimentRef::Packed(stream.clone()),
        ];
        let loaded: Vec<Experiment> = refs.iter().map(|r| r.load().unwrap()).collect();
        let oracle = merge_loaded(&loaded).unwrap();
        // The same fold over the images: its decode is the in-memory
        // fold's result, field for field.
        let streams: Vec<StreamFile> = refs.iter().map(|r| r.open_stream().unwrap()).collect();
        let concatenated = StreamFile::from_bytes(merge_streams(&streams).unwrap())
            .unwrap()
            .to_experiment()
            .unwrap();
        let merged = merge_experiments(&refs).unwrap();
        assert_eq!(merged.counters, oracle.counters);
        assert_eq!(merged.clock_period, oracle.clock_period);
        assert_same_events(&merged, &oracle);
        assert_eq!(merged.run, oracle.run);
        assert_eq!(merged.log, oracle.log);
        // The fold concatenates tables: duplicates stay.
        assert_eq!(
            merged.stacks.len(),
            loaded.iter().map(|e| e.stacks.len()).sum::<usize>()
        );
        assert_eq!(pack_experiment(&merged, &[]), pack_experiment(&oracle, &[]));
        assert_identical(&merged, &concatenated);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&packed).ok();
        std::fs::remove_file(&stream).ok();
    }

    #[test]
    fn serial_and_parallel_aggregation_agree() {
        // The in-memory oracle against the streamed path every tool
        // and tier runs, over the packed images of the same inputs.
        let a = sample_experiment();
        let mut b = sample_experiment();
        b.counters.swap(0, 1);
        for e in &mut b.hwc_events {
            e.counter = 1 - e.counter;
        }
        let views: Vec<&Experiment> = vec![&a, &b, &a];
        let oracle = aggregate(&views).unwrap();
        let streams: Vec<StreamFile> = views
            .iter()
            .map(|e| StreamFile::from_bytes(pack_experiment(e, &[])).unwrap())
            .collect();
        let streamed = aggregate_streams(&streams).unwrap();
        assert_eq!(streamed.columns, oracle.columns);
        assert_eq!(streamed.pc_samples, oracle.pc_samples);
        assert_eq!(streamed.totals, oracle.totals);
        assert_eq!(streamed.render(), oracle.render());
        assert_eq!(streamed.stat_json(None), oracle.stat_json(None));
    }

    #[test]
    fn diff_reports_moved_pcs_only() {
        let a = sample_experiment();
        let mut b = sample_experiment();
        b.hwc_events.push(PackedHwcEvent {
            counter: 1,
            delivered_pc: 0x1000_4000,
            candidate_pc: None,
            ea: None,
            stack: 1,
            truth_trigger_pc: 0x1000_4000,
            truth_ea: None,
            truth_skid: 0,
        });
        let agg_a = aggregate(&[&a]).unwrap();
        let agg_b = aggregate(&[&b]).unwrap();
        let diff = diff_aggregates(&agg_a, &agg_b).unwrap();
        assert_eq!(diff.rows.len(), 1);
        assert_eq!(diff.rows[0].pc, 0x1000_4000);
        // Identical sides diff to nothing.
        let same = diff_aggregates(&agg_a, &agg_a).unwrap();
        assert!(same.rows.is_empty());
    }
}
