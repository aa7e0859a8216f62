//! Writing and reading `MPES` v3 files (see [`crate::format`] for the
//! layout).
//!
//! [`SegmentWriter`] is the collector's streaming sink: it appends one
//! self-delimiting, checksummed chunk per call and flushes after each,
//! so every completed segment is durable independently of the run's
//! fate. [`StreamFile`] is the one reader of any experiment, for
//! collector streams and packed stores alike, and for text directories
//! once [`crate::ExperimentRef::open_stream`] has packed them in
//! memory. It owns the whole image in a plain `Vec<u8>`; a file is
//! read with `std::fs::read`, which sizes the buffer from the file's
//! metadata. Opening walks the chunk framing and checksums, decodes
//! only the small HEADER and FOOTER chunks, and indexes the event
//! chunks. Two calls read events, each decoding the chunks straight
//! into its output: [`StreamFile::to_experiment`] builds the whole
//! experiment, and the attribution-key fold under
//! [`crate::pair_streams`] hands over each event's column and key
//! without the stacks. [`merge_streams`] writes one image from several
//! opened ones by copying their indexed chunks, checking their stack
//! tables and rewriting only the stack ids.
//!
//! Two error rules govern reading:
//!
//! * **Framing damage ends a readable prefix.** A chunk cut short or
//!   failing its checksum stops the walk; every chunk before it loads
//!   normally, [`StreamFile::truncation`] says why the walk stopped,
//!   and a missing footer yields a synthesized run summary. That is
//!   the crash-safety story: a run that dies mid-collection leaves a
//!   file whose intact chunks still analyze. Only a damaged preamble
//!   or header chunk loses the whole file.
//! * **Bad content is an error from the call that decodes it.** A
//!   checksum-valid chunk whose content fails a check — an unknown
//!   counter, an undefined stack id, trailing bytes — is
//!   [`StoreError::Corrupt`] from whichever call decodes that chunk:
//!   [`StreamFile::open`] for the header, footer and per-chunk event
//!   counts, the event-reading calls for everything else. The
//!   per-item loops carry a small `Copy` error; each chunk's decode
//!   turns it into that `StoreError`, naming the file, once.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use memprof_core::{
    attribution_key, CollectSink, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent,
    RunInfo, StackId,
};
use simsparc_machine::EventCounts;

use crate::dict::merged_run;
use crate::format::{
    chunk_checksum, get_footer, get_header, get_stacks, put_footer, put_header, put_stack,
    shift_stack_ids, ChunkDecoder, ChunkEncoder, Footer, Header, CHUNK_CLOCK, CHUNK_FOOTER,
    CHUNK_HEADER, CHUNK_HEADER_LEN, CHUNK_HWC, CHUNK_STACKS, CLOCK_COLUMNS, HWC_COLUMNS, MAGIC,
    PREAMBLE_LEN, VERSION,
};
use crate::varint::{put_u64, Cursor, DecodeError};
use crate::{check_compatible_headers, merged_attachments, Recipe, StoreError};

/// The collector's streaming sink: writes `MPES` v3 chunks through
/// any `Write`, flushing after every chunk so each completed segment
/// is durable independently of the run's fate.
pub struct SegmentWriter<W: Write> {
    out: W,
    bytes: u64,
    /// Auxiliary text files (`syms.txt`, `image.txt`) to pack into the
    /// footer; register them with [`SegmentWriter::attach`] before the
    /// run finishes.
    attachments: Vec<(String, String)>,
    /// Counters the header declares: the bound on an event's counter.
    n_counters: usize,
    /// Payload and column buffers, reused from chunk to chunk.
    payload: Vec<u8>,
    encoder: ChunkEncoder,
}

impl SegmentWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) a stream file on disk.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(SegmentWriter::new(std::io::BufWriter::new(f)))
    }
}

impl<W: Write> SegmentWriter<W> {
    /// Wrap a writer. Nothing is written until the collector calls
    /// `begin`.
    pub fn new(out: W) -> Self {
        SegmentWriter {
            out,
            bytes: 0,
            attachments: Vec::new(),
            n_counters: 0,
            payload: Vec::new(),
            encoder: ChunkEncoder::default(),
        }
    }

    /// Register an auxiliary text file to be stored in the footer.
    pub fn attach(&mut self, name: &str, contents: &str) {
        self.attachments
            .push((name.to_string(), contents.to_string()));
    }

    /// Unwrap the underlying writer (for in-memory sinks in tests).
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Borrow the underlying writer — a socket-backed sink needs the
    /// transport back after [`CollectSink::finish`] to run its
    /// end-of-stream acknowledgement.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Write the payload buffer as one chunk of `kind`.
    fn chunk(&mut self, kind: u8) -> std::io::Result<()> {
        let payload = &self.payload;
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "chunk exceeds 4 GiB")
        })?;
        let mut head = [0u8; CHUNK_HEADER_LEN];
        head[0] = kind;
        head[1..5].copy_from_slice(&len.to_le_bytes());
        head[5..13].copy_from_slice(&chunk_checksum(kind, len, payload).to_le_bytes());
        self.out.write_all(&head)?;
        self.out.write_all(payload)?;
        // One flush per chunk: a crash between chunks costs at most
        // the events still buffered in the collector.
        self.out.flush()?;
        self.bytes += (CHUNK_HEADER_LEN + payload.len()) as u64;
        Ok(())
    }
}

impl<W: Write> CollectSink for SegmentWriter<W> {
    fn begin(
        &mut self,
        counters: &[CounterRequest],
        clock_period: Option<u64>,
        clock_hz: u64,
    ) -> std::io::Result<()> {
        self.out.write_all(&MAGIC)?;
        self.out.write_all(&[VERSION])?;
        self.bytes += PREAMBLE_LEN as u64;
        self.n_counters = counters.len();
        self.payload.clear();
        put_header(&mut self.payload, counters, clock_period, clock_hz);
        self.chunk(CHUNK_HEADER)
    }

    fn stacks(&mut self, stacks: &[Vec<u64>]) -> std::io::Result<()> {
        self.payload.clear();
        put_u64(&mut self.payload, stacks.len() as u64);
        for s in stacks {
            put_stack(&mut self.payload, s);
        }
        self.chunk(CHUNK_STACKS)
    }

    fn hwc_segment(&mut self, events: &[PackedHwcEvent]) -> std::io::Result<()> {
        self.encoder
            .hwc(events, self.n_counters, &mut self.payload)?;
        self.chunk(CHUNK_HWC)
    }

    fn clock_segment(&mut self, events: &[PackedClockEvent]) -> std::io::Result<()> {
        self.encoder.clock(events, &mut self.payload);
        self.chunk(CHUNK_CLOCK)
    }

    fn finish(&mut self, run: &RunInfo, log: &[String]) -> std::io::Result<()> {
        self.payload.clear();
        put_footer(&mut self.payload, run, log, &self.attachments);
        self.chunk(CHUNK_FOOTER)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// One indexed STACKS, HWC or CLOCK chunk, still encoded.
struct Chunk {
    kind: u8,
    /// Where the chunk's payload starts: its leading count.
    start: usize,
    /// The chunk's items: its payload after the leading count.
    items: Range<usize>,
    count: usize,
    /// Stack ids the STACKS chunks before this one define.
    stacks: usize,
}

/// An `MPES` v3 file opened for reading: header and footer decoded,
/// event chunks indexed but still encoded (see the module docs for
/// what opening checks and the two error rules). It owns the whole
/// byte image.
pub struct StreamFile {
    bytes: Vec<u8>,
    /// Where the image came from, to name in decode errors.
    path: Option<PathBuf>,
    counters: Vec<CounterRequest>,
    clock_period: Option<u64>,
    chunks: Vec<Chunk>,
    hwc_total: usize,
    clock_total: usize,
    run: RunInfo,
    log: Vec<String>,
    attachments: Vec<(String, String)>,
    complete: bool,
    truncation: Option<&'static str>,
}

impl StreamFile {
    /// [`StreamFile::from_bytes`] on the file's contents. Errors — from
    /// opening and from every later decode — name `path`.
    pub fn open(path: &Path) -> Result<StreamFile, StoreError> {
        use crate::PathContext as _;
        let bytes = std::fs::read(path)
            .map_err(StoreError::Io)
            .path_context(path)?;
        StreamFile::named(bytes, path)
    }

    /// [`StreamFile::from_bytes`] on an image read from, or packed from,
    /// `path`: errors from opening and from every later decode name it.
    pub(crate) fn named(bytes: Vec<u8>, path: &Path) -> Result<StreamFile, StoreError> {
        use crate::PathContext as _;
        let mut file = StreamFile::from_bytes(bytes).path_context(path)?;
        file.path = Some(path.to_path_buf());
        Ok(file)
    }

    /// Open a stream image. Fails only when the 5-byte preamble or the
    /// header chunk is unusable, or a chunk decoded here carries bad
    /// content; framing damage after the header turns into a readable
    /// prefix (see [`StreamFile::truncation`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<StreamFile, StoreError> {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() > MAGIC.len() && bytes[MAGIC.len()] != VERSION {
            return Err(StoreError::BadVersion(bytes[MAGIC.len()]));
        }
        if bytes.len() < PREAMBLE_LEN {
            return Err(StoreError::Truncated);
        }

        let mut pos = PREAMBLE_LEN;
        let mut header: Option<Header> = None;
        let mut footer: Option<Footer> = None;
        let mut chunks = Vec::new();
        let (mut stacks, mut hwc_total, mut clock_total) = (0, 0, 0);
        let mut truncation: Option<&'static str> = None;
        while pos < bytes.len() {
            if bytes.len() - pos < CHUNK_HEADER_LEN {
                truncation = Some("truncated chunk header");
                break;
            }
            let kind = bytes[pos];
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
            let stored = u64::from_le_bytes(bytes[pos + 5..pos + 13].try_into().unwrap());
            let start = pos + CHUNK_HEADER_LEN;
            let Some(end) = start
                .checked_add(len as usize)
                .filter(|&end| end <= bytes.len())
            else {
                truncation = Some("chunk extends past end of file");
                break;
            };
            let payload = &bytes[start..end];
            if chunk_checksum(kind, len, payload) != stored {
                truncation = Some("chunk checksum mismatch");
                break;
            }
            pos = end;
            match kind {
                CHUNK_HEADER if header.is_none() => header = Some(get_header(payload)?),
                CHUNK_HEADER => return Err(StoreError::Corrupt("duplicate header chunk")),
                _ if header.is_none() => {
                    return Err(StoreError::Corrupt("first chunk is not the header"))
                }
                CHUNK_STACKS | CHUNK_HWC | CHUNK_CLOCK => {
                    // Every item takes at least one byte, which bounds
                    // the count (and any allocation sized from it).
                    let mut cur = Cursor::new(payload);
                    let count = cur.get_len(payload.len())?;
                    chunks.push(Chunk {
                        kind,
                        start,
                        items: end - cur.remaining()..end,
                        count,
                        stacks,
                    });
                    match kind {
                        CHUNK_STACKS => stacks += count,
                        CHUNK_HWC => hwc_total += count,
                        _ => clock_total += count,
                    }
                }
                CHUNK_FOOTER => {
                    let clock_hz = header.as_ref().map_or(0, |&(_, _, hz)| hz);
                    footer = Some(get_footer(payload, clock_hz)?);
                    break;
                }
                // Unknown chunk kinds are checksummed and
                // self-delimiting: skip them for forward compatibility.
                _ => {}
            }
        }

        // Without a usable header there is no readable prefix at all.
        let Some((counters, clock_period, clock_hz)) = header else {
            return Err(truncation
                .map(StoreError::Corrupt)
                .unwrap_or(StoreError::Truncated));
        };
        let complete = footer.is_some();
        let (run, log, attachments) = footer.unwrap_or_else(|| {
            // Interrupted run: no footer ever arrived. Synthesize a
            // summary so the prefix still analyzes.
            let run = RunInfo {
                exit_code: -1,
                output: String::new(),
                counts: EventCounts::default(),
                clock_hz,
                dropped: vec![0; counters.len()],
            };
            (run, Vec::new(), Vec::new())
        });
        Ok(StreamFile {
            bytes,
            path: None,
            counters,
            clock_period,
            chunks,
            hwc_total,
            clock_total,
            run,
            log,
            attachments,
            complete,
            truncation,
        })
    }

    pub fn counters(&self) -> &[CounterRequest] {
        &self.counters
    }

    pub fn clock_period(&self) -> Option<u64> {
        self.clock_period
    }

    pub(crate) fn recipe(&self) -> Recipe<'_> {
        (&self.counters, self.clock_period, self.run.clock_hz)
    }

    pub fn run(&self) -> &RunInfo {
        &self.run
    }

    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Auxiliary text files (`syms.txt`, `image.txt`) from the footer.
    pub fn attachments(&self) -> &[(String, String)] {
        &self.attachments
    }

    pub fn attachment(&self, name: &str) -> Option<&str> {
        self.attachments
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }

    /// Did the file end with a footer chunk (clean collector exit)?
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Why the chunk walk stopped early, if it did. A truncated tail
    /// after a clean footer is not reported — the experiment is whole.
    pub fn truncation(&self) -> Option<&'static str> {
        self.truncation
    }

    /// Counter events in the readable prefix, from the chunk index.
    pub fn hwc_total(&self) -> usize {
        self.hwc_total
    }

    /// Clock ticks in the readable prefix, from the chunk index.
    pub fn clock_count(&self) -> usize {
        self.clock_total
    }

    /// The whole image, as read or packed.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The log as the decode gives it: the footer's lines, then, for
    /// an interrupted run, a line recording why the stream ended early.
    fn decoded_log(&self) -> impl Iterator<Item = String> + '_ {
        let early = self
            .truncation
            .map(|why| format!("stream ended early: {why}"));
        self.log.iter().cloned().chain(early)
    }

    /// `e`, naming the file the image came from.
    fn error_at(&self, e: StoreError) -> StoreError {
        match &self.path {
            Some(path) => e.at(path),
            None => e,
        }
    }

    /// Run one indexed chunk's decode over its items. The per-item
    /// loops inside carry a [`DecodeError`]; this turns it into a
    /// `StoreError` naming the file, once per chunk.
    fn decode(
        &self,
        chunk: &Chunk,
        body: impl FnOnce(&[u8]) -> Result<(), DecodeError>,
    ) -> Result<(), StoreError> {
        body(&self.bytes[chunk.items.clone()]).map_err(|e| self.error_at(e.into()))
    }

    /// Decode one HWC chunk, checking each event against the recipe's
    /// counters and the stacks defined before the chunk.
    fn hwc_chunk(
        &self,
        chunk: &Chunk,
        dec: &mut ChunkDecoder,
        f: impl FnMut(usize, PackedHwcEvent),
    ) -> Result<(), StoreError> {
        let n_counters = self.counters.len();
        self.decode(chunk, |items| {
            dec.hwc(items, chunk.count, n_counters, chunk.stacks, f)
        })
    }

    /// Decode one CLOCK chunk, checking each tick's stack id.
    fn clock_chunk(
        &self,
        chunk: &Chunk,
        dec: &mut ChunkDecoder,
        f: impl FnMut(usize, PackedClockEvent),
    ) -> Result<(), StoreError> {
        self.decode(chunk, |items| {
            dec.clock(items, chunk.count, chunk.stacks, f)
        })
    }

    /// Hand every event's column, attribution key and effective
    /// address to `f`, in chunk order: counter `c`'s events go to
    /// column `hwc_col[c]` keyed by [`memprof_core::attribution_key`],
    /// and clock ticks, which carry no address, to `clock_col` keyed
    /// `(None, pc)`. This is the one chunk walk under the store's folds:
    /// [`crate::pair_streams`] ignores the address, and
    /// [`crate::address_streams`] buckets it. Each HWC and CLOCK chunk
    /// is decoded once and checked exactly as
    /// [`StreamFile::to_experiment`] checks it (ticks too when
    /// `clock_col` is `None`, which then reach no column); no STACKS
    /// chunk is decoded.
    pub(crate) fn fold_keys(
        &self,
        hwc_col: &[usize],
        clock_col: Option<usize>,
        mut f: impl FnMut(usize, (Option<u64>, u64), Option<u64>),
    ) -> Result<(), StoreError> {
        let mut dec = ChunkDecoder::default();
        for c in &self.chunks {
            match c.kind {
                CHUNK_HWC => self.hwc_chunk(c, &mut dec, |_, ev| {
                    let backtrack = self.counters[ev.counter].backtrack;
                    f(hwc_col[ev.counter], attribution_key(&ev, backtrack), ev.ea);
                })?,
                CHUNK_CLOCK => self.clock_chunk(c, &mut dec, |_, ev| {
                    if let Some(k) = clock_col {
                        f(k, (None, ev.pc), None);
                    }
                })?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Decode the full in-memory [`Experiment`]: the STACKS chunks
    /// concatenate into its stack table, and events keep the file's
    /// stack ids, which are dense and cumulative and so index that
    /// table as they are. No stack is cloned per event. An interrupted
    /// run gains a log line recording why the stream ended early.
    pub fn to_experiment(&self) -> Result<Experiment, StoreError> {
        let mut stacks = Vec::new();
        let mut hwc_events = Vec::with_capacity(self.hwc_total);
        let mut clock_events = Vec::with_capacity(self.clock_total);
        let mut dec = ChunkDecoder::default();
        for c in &self.chunks {
            match c.kind {
                CHUNK_STACKS => self.decode(c, |items| get_stacks(items, c.count, &mut stacks))?,
                CHUNK_HWC => self.hwc_chunk(c, &mut dec, |_, e| hwc_events.push(e))?,
                // CHUNK_CLOCK, the only other kind the index holds.
                _ => self.clock_chunk(c, &mut dec, |_, e| clock_events.push(e))?,
            }
        }
        Ok(Experiment {
            counters: self.counters.clone(),
            clock_period: self.clock_period,
            stacks,
            hwc_events,
            clock_events,
            run: self.run.clone(),
            log: self.decoded_log().collect(),
        })
    }
}

/// Merge opened `MPES` images collected with one recipe into one
/// image, by the rule [`crate::merge_experiments`] folds decoded
/// experiments with. Every recipe is checked before any event is read.
/// After the first input's header, each input's indexed chunks follow
/// in order: STACKS chunks decoded to check them and copied unchanged,
/// and HWC and CLOCK chunks with only their stack-id column (the last)
/// rewritten, each id checked against the stacks its input defines
/// before the chunk and shifted past the stacks every earlier input
/// defines. The other event columns are copied undecoded, so a caller
/// checks them in inputs it did not write itself (with
/// [`crate::pair_streams`], say). Chunks of unknown kinds are
/// dropped, as the reader skips them. One footer closes the image: the
/// run summaries summed, the logs concatenated as each input's decode
/// gives them, and the attachments of the first input that carries any
/// ([`crate::merged_attachments`]). Decoding the output gives what
/// [`crate::merge_experiments`] gives for the same inputs, and the
/// merge is associative byte for byte:
/// `merge([merge([a, b]), c]) == merge([a, b, c])`.
pub fn merge_streams(inputs: &[StreamFile]) -> Result<Vec<u8>, StoreError> {
    let first = inputs
        .first()
        .ok_or_else(|| StoreError::Incompatible("nothing to merge".to_string()))?;
    for other in &inputs[1..] {
        check_compatible_headers(first.recipe(), other.recipe())?;
    }
    let mut w = SegmentWriter::new(Vec::with_capacity(
        inputs.iter().map(|f| f.bytes.len()).sum(),
    ));
    w.attachments = merged_attachments(inputs.iter().map(StreamFile::attachments));
    w.begin(&first.counters, first.clock_period, first.run.clock_hz)?;
    // Stacks the inputs before this one define: its ids' shift.
    let mut base: StackId = 0;
    // Where a STACKS chunk decodes to, only to check it.
    let mut stacks = Vec::new();
    for input in inputs {
        let defined: usize = input
            .chunks
            .iter()
            .filter(|c| c.kind == CHUNK_STACKS)
            .map(|c| c.count)
            .sum();
        let next = StackId::try_from(base as usize + defined).map_err(|_| {
            input.error_at(StoreError::Corrupt("merged stack table exceeds u32 ids"))
        })?;
        for c in &input.chunks {
            // A STACKS payload is checked, then copied whole; an event
            // chunk's leading count is copied as written, then its
            // columns with the ids shifted.
            let payload = &mut w.payload;
            payload.clear();
            if c.kind == CHUNK_STACKS {
                stacks.clear();
                input.decode(c, |items| get_stacks(items, c.count, &mut stacks))?;
                payload.extend_from_slice(&input.bytes[c.start..c.items.end]);
            } else {
                payload.extend_from_slice(&input.bytes[c.start..c.items.start]);
                let columns = if c.kind == CHUNK_HWC {
                    HWC_COLUMNS
                } else {
                    CLOCK_COLUMNS
                };
                input.decode(c, |items| {
                    shift_stack_ids(items, columns, c.count, c.stacks, base, payload)
                })?;
            }
            w.chunk(c.kind)?;
        }
        base = next;
    }
    let log: Vec<String> = inputs.iter().flat_map(StreamFile::decoded_log).collect();
    w.finish(
        &merged_run(first.counters.len(), inputs.iter().map(|f| &f.run)),
        &log,
    )?;
    Ok(w.into_inner())
}

/// Does this file have a readable prefix — an intact preamble and
/// header chunk? The `mp-serve` sealer uses this to validate an
/// arbitrarily large landed session in memory bounded by the header
/// chunk: it reads the preamble, the first chunk's 13-byte header and
/// that chunk's payload, and [`StreamFile::from_bytes`] on those bytes
/// gives the verdict. A first chunk that claims more bytes than the
/// file holds is refused before anything is allocated for it. A file
/// that passes can still fail [`StreamFile::open`], but only through
/// bad content in a later, checksum-valid chunk (the module docs'
/// second error rule).
///
/// Returns `Ok(false)` for an unreadable stream; I/O failures other
/// than the file being shorter than its own metadata claimed (a
/// concurrent truncation, which is just "unreadable") are `Err`.
pub fn validate_stream_prefix(path: &Path) -> Result<bool, StoreError> {
    let mut file = std::fs::File::open(path)?;
    let size = file.metadata()?.len();
    let mut read = |buf: &mut [u8]| match file.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(StoreError::Io(e)),
    };
    let head_len = PREAMBLE_LEN + CHUNK_HEADER_LEN;
    if size < head_len as u64 {
        return Ok(false);
    }
    let mut prefix = vec![0u8; head_len];
    if !read(&mut prefix)? {
        return Ok(false);
    }
    // Only a header chunk can open a stream, and only a payload the
    // file holds can complete one: check both before allocating it.
    let len = u32::from_le_bytes(
        prefix[PREAMBLE_LEN + 1..PREAMBLE_LEN + 5]
            .try_into()
            .unwrap(),
    );
    if prefix[PREAMBLE_LEN] != CHUNK_HEADER || u64::from(len) > size - head_len as u64 {
        return Ok(false);
    }
    prefix.resize(head_len + len as usize, 0);
    if !read(&mut prefix[head_len..])? {
        return Ok(false);
    }
    Ok(StreamFile::from_bytes(prefix).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsparc_machine::CounterEvent;

    fn sample_counters() -> Vec<CounterRequest> {
        vec![
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
        ]
    }

    fn sample_run() -> RunInfo {
        RunInfo {
            exit_code: 0,
            output: "cost 42\n".to_string(),
            counts: EventCounts {
                cycles: 1_000_000,
                insts: 400_000,
                ..Default::default()
            },
            clock_hz: 900_000_000,
            dropped: vec![3, 0],
        }
    }

    /// Write a small, fully populated stream into a byte buffer.
    fn sample_stream() -> Vec<u8> {
        let mut w = SegmentWriter::new(Vec::new());
        w.attach("syms.txt", "module m 1 1\n");
        w.begin(&sample_counters(), Some(10007), 900_000_000)
            .unwrap();
        w.stacks(&[vec![0x1000_0010, 0x1000_0200], vec![]]).unwrap();
        w.hwc_segment(&[
            PackedHwcEvent {
                counter: 0,
                delivered_pc: 0x1000_31b8,
                candidate_pc: Some(0x1000_31b0),
                ea: Some(0x4000_0038),
                stack: 0,
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
        ])
        .unwrap();
        w.stacks(&[vec![0x1000_0010]]).unwrap();
        w.clock_segment(&[PackedClockEvent {
            pc: 0x1000_31d8,
            stack: 2,
        }])
        .unwrap();
        w.finish(&sample_run(), &["0 collect start".to_string()])
            .unwrap();
        let bytes = w.out;
        assert_eq!(bytes.len() as u64, w.bytes);
        bytes
    }

    #[test]
    fn stream_round_trips() {
        let bytes = sample_stream();
        let f = StreamFile::from_bytes(bytes).unwrap();
        assert!(f.is_complete());
        assert_eq!(f.truncation(), None);
        assert_eq!(f.counters(), &sample_counters()[..]);
        assert_eq!(f.clock_period(), Some(10007));
        assert_eq!(f.run(), &sample_run());
        assert_eq!(f.log(), &["0 collect start".to_string()][..]);
        assert_eq!(f.attachment("syms.txt"), Some("module m 1 1\n"));
        assert_eq!(f.hwc_total(), 2);
        assert_eq!(f.clock_count(), 1);
        let exp = f.to_experiment().unwrap();
        assert_eq!(
            exp.stacks,
            vec![vec![0x1000_0010, 0x1000_0200], vec![], vec![0x1000_0010]]
        );
        assert_eq!(
            exp.hwc_events.iter().map(|e| e.stack).collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(exp.clock_events[0].stack, 2);
    }

    #[test]
    fn every_truncation_point_leaves_a_readable_prefix() {
        let bytes = sample_stream();
        // Find where the header chunk ends so prefixes beyond it are
        // expected to load.
        let header_len = {
            let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
            5 + CHUNK_HEADER_LEN + len
        };
        for cut in 0..bytes.len() {
            let prefix = bytes[..cut].to_vec();
            match StreamFile::from_bytes(prefix) {
                Ok(f) => {
                    assert!(cut >= header_len, "loaded without a full header at {cut}");
                    if cut < bytes.len() {
                        assert!(!f.is_complete(), "prefix at {cut} claims completeness");
                        // A synthesized run summary is still usable.
                        assert_eq!(f.run().dropped.len(), f.counters().len());
                    }
                    // Whatever loaded is internally consistent.
                    let exp = f.to_experiment().unwrap();
                    assert_eq!(exp.hwc_events.len(), f.hwc_total());
                    let mut folded = 0;
                    f.fold_keys(&[1, 2], Some(0), |_, _, _| folded += 1)
                        .unwrap();
                    assert_eq!(folded, f.hwc_total() + f.clock_count());
                }
                Err(e) => {
                    assert!(cut < header_len, "hard error {e} at offset {cut}");
                }
            }
        }
    }

    #[test]
    fn corrupt_tail_chunk_is_dropped_cleanly() {
        let mut bytes = sample_stream();
        // Flip a bit in the final (footer) chunk's payload.
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let f = StreamFile::from_bytes(bytes).unwrap();
        assert!(!f.is_complete());
        assert_eq!(f.truncation(), Some("chunk checksum mismatch"));
        // Events before the damaged chunk survive.
        assert_eq!(f.hwc_total(), 2);
        assert_eq!(f.clock_count(), 1);
    }

    #[test]
    fn damaged_header_is_a_hard_error() {
        let bytes = sample_stream();
        // Not a stream at all.
        assert!(matches!(
            StreamFile::from_bytes(b"NOPE".to_vec()),
            Err(StoreError::BadMagic)
        ));
        assert!(matches!(
            StreamFile::from_bytes(b"MPES\x07".to_vec()),
            Err(StoreError::BadVersion(7))
        ));
        assert!(matches!(
            StreamFile::from_bytes(b"MP".to_vec()),
            Err(StoreError::Truncated)
        ));
        // Preamble alone (no header chunk) is truncated, not usable.
        assert!(matches!(
            StreamFile::from_bytes(bytes[..5].to_vec()),
            Err(StoreError::Truncated)
        ));
    }

    /// The prefix validator's verdict on `bytes`, written to a file
    /// the way the sealer finds a landed session.
    fn streaming_verdict(bytes: &[u8]) -> bool {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "memprof_prefix_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let verdict = validate_stream_prefix(&path).unwrap();
        std::fs::remove_file(&path).ok();
        verdict
    }

    #[test]
    fn prefix_validator_matches_full_parse_at_every_cut() {
        let bytes = sample_stream();
        for cut in 0..=bytes.len() {
            assert_eq!(
                streaming_verdict(&bytes[..cut]),
                StreamFile::from_bytes(bytes[..cut].to_vec()).is_ok(),
                "verdicts diverge at cut {cut}"
            );
        }
    }

    #[test]
    fn prefix_validator_matches_full_parse_under_corruption() {
        let clean = sample_stream();
        // Flip one byte at a time across the preamble, the header
        // chunk, and the tail: the streaming verdict must track the
        // full open everywhere (accepting tail damage, rejecting
        // header damage).
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x55;
            assert_eq!(
                streaming_verdict(&bytes),
                StreamFile::from_bytes(bytes).is_ok(),
                "verdicts diverge with byte {i} flipped"
            );
        }
    }

    #[test]
    fn validate_stream_prefix_reads_files() {
        let path = std::env::temp_dir().join(format!("memprof_vsp_{}", std::process::id()));
        std::fs::write(&path, sample_stream()).unwrap();
        assert!(validate_stream_prefix(&path).unwrap());
        std::fs::write(&path, b"junk, not a stream").unwrap();
        assert!(!validate_stream_prefix(&path).unwrap());
        std::fs::write(&path, b"").unwrap();
        assert!(!validate_stream_prefix(&path).unwrap());
        // A header chunk claiming 4 GiB in a tiny file is refused
        // without reading (or allocating) its claimed payload.
        let mut overlong = sample_stream();
        overlong[PREAMBLE_LEN + 1..PREAMBLE_LEN + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &overlong).unwrap();
        assert!(!validate_stream_prefix(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn events_referencing_undefined_stacks_stop_the_parse() {
        let mut w = SegmentWriter::new(Vec::new());
        w.begin(&sample_counters(), None, 900_000_000).unwrap();
        // No stacks chunk: stack id 5 is undefined.
        w.hwc_segment(&[PackedHwcEvent {
            counter: 0,
            delivered_pc: 0x1000_0000,
            candidate_pc: None,
            ea: None,
            stack: 5,
            truth_trigger_pc: 0x1000_0000,
            truth_ea: None,
            truth_skid: 0,
        }])
        .unwrap();
        // The chunk is checksum-valid, so opening indexes it; the
        // calls that decode it report its bad content.
        let f = StreamFile::from_bytes(w.out).unwrap();
        assert_eq!(f.truncation(), None);
        let undefined = |r: Result<(), StoreError>| {
            matches!(
                r,
                Err(StoreError::Corrupt("event references undefined stack id"))
            )
        };
        assert!(undefined(f.to_experiment().map(drop)));
        assert!(undefined(f.fold_keys(&[0, 1], None, |_, _, _| {})));
    }
}
