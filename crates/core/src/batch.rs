//! The columnar event pipeline: one batch representation and one
//! group-by kernel shared by every consumer of profile events.
//!
//! The analyzer's views (functions, PCs, source lines, data objects,
//! address buckets) and the store's multi-experiment histograms all
//! reduce the same event stream; [`EventBatch`] holds that stream
//! once, as parallel arrays (struct-of-arrays), and
//! [`aggregate_by`] folds it under any [`GroupKey`].
//!
//! The fold is a radix-partition group-by, not a per-event hash
//! fold: the keyer first materializes a *key column* (one raw `u64`
//! per kept row, [`GroupKey::key_column`]), shards deal their rows
//! into partitions by a bit-mixed key prefix, partitions fold in
//! parallel through open-addressing tables with one flat sample
//! array (no per-key allocation), and the raw groups are decoded
//! back to typed keys once per *group* ([`GroupKey::decode_key`]),
//! not once per event. Keyers without a raw encoding (ad-hoc
//! closures) ride a generic variant of the same shape over
//! materialized typed keys. Addition commutes, so every shard count
//! produces output *identical* to [`aggregate_by_serial`] — the
//! one-pass oracle fold kept for differential testing — not merely
//! equivalent.
//!
//! Two producer profiles fill batches:
//!
//! * **Attributed** batches (built by `analyze::Analysis`): every row
//!   carries the §2.3 validation verdict ([`AttrTag`]), an interned
//!   data-object descriptor, the enclosing function id, the source
//!   line, and the `(experiment, event)` provenance for callstack
//!   access. Descriptors and function names are interned — the
//!   batch's symbol side-tables — so rows are fixed-width integers.
//! * **Plain** batches (built by [`EventBatch::push_plain`], the
//!   store's streaming readers): only the charged PC, delivered PC,
//!   candidate PC, and effective address, with the enrichment arrays
//!   left empty. Accessors return sentinels for the missing columns.
//!
//! A batch must be filled by exactly one of the two profiles; mixing
//! them would misalign the arrays.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use minic::MemDesc;

use crate::analyze::{Attribution, UnknownKind};

/// Sentinel for "no id" in the `u32` columns (function, descriptor).
pub const NO_ID: u32 = u32::MAX;
/// Sentinel for "no address" in the `u64` columns (candidate PC, EA).
pub const NO_ADDR: u64 = u64::MAX;
/// Sentinel for "no source line" (distinct from a recorded line 0).
pub const NO_LINE: u32 = u32::MAX;

/// The §2.3 validation verdict of one event, as a fixed-width column
/// value. `Unknown(Unresolvable)` rows are the *artificial* rows —
/// either no candidate was found or a branch target blocked the
/// backtracking — exactly the rows [`Attribution::is_artificial`]
/// flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AttrTag {
    /// No backtracking (or a clock tick): charged to the delivered PC.
    Plain = 0,
    /// Validated candidate with a data-object descriptor.
    Data = 1,
    UnkUnspecified = 2,
    UnkUnresolvable = 3,
    UnkUnascertainable = 4,
    UnkUnidentified = 5,
    UnkUnverifiable = 6,
}

impl AttrTag {
    pub fn from_unknown(kind: UnknownKind) -> AttrTag {
        match kind {
            UnknownKind::Unspecified => AttrTag::UnkUnspecified,
            UnknownKind::Unresolvable => AttrTag::UnkUnresolvable,
            UnknownKind::Unascertainable => AttrTag::UnkUnascertainable,
            UnknownKind::Unidentified => AttrTag::UnkUnidentified,
            UnknownKind::Unverifiable => AttrTag::UnkUnverifiable,
        }
    }

    /// The §3.2.5 taxonomy entry, for the `Unk*` tags.
    pub fn unknown_kind(self) -> Option<UnknownKind> {
        match self {
            AttrTag::Plain | AttrTag::Data => None,
            AttrTag::UnkUnspecified => Some(UnknownKind::Unspecified),
            AttrTag::UnkUnresolvable => Some(UnknownKind::Unresolvable),
            AttrTag::UnkUnascertainable => Some(UnknownKind::Unascertainable),
            AttrTag::UnkUnidentified => Some(UnknownKind::Unidentified),
            AttrTag::UnkUnverifiable => Some(UnknownKind::Unverifiable),
        }
    }
}

/// One fully-attributed row, as pushed by the analyzer.
#[derive(Clone, Debug)]
pub struct BatchEvent {
    pub col: usize,
    /// The PC the metric is charged to (possibly artificial).
    pub pc: u64,
    pub delivered_pc: u64,
    pub candidate_pc: Option<u64>,
    pub ea: Option<u64>,
    pub tag: AttrTag,
    /// Interned descriptor id ([`EventBatch::intern_desc`]) for
    /// `Data` rows, [`NO_ID`] otherwise.
    pub desc: u32,
    /// Index into the symbol table's function list, [`NO_ID`] if the
    /// charged PC is outside every function.
    pub func: u32,
    /// Source line of the charged PC, [`NO_LINE`] if unmapped.
    pub line: u32,
    /// (experiment index, event index, is-clock-tick) provenance.
    pub src: (usize, usize, bool),
}

/// The columnar event stream: one value per event in each array.
#[derive(Clone, Debug, Default)]
pub struct EventBatch {
    ncols: usize,
    /// Metric column of each event.
    pub col: Vec<u32>,
    /// Charged PC (the attributed — possibly artificial — PC).
    pub pc: Vec<u64>,
    pub delivered_pc: Vec<u64>,
    /// Candidate trigger PC, [`NO_ADDR`] when backtracking found none.
    pub candidate_pc: Vec<u64>,
    /// Reconstructed effective address, [`NO_ADDR`] if none.
    pub ea: Vec<u64>,
    pub tag: Vec<AttrTag>,
    /// Interned descriptor ids (attributed batches only).
    pub desc: Vec<u32>,
    /// Enclosing-function ids (attributed batches only).
    pub func: Vec<u32>,
    /// Source lines (attributed batches only).
    pub line: Vec<u32>,
    /// Provenance: experiment index (attributed batches only).
    pub src_exp: Vec<u32>,
    /// Provenance: event index within the experiment.
    pub src_idx: Vec<u32>,
    /// Provenance: clock tick (`true`) or hwc event (`false`).
    pub src_clock: Vec<bool>,
    /// The interned descriptor pool `desc` indexes into.
    pub descs: Vec<MemDesc>,
}

impl EventBatch {
    pub fn new(ncols: usize) -> EventBatch {
        EventBatch {
            ncols,
            ..EventBatch::default()
        }
    }

    pub fn len(&self) -> usize {
        self.col.len()
    }

    pub fn is_empty(&self) -> bool {
        self.col.is_empty()
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Intern a data-object descriptor, returning its pool id. The
    /// pool is scanned linearly — distinct descriptors are bounded by
    /// the program text, not the event count, and callers memoize by
    /// attribution key.
    pub fn intern_desc(&mut self, desc: &MemDesc) -> u32 {
        match self.descs.iter().position(|d| d == desc) {
            Some(i) => i as u32,
            None => {
                self.descs.push(desc.clone());
                (self.descs.len() - 1) as u32
            }
        }
    }

    /// Push one fully-attributed row (analyzer profile).
    pub fn push(&mut self, ev: BatchEvent) {
        self.col.push(ev.col as u32);
        self.pc.push(ev.pc);
        self.delivered_pc.push(ev.delivered_pc);
        self.candidate_pc.push(ev.candidate_pc.unwrap_or(NO_ADDR));
        self.ea.push(ev.ea.unwrap_or(NO_ADDR));
        self.tag.push(ev.tag);
        self.desc.push(ev.desc);
        self.func.push(ev.func);
        self.line.push(ev.line);
        self.src_exp.push(ev.src.0 as u32);
        self.src_idx.push(ev.src.1 as u32);
        self.src_clock.push(ev.src.2);
    }

    /// Pre-size every attributed-profile column for `additional` more
    /// rows, so an analyzer fill never reallocates mid-way.
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_plain(additional);
        self.desc.reserve(additional);
        self.func.reserve(additional);
        self.line.reserve(additional);
        self.src_exp.reserve(additional);
        self.src_idx.reserve(additional);
        self.src_clock.reserve(additional);
    }

    /// Push one bare histogram row (store profile): no attribution,
    /// no enrichment columns.
    pub fn push_plain(
        &mut self,
        col: usize,
        charged_pc: u64,
        delivered_pc: u64,
        candidate_pc: Option<u64>,
        ea: Option<u64>,
    ) {
        debug_assert!(self.desc.is_empty(), "mixing plain and attributed rows");
        self.col.push(col as u32);
        self.pc.push(charged_pc);
        self.delivered_pc.push(delivered_pc);
        self.candidate_pc.push(candidate_pc.unwrap_or(NO_ADDR));
        self.ea.push(ea.unwrap_or(NO_ADDR));
        self.tag.push(AttrTag::Plain);
    }

    /// Bulk-append `n` plain rows and hand back the new region of
    /// each varying column for direct writes: `(col, pc,
    /// delivered_pc, candidate_pc, ea)`. `tag` is pre-filled
    /// [`AttrTag::Plain`] and the candidate and ea columns
    /// [`NO_ADDR`], so fills only write what varies — one resize per
    /// column replaces `n` per-event pushes.
    #[allow(clippy::type_complexity)]
    pub fn grow_plain(
        &mut self,
        n: usize,
    ) -> (&mut [u32], &mut [u64], &mut [u64], &mut [u64], &mut [u64]) {
        debug_assert!(self.desc.is_empty(), "mixing plain and attributed rows");
        let start = self.col.len();
        self.col.resize(start + n, 0);
        self.pc.resize(start + n, 0);
        self.delivered_pc.resize(start + n, 0);
        self.candidate_pc.resize(start + n, NO_ADDR);
        self.ea.resize(start + n, NO_ADDR);
        self.tag.resize(start + n, AttrTag::Plain);
        (
            &mut self.col[start..],
            &mut self.pc[start..],
            &mut self.delivered_pc[start..],
            &mut self.candidate_pc[start..],
            &mut self.ea[start..],
        )
    }

    /// Bulk-append `n` rows of the *pc projection* — the column
    /// subset a per-PC histogram reads (`col`, charged `pc`, `tag`) —
    /// and hand back the new `col` and `pc` regions. The remaining
    /// plain columns (`delivered_pc`, `candidate_pc`, `ea`) are never
    /// materialized: a projected batch exists to feed [`aggregate_by`]
    /// with a PC keyer, and writing three dead columns per event is
    /// most of a plain fill's memory traffic. Keyers that read the
    /// unprojected columns must not be run over a projected batch.
    pub fn grow_pc_rows(&mut self, n: usize) -> (&mut [u32], &mut [u64]) {
        debug_assert!(self.desc.is_empty(), "mixing plain and attributed rows");
        let start = self.col.len();
        self.col.resize(start + n, 0);
        self.pc.resize(start + n, 0);
        self.tag.resize(start + n, AttrTag::Plain);
        (&mut self.col[start..], &mut self.pc[start..])
    }

    /// Pre-size the plain columns for `additional` more rows. Bulk
    /// decode paths size batches from segment-index counts up front,
    /// so the column vectors never reallocate mid-fill.
    pub fn reserve_plain(&mut self, additional: usize) {
        self.col.reserve(additional);
        self.pc.reserve(additional);
        self.delivered_pc.reserve(additional);
        self.candidate_pc.reserve(additional);
        self.ea.reserve(additional);
        self.tag.reserve(additional);
    }

    /// Re-charge a row range to the candidate trigger PC where one
    /// was recorded — the backtracked-counter half of the charge-PC
    /// rule, applied column-wise after a bulk decode that charged
    /// everything to the delivered PC.
    pub fn charge_candidates(&mut self, range: Range<usize>) {
        for i in range {
            if self.candidate_pc[i] != NO_ADDR {
                self.pc[i] = self.candidate_pc[i];
            }
        }
    }

    pub fn ea_of(&self, i: usize) -> Option<u64> {
        match self.ea[i] {
            NO_ADDR => None,
            ea => Some(ea),
        }
    }

    pub fn candidate_of(&self, i: usize) -> Option<u64> {
        match self.candidate_pc[i] {
            NO_ADDR => None,
            pc => Some(pc),
        }
    }

    /// Enclosing-function id, [`NO_ID`] for plain batches.
    pub fn func_of(&self, i: usize) -> u32 {
        self.func.get(i).copied().unwrap_or(NO_ID)
    }

    /// Source line, `None` for unmapped PCs and plain batches.
    pub fn line_of(&self, i: usize) -> Option<u32> {
        match self.line.get(i).copied().unwrap_or(NO_LINE) {
            NO_LINE => None,
            l => Some(l),
        }
    }

    /// Provenance of an attributed row.
    pub fn src_of(&self, i: usize) -> (usize, usize, bool) {
        (
            self.src_exp[i] as usize,
            self.src_idx[i] as usize,
            self.src_clock[i],
        )
    }

    /// Was the row charged to an artificial `<branch target>` /
    /// unresolvable PC?
    pub fn is_artificial(&self, i: usize) -> bool {
        self.tag[i] == AttrTag::UnkUnresolvable
    }

    /// Reconstruct the full [`Attribution`] of an attributed row.
    pub fn attribution(&self, i: usize) -> Attribution {
        let pc = self.pc[i];
        match self.tag[i] {
            AttrTag::Plain => Attribution::Plain { pc },
            AttrTag::Data => Attribution::DataObject {
                pc,
                desc: self.descs[self.desc[i] as usize].clone(),
            },
            tag => Attribution::Unknown {
                pc,
                kind: tag.unknown_kind().unwrap(),
            },
        }
    }

    /// Total sample count per column.
    pub fn totals(&self) -> Vec<u64> {
        let mut t = vec![0u64; self.ncols];
        for &c in &self.col {
            t[c as usize] += 1;
        }
        t
    }
}

/// A grouping key for [`aggregate_by`]: maps a batch row to the key
/// its sample accumulates under, or `None` to skip the row. Closures
/// `Fn(&EventBatch, usize) -> Option<K>` implement this directly.
///
/// Keyers whose key fits a raw `u64` additionally implement the bulk
/// [`GroupKey::key_column`] / [`GroupKey::decode_key`] pair, which
/// routes [`aggregate_by`] onto the radix-partition fast path: the
/// key column is materialized range-wise, rows are partitioned and
/// folded on the raw value alone, and typed keys are reconstructed
/// once per distinct group.
pub trait GroupKey {
    type Key: Hash + Eq + Clone + Send;
    fn key(&self, batch: &EventBatch, i: usize) -> Option<Self::Key>;

    /// Bulk keying: append one entry per row of `range` to `out`
    /// (`None` for skipped rows) and return `true`. The default
    /// returns `false` — no raw encoding — routing [`aggregate_by`]
    /// onto the generic materialized-key path. Implementations must
    /// agree with [`GroupKey::key`]: `key(batch, i)` is `Some(k)`
    /// exactly when the column holds `Some(raw)` at that row with
    /// `decode_key(batch, raw) == k`.
    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        let _ = (batch, range, out);
        false
    }

    /// Decode a raw value produced by [`GroupKey::key_column`] back
    /// into the typed key. Called once per distinct group, only with
    /// values the key column yielded.
    fn decode_key(&self, batch: &EventBatch, raw: u64) -> Self::Key {
        let _ = (batch, raw);
        unreachable!("decode_key on a keyer without a raw key column")
    }

    /// Borrow a batch column that *is* the raw key column: one raw
    /// value per row with no skipped rows. When a keyer can return
    /// one, the fold reads the batch's own array directly instead of
    /// materializing 16-byte `Option<u64>` entries per row — on a
    /// per-PC histogram that materialization is a full extra pass of
    /// memory traffic. Must agree with [`GroupKey::key_column`]:
    /// `dense_keys(batch)[i]` equals the raw value `key_column` would
    /// yield for row `i`, for every row.
    fn dense_keys<'a>(&self, batch: &'a EventBatch) -> Option<&'a [u64]> {
        let _ = batch;
        None
    }
}

impl<K, F> GroupKey for F
where
    K: Hash + Eq + Clone + Send,
    F: Fn(&EventBatch, usize) -> Option<K>,
{
    type Key = K;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<K> {
        self(batch, i)
    }
}

/// Group by charged PC.
pub struct ByPc;

impl GroupKey for ByPc {
    type Key = u64;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        Some(batch.pc[i])
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        out.extend(batch.pc[range].iter().copied().map(Some));
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u64 {
        raw
    }

    fn dense_keys<'a>(&self, batch: &'a EventBatch) -> Option<&'a [u64]> {
        Some(&batch.pc)
    }
}

/// Group by enclosing-function id ([`NO_ID`] = outside any function).
pub struct ByFunc;

impl GroupKey for ByFunc {
    type Key = u32;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u32> {
        Some(batch.func_of(i))
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        if batch.func.is_empty() {
            // Plain batch: every row is outside any function.
            out.extend(range.map(|_| Some(NO_ID as u64)));
        } else {
            out.extend(batch.func[range].iter().map(|&f| Some(f as u64)));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u32 {
        raw as u32
    }
}

/// Group by (function id, source line); rows without a line are
/// skipped.
pub struct ByLine;

impl GroupKey for ByLine {
    type Key = (u32, u32);

    fn key(&self, batch: &EventBatch, i: usize) -> Option<(u32, u32)> {
        Some((batch.func_of(i), batch.line_of(i)?))
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        if batch.line.is_empty() {
            // Plain batch: no source lines, every row skipped.
            out.extend(range.map(|_| None));
        } else {
            for i in range {
                let line = batch.line[i];
                out.push((line != NO_LINE).then(|| ((batch.func[i] as u64) << 32) | line as u64));
            }
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> (u32, u32) {
        ((raw >> 32) as u32, raw as u32)
    }
}

/// Group by interned data-object descriptor id (`Data` rows only).
pub struct ByDesc;

impl GroupKey for ByDesc {
    type Key = u32;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u32> {
        (batch.tag[i] == AttrTag::Data).then(|| batch.desc[i])
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        for i in range {
            out.push((batch.tag[i] == AttrTag::Data).then(|| batch.desc[i] as u64));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u32 {
        raw as u32
    }
}

/// Group by effective-address bucket (page, cache line): `ea`
/// truncated to a power-of-two bucket size. Rows without an EA are
/// skipped.
pub struct ByAddrBucket {
    pub bytes: u64,
}

impl GroupKey for ByAddrBucket {
    type Key = u64;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        debug_assert!(self.bytes.is_power_of_two());
        Some(batch.ea_of(i)? & !(self.bytes - 1))
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        debug_assert!(self.bytes.is_power_of_two());
        let mask = !(self.bytes - 1);
        out.extend(
            batch.ea[range]
                .iter()
                .map(|&ea| (ea != NO_ADDR).then_some(ea & mask)),
        );
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u64 {
        raw
    }
}

/// Group by charged PC restricted to one function's text range,
/// split by artificiality — the keyer behind annotated disassembly.
pub struct ByPcInRange {
    pub entry: u64,
    pub end: u64,
    /// Keep only artificial (`<branch target>`) rows when set, only
    /// real rows otherwise.
    pub artificial: bool,
}

impl GroupKey for ByPcInRange {
    type Key = u64;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        let pc = batch.pc[i];
        (batch.is_artificial(i) == self.artificial && pc >= self.entry && pc < self.end)
            .then_some(pc)
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        for i in range {
            out.push(self.key(batch, i));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u64 {
        raw
    }
}

/// Group by source line for PCs within one function's text range —
/// the keyer behind annotated source listings.
pub struct ByLineInRange {
    pub entry: u64,
    pub end: u64,
}

impl GroupKey for ByLineInRange {
    type Key = u32;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<u32> {
        let pc = batch.pc[i];
        if pc >= self.entry && pc < self.end {
            batch.line_of(i)
        } else {
            None
        }
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        for i in range {
            out.push(self.key(batch, i).map(u64::from));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> u32 {
        raw as u32
    }
}

/// Serial group-by fold: one pass over the batch, one sample-count
/// vector per key, driven by per-row [`GroupKey::key`] calls. This is
/// the *oracle* path: it never touches the key-column machinery, so
/// differential tests pin the radix kernel against it.
pub fn aggregate_by_serial<G: GroupKey>(
    batch: &EventBatch,
    keyer: &G,
) -> HashMap<G::Key, Vec<u64>> {
    let ncols = batch.ncols();
    let mut map: HashMap<G::Key, Vec<u64>> = HashMap::new();
    for i in 0..batch.len() {
        if let Some(k) = keyer.key(batch, i) {
            map.entry(k).or_insert_with(|| vec![0; ncols])[batch.col[i] as usize] += 1;
        }
    }
    map
}

/// `splitmix64` finalizer. Raw keys are low-entropy (small interned
/// ids, word-aligned PCs, bucket bases), so both the partition index
/// (top bits) and the probe slot (bottom bits) come from the mixed
/// value, never the raw one.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Partition index of a raw key: the top `log2(parts)` bits of the
/// mixed key. `parts` must be a power of two.
#[inline]
fn part_of(raw: u64, parts: usize) -> usize {
    debug_assert!(parts.is_power_of_two());
    if parts == 1 {
        0
    } else {
        (mix(raw) >> (64 - parts.trailing_zeros())) as usize
    }
}

/// How many radix partitions a fold uses: the shard count rounded up
/// to a power of two (so the partition index is a bit prefix), capped
/// to keep tiny partitions from dominating at silly shard counts.
fn partition_count(shards: usize) -> usize {
    shards.next_power_of_two().min(256)
}

/// How many rows one morsel claims. Matches the serial path's block
/// size: big enough that the claim (one `fetch_add`) is noise, small
/// enough that a straggler thread holds at most one morsel of work
/// while its peers sit idle.
const MORSEL_ROWS: usize = 1 << 16;

/// One worker's rows, dealt into per-partition `(raw key, column)`
/// runs. Workers claim morsels off a shared cursor, so which rows a
/// worker saw is nondeterministic — but addition commutes, so the
/// fold's output never depends on the claim order.
struct WorkerPartitions {
    parts: Vec<Vec<(u64, u32)>>,
}

/// Phase 1 of the raw fold, run by each worker thread: claim morsels
/// off the shared row cursor until the batch is exhausted,
/// materialize each morsel's key column (or borrow the batch's own
/// array on the dense path), and deal kept rows into per-partition
/// runs.
fn partition_morsels<G: GroupKey>(
    batch: &EventBatch,
    keyer: &G,
    cursor: &AtomicUsize,
    nparts: usize,
) -> WorkerPartitions {
    let len = batch.len();
    let dense = keyer.dense_keys(batch);
    let mut parts: Vec<Vec<(u64, u32)>> = (0..nparts).map(|_| Vec::new()).collect();
    let mut keys: Vec<Option<u64>> = Vec::new();
    loop {
        let lo = cursor.fetch_add(MORSEL_ROWS, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        let hi = (lo + MORSEL_ROWS).min(len);
        if let Some(col) = dense {
            for (&raw, &c) in col[lo..hi].iter().zip(&batch.col[lo..hi]) {
                parts[part_of(raw, nparts)].push((raw, c));
            }
        } else {
            keys.clear();
            let raw_ok = keyer.key_column(batch, lo..hi, &mut keys);
            debug_assert!(raw_ok, "raw fold on a keyer without a key column");
            for (key, &c) in keys.iter().zip(&batch.col[lo..hi]) {
                if let Some(raw) = *key {
                    parts[part_of(raw, nparts)].push((raw, c));
                }
            }
        }
    }
    WorkerPartitions { parts }
}

/// Open-addressing fold table keyed by raw values. Group indices live
/// in the slot array, sample counts in one flat row-major array — no
/// per-group allocation. The table is sized by the number of
/// *distinct groups* (grown by rehashing the compact raw list), never
/// by the entry count: group counts are thousands where entry counts
/// are millions, and a group-sized table stays cache-resident while
/// an entry-sized one makes every probe a memory stall.
struct RawTable {
    slots: Vec<u32>,
    raws: Vec<u64>,
    samples: Vec<u64>,
    ncols: usize,
}

impl RawTable {
    fn new(ncols: usize) -> RawTable {
        RawTable::with_groups_hint(ncols, 0)
    }

    /// Size the slot array for an expected distinct-group count so
    /// a fold over a known-large partition skips the early rehash
    /// ladder. The hint is a ceiling estimate, not a promise — the
    /// table still grows normally past it.
    fn with_groups_hint(ncols: usize, groups: usize) -> RawTable {
        let slots = (groups.max(1) * 2).next_power_of_two().clamp(1024, 1 << 17);
        RawTable {
            slots: vec![u32::MAX; slots],
            raws: Vec::new(),
            samples: Vec::new(),
            ncols,
        }
    }

    #[inline]
    fn add(&mut self, raw: u64, col: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = mix(raw) as usize & mask;
        let group = loop {
            match self.slots[slot] {
                u32::MAX => {
                    let g = self.raws.len() as u32;
                    self.slots[slot] = g;
                    self.raws.push(raw);
                    self.samples.resize(self.samples.len() + self.ncols, 0);
                    if self.raws.len() * 2 >= self.slots.len() {
                        self.grow();
                    }
                    break g;
                }
                g if self.raws[g as usize] == raw => break g,
                _ => slot = (slot + 1) & mask,
            }
        };
        self.samples[group as usize * self.ncols + col as usize] += 1;
    }

    /// Double the slot array and rehash from the compact raw list —
    /// linear in groups, not entries.
    #[cold]
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![u32::MAX; cap];
        for (g, &raw) in self.raws.iter().enumerate() {
            let mut slot = mix(raw) as usize & mask;
            while slots[slot] != u32::MAX {
                slot = (slot + 1) & mask;
            }
            slots[slot] = g as u32;
        }
        self.slots = slots;
    }
}

/// Phase 2 of the raw fold, run once per partition: fold the
/// partition's entries from every worker through a [`RawTable`]. Each
/// partition owns a disjoint key range, so there is no
/// cross-partition synchronization. The table is pre-sized from the
/// partition's entry count (a distinct-group ceiling).
fn fold_partition(workers: &[WorkerPartitions], p: usize, ncols: usize) -> (Vec<u64>, Vec<u64>) {
    let total: usize = workers.iter().map(|w| w.parts[p].len()).sum();
    if total == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut table = RawTable::with_groups_hint(ncols, total / 4);
    for worker in workers {
        for &(raw, col) in &worker.parts[p] {
            table.add(raw, col);
        }
    }
    (table.raws, table.samples)
}

/// The radix-partition fold for keyers with a raw `u64` encoding.
fn aggregate_raw<G>(batch: &EventBatch, keyer: &G, shards: usize) -> HashMap<G::Key, Vec<u64>>
where
    G: GroupKey + Sync,
{
    let len = batch.len();
    let ncols = batch.ncols();
    if shards == 1 {
        // Inline fold: with a single worker the partition deal would
        // only copy the rows it is about to fold, so the partition
        // phase is skipped entirely. On the dense path the batch's
        // own key array feeds the table directly; otherwise the key
        // column materializes in cache-sized blocks and each block
        // folds while still warm — a full-length key vector would
        // make a round trip through memory just to be read back once.
        let mut table = RawTable::new(ncols);
        if let Some(col) = keyer.dense_keys(batch) {
            for (&raw, &c) in col.iter().zip(&batch.col) {
                table.add(raw, c);
            }
            return decode_folded(batch, keyer, &[(table.raws, table.samples)], ncols);
        }
        let mut keys: Vec<Option<u64>> = Vec::with_capacity(MORSEL_ROWS.min(len));
        let mut lo = 0;
        while lo < len {
            let hi = (lo + MORSEL_ROWS).min(len);
            keys.clear();
            let raw = keyer.key_column(batch, lo..hi, &mut keys);
            debug_assert!(raw, "raw fold on a keyer without a key column");
            for (key, &col) in keys.iter().zip(&batch.col[lo..hi]) {
                if let Some(raw) = *key {
                    table.add(raw, col);
                }
            }
            lo = hi;
        }
        return decode_folded(batch, keyer, &[(table.raws, table.samples)], ncols);
    }
    let nparts = partition_count(shards);
    let workers: Vec<WorkerPartitions> = {
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|_| scope.spawn(move || partition_morsels(batch, keyer, cursor, nparts)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    // Fold partitions with the same work-stealing shape: `shards`
    // threads claim partition indices off a cursor, so an unlucky
    // thread stuck with the hottest partition doesn't serialize the
    // rest behind it.
    let folded: Vec<(Vec<u64>, Vec<u64>)> = {
        let workers = &workers;
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let mut folded: Vec<(Vec<u64>, Vec<u64>)> =
            (0..nparts).map(|_| (Vec::new(), Vec::new())).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards.min(nparts))
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let p = cursor.fetch_add(1, Ordering::Relaxed);
                            if p >= nparts {
                                break;
                            }
                            mine.push((p, fold_partition(workers, p, ncols)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (p, r) in h.join().unwrap() {
                    folded[p] = r;
                }
            }
        });
        folded
    };
    decode_folded(batch, keyer, &folded, ncols)
}

/// Decode once per group. Addition on collision keeps the fold
/// correct even for a non-injective decode (several raw values
/// mapping to one typed key).
fn decode_folded<G: GroupKey>(
    batch: &EventBatch,
    keyer: &G,
    folded: &[(Vec<u64>, Vec<u64>)],
    ncols: usize,
) -> HashMap<G::Key, Vec<u64>> {
    let mut out: HashMap<G::Key, Vec<u64>> =
        HashMap::with_capacity(folded.iter().map(|(raws, _)| raws.len()).sum());
    for (raws, samples) in folded {
        for (g, &raw) in raws.iter().enumerate() {
            let row = &samples[g * ncols..(g + 1) * ncols];
            match out.entry(keyer.decode_key(batch, raw)) {
                Entry::Occupied(mut e) => {
                    for (dst, src) in e.get_mut().iter_mut().zip(row) {
                        *dst += src;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(row.to_vec());
                }
            }
        }
    }
    out
}

/// Deterministic partition hash for typed keys (the generic path
/// can't partition on raw bits it doesn't have).
fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Phase 1 of the generic fold, run by each worker thread: claim
/// morsels off the shared row cursor, materialize the typed keys,
/// and deal the kept rows into per-partition buckets by mixed hash.
fn generic_morsels<G: GroupKey>(
    batch: &EventBatch,
    keyer: &G,
    cursor: &AtomicUsize,
    parts: usize,
) -> Vec<Vec<(G::Key, u32)>> {
    let len = batch.len();
    let mut buckets: Vec<Vec<(G::Key, u32)>> = (0..parts).map(|_| Vec::new()).collect();
    loop {
        let lo = cursor.fetch_add(MORSEL_ROWS, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        let hi = (lo + MORSEL_ROWS).min(len);
        for i in lo..hi {
            if let Some(k) = keyer.key(batch, i) {
                let p = part_of(key_hash(&k), parts);
                buckets[p].push((k, batch.col[i]));
            }
        }
    }
    buckets
}

/// One shard's output in the generic fold: for each partition, the
/// `(key, column)` pairs of the shard's rows that hashed into it.
type PartitionedKeys<K> = Vec<Vec<(K, u32)>>;

/// Phase 2 of the generic fold: one partition's buckets from every
/// shard, folded into a map.
fn fold_generic<K: Hash + Eq>(buckets: Vec<Vec<(K, u32)>>, ncols: usize) -> HashMap<K, Vec<u64>> {
    let mut map: HashMap<K, Vec<u64>> = HashMap::new();
    for bucket in buckets {
        for (k, col) in bucket {
            map.entry(k).or_insert_with(|| vec![0; ncols])[col as usize] += 1;
        }
    }
    map
}

/// The partitioned fold for keyers without a raw encoding: same
/// shape as the raw path (materialize keys per shard, partition,
/// fold partitions in parallel), but over typed keys.
fn aggregate_generic<G>(batch: &EventBatch, keyer: &G, shards: usize) -> HashMap<G::Key, Vec<u64>>
where
    G: GroupKey + Sync,
{
    let ncols = batch.ncols();
    let parts = partition_count(shards);
    let shard_buckets: Vec<PartitionedKeys<G::Key>> = if shards == 1 {
        let cursor = AtomicUsize::new(0);
        vec![generic_morsels(batch, keyer, &cursor, parts)]
    } else {
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|_| scope.spawn(move || generic_morsels(batch, keyer, cursor, parts)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    // Transpose so each partition owns its buckets from every shard.
    let mut by_part: Vec<PartitionedKeys<G::Key>> =
        (0..parts).map(|_| Vec::with_capacity(shards)).collect();
    for shard in shard_buckets {
        for (p, bucket) in shard.into_iter().enumerate() {
            by_part[p].push(bucket);
        }
    }
    let maps: Vec<HashMap<G::Key, Vec<u64>>> = if shards == 1 {
        by_part
            .into_iter()
            .map(|buckets| fold_generic(buckets, ncols))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = by_part
                .into_iter()
                .map(|buckets| scope.spawn(move || fold_generic(buckets, ncols)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    // A key lands in exactly one partition (the partition is a
    // function of its hash), so this union is disjoint; merge by
    // addition anyway so correctness never rests on that.
    let mut out: HashMap<G::Key, Vec<u64>> =
        HashMap::with_capacity(maps.iter().map(HashMap::len).sum());
    for map in maps {
        for (k, samples) in map {
            match out.entry(k) {
                Entry::Occupied(mut e) => {
                    for (dst, src) in e.get_mut().iter_mut().zip(&samples) {
                        *dst += src;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(samples);
                }
            }
        }
    }
    out
}

/// Floor on rows per worker thread: below this, spawn + join costs
/// more than the fold itself, so the shard count is clamped until
/// every worker has at least this many rows to chew on.
pub const MIN_ROWS_PER_SHARD: usize = 8192;

/// Resolve a requested shard count against the machine and the
/// workload: `0` means "auto", any request is capped by
/// [`std::thread::available_parallelism`] (threads beyond the core
/// count only add spawn and scheduling overhead), and the result is
/// clamped so every worker gets at least [`MIN_ROWS_PER_SHARD`] rows.
/// On a single-core host this resolves every request to 1 — the
/// sharded fold's output is identical anyway, so only wall clock
/// changes.
pub fn effective_shards(requested: usize, rows: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let capped = match requested {
        0 => hw,
        n => n.min(hw),
    };
    capped.min(rows / MIN_ROWS_PER_SHARD).max(1)
}

/// The group-by kernel behind every analyzer view and store
/// histogram: a morsel-driven radix-partition fold over a
/// materialized key column. The shard count is resolved through
/// [`effective_shards`] — `0` picks the available parallelism, and
/// any count is capped by the core count and a min-rows floor so
/// small batches and single-core hosts never pay spawn overhead.
/// Every shard count produces output identical to
/// [`aggregate_by_serial`]'s.
pub fn aggregate_by<G>(batch: &EventBatch, keyer: &G, shards: usize) -> HashMap<G::Key, Vec<u64>>
where
    G: GroupKey + Sync,
{
    aggregate_by_exact(batch, keyer, effective_shards(shards, batch.len()))
}

/// [`aggregate_by`] with the shard count honored exactly (only
/// clamped to the row count): differential tests use this to drive
/// the multi-worker morsel paths regardless of the host's core
/// count. Production callers want [`aggregate_by`].
pub fn aggregate_by_exact<G>(
    batch: &EventBatch,
    keyer: &G,
    shards: usize,
) -> HashMap<G::Key, Vec<u64>>
where
    G: GroupKey + Sync,
{
    let shards = shards.max(1).min(batch.len().max(1));
    let mut probe = Vec::new();
    if keyer.key_column(batch, 0..0, &mut probe) {
        aggregate_raw(batch, keyer, shards)
    } else {
        aggregate_generic(batch, keyer, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(n: usize) -> EventBatch {
        let mut b = EventBatch::new(3);
        for i in 0..n {
            b.push_plain(
                i % 3,
                0x1000 + (i as u64 % 17) * 4,
                0x1000 + i as u64 * 4,
                (i % 2 == 0).then_some(0x1000 + (i as u64 % 17) * 4),
                (i % 5 != 0).then_some(0x4000_0000 + (i as u64 % 29) * 8),
            );
        }
        b
    }

    #[test]
    fn serial_and_sharded_agree_on_every_key() {
        let b = bag(1000);
        // `aggregate_by` resolves through effective_shards (0 = auto)
        // and may collapse to the inline fold on a small box;
        // `aggregate_by_exact` forces the multi-worker morsel path
        // even on a single-core host.
        for shards in [0, 1, 2, 3, 7, 16] {
            assert_eq!(
                aggregate_by(&b, &ByPc, shards),
                aggregate_by_serial(&b, &ByPc)
            );
            assert_eq!(
                aggregate_by_exact(&b, &ByPc, shards),
                aggregate_by_serial(&b, &ByPc)
            );
            assert_eq!(
                aggregate_by_exact(&b, &ByAddrBucket { bytes: 64 }, shards),
                aggregate_by_serial(&b, &ByAddrBucket { bytes: 64 })
            );
            assert_eq!(
                aggregate_by_exact(&b, &ByFunc, shards),
                aggregate_by_serial(&b, &ByFunc)
            );
        }
    }

    #[test]
    fn morsel_workers_agree_on_multi_morsel_batches() {
        // More rows than one morsel, so multi-worker runs exercise
        // real claim contention and per-worker partition runs.
        let b = bag(MORSEL_ROWS * 2 + 123);
        for shards in [2, 5] {
            assert_eq!(
                aggregate_by_exact(&b, &ByPc, shards),
                aggregate_by_serial(&b, &ByPc)
            );
        }
    }

    #[test]
    fn effective_shards_caps_by_floor_and_cores() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Tiny workloads stay serial no matter what was requested.
        assert_eq!(effective_shards(8, 100), 1);
        assert_eq!(effective_shards(0, 0), 1);
        // Huge workloads are capped by the core count.
        assert!(effective_shards(0, 100 * MIN_ROWS_PER_SHARD) <= hw);
        assert!(effective_shards(64, 100 * MIN_ROWS_PER_SHARD) <= hw);
        // A request never resolves above itself.
        assert!(effective_shards(2, 100 * MIN_ROWS_PER_SHARD) <= 2);
    }

    #[test]
    fn generic_fallback_agrees_with_serial() {
        let b = bag(1000);
        // A closure keyer has no raw key column, so this exercises
        // the generic materialized-key path.
        let keyer =
            |b: &EventBatch, i: usize| -> Option<u64> { (b.col[i] == 1).then(|| b.pc[i] & !0xf) };
        for shards in [0, 1, 2, 3, 7, 16] {
            assert_eq!(
                aggregate_by_exact(&b, &keyer, shards),
                aggregate_by_serial(&b, &keyer)
            );
        }
    }

    #[test]
    fn range_keyers_agree_with_serial() {
        let b = bag(1000);
        let by_pc_range = ByPcInRange {
            entry: 0x1008,
            end: 0x1030,
            artificial: false,
        };
        let by_line_range = ByLineInRange {
            entry: 0x1008,
            end: 0x1030,
        };
        for shards in [1, 3, 8] {
            assert_eq!(
                aggregate_by_exact(&b, &by_pc_range, shards),
                aggregate_by_serial(&b, &by_pc_range)
            );
            assert_eq!(
                aggregate_by_exact(&b, &by_line_range, shards),
                aggregate_by_serial(&b, &by_line_range)
            );
        }
    }

    #[test]
    fn key_columns_agree_with_per_row_keys() {
        // The key_column/decode_key contract: for every row, the
        // column's raw entry decodes to exactly key(batch, i).
        fn check<G: GroupKey>(b: &EventBatch, keyer: &G)
        where
            G::Key: std::fmt::Debug,
        {
            let mut col = Vec::new();
            assert!(keyer.key_column(b, 0..b.len(), &mut col));
            assert_eq!(col.len(), b.len());
            for (i, raw) in col.iter().enumerate() {
                assert_eq!(
                    raw.map(|r| keyer.decode_key(b, r)),
                    keyer.key(b, i),
                    "row {i}"
                );
            }
            // A dense column, when offered, must be the key column:
            // same raw value at every row, no skipped rows.
            if let Some(dense) = keyer.dense_keys(b) {
                assert_eq!(dense.len(), b.len());
                for (i, (&d, raw)) in dense.iter().zip(&col).enumerate() {
                    assert_eq!(Some(d), *raw, "dense row {i}");
                }
            }
        }
        let b = bag(300);
        check(&b, &ByPc);
        check(&b, &ByFunc);
        check(&b, &ByLine);
        check(&b, &ByDesc);
        check(&b, &ByAddrBucket { bytes: 64 });
        check(
            &b,
            &ByPcInRange {
                entry: 0x1008,
                end: 0x1030,
                artificial: false,
            },
        );
        check(
            &b,
            &ByLineInRange {
                entry: 0x1008,
                end: 0x1030,
            },
        );
    }

    #[test]
    fn totals_match_kernel_sums() {
        let b = bag(100);
        let map = aggregate_by_serial(&b, &ByPc);
        let mut t = vec![0u64; 3];
        for samples in map.values() {
            for (dst, s) in t.iter_mut().zip(samples) {
                *dst += s;
            }
        }
        assert_eq!(t, b.totals());
    }

    #[test]
    fn empty_batch_aggregates_to_nothing() {
        let b = EventBatch::new(2);
        assert!(aggregate_by(&b, &ByPc, 8).is_empty());
        assert_eq!(b.totals(), vec![0, 0]);
    }

    #[test]
    fn plain_accessors_return_sentinels() {
        let mut b = EventBatch::new(1);
        b.push_plain(0, 0x10, 0x14, None, None);
        assert_eq!(b.func_of(0), NO_ID);
        assert_eq!(b.line_of(0), None);
        assert_eq!(b.ea_of(0), None);
        assert_eq!(b.candidate_of(0), None);
        assert!(!b.is_artificial(0));
    }
}
