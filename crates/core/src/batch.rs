//! The columnar event pipeline: one batch representation and one
//! group-by kernel shared by every consumer of profile events.
//!
//! The analyzer's views (functions, PCs, source lines, data objects,
//! address buckets) and the store's multi-experiment histograms all
//! reduce the same event stream; [`EventBatch`] holds that stream
//! once, as parallel arrays (struct-of-arrays), and
//! [`aggregate_by`] folds it under any [`GroupKey`].
//!
//! The fold is a raw-key group-by, not a per-event hash fold: the
//! keyer yields a *key column* (one raw `u64` per kept row,
//! [`GroupKey::key_column`]), one open-addressing table with one flat
//! sample array (no per-key allocation) folds it on the calling
//! thread, and the raw groups are decoded back to typed keys once per
//! *group* ([`GroupKey::decode_key`]), not once per event. Keyers
//! without a raw encoding (ad-hoc closures) fold through
//! [`aggregate_by_serial`], the one-pass oracle fold kept for
//! differential testing; every keyer's output is *identical* to that
//! oracle's — not merely equivalent.
//!
//! Every row is an attributed event ([`BatchEvent`], pushed by
//! `analyze::Analysis`): it carries the §2.3 validation verdict
//! ([`AttrTag`]), an interned data-object descriptor, the enclosing
//! function id, the source line, and the `(experiment, event)`
//! provenance for callstack access. Descriptors and function names
//! are interned — the batch's symbol side-tables — so rows are
//! fixed-width integers. The store's per-PC histograms fill only the
//! `col` and charged-PC columns of that shape
//! ([`EventBatch::grow_pc_rows`]); such a projected batch feeds PC
//! keyers alone and must not be mixed with attributed rows.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use minic::MemDesc;

use crate::analyze::{Attribution, UnknownKind};

/// Sentinel for "no id" in the `u32` columns (function, descriptor).
pub const NO_ID: u32 = u32::MAX;
/// Sentinel for "no address" in the effective-address column.
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
    /// Reconstructed effective address, [`NO_ADDR`] if none.
    pub ea: Vec<u64>,
    pub tag: Vec<AttrTag>,
    /// Interned descriptor ids.
    pub desc: Vec<u32>,
    /// Enclosing-function ids.
    pub func: Vec<u32>,
    /// Source lines.
    pub line: Vec<u32>,
    /// Provenance: experiment index.
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

    /// Push one attributed row.
    pub fn push(&mut self, ev: BatchEvent) {
        self.col.push(ev.col as u32);
        self.pc.push(ev.pc);
        self.ea.push(ev.ea.unwrap_or(NO_ADDR));
        self.tag.push(ev.tag);
        self.desc.push(ev.desc);
        self.func.push(ev.func);
        self.line.push(ev.line);
        self.src_exp.push(ev.src.0 as u32);
        self.src_idx.push(ev.src.1 as u32);
        self.src_clock.push(ev.src.2);
    }

    /// Pre-size every column for `additional` more rows, so an
    /// analyzer fill never reallocates mid-way.
    pub fn reserve(&mut self, additional: usize) {
        self.col.reserve(additional);
        self.pc.reserve(additional);
        self.ea.reserve(additional);
        self.tag.reserve(additional);
        self.desc.reserve(additional);
        self.func.reserve(additional);
        self.line.reserve(additional);
        self.src_exp.reserve(additional);
        self.src_idx.reserve(additional);
        self.src_clock.reserve(additional);
    }

    /// Bulk-append `n` rows of the *pc projection* — the column
    /// subset a per-PC histogram reads (`col`, charged `pc`, `tag`) —
    /// and hand back the new `col` and `pc` regions, so fills write
    /// what varies with one resize per column instead of `n` pushes.
    /// A projected batch exists to feed [`aggregate_by`] with a PC
    /// keyer; keyers that read any other column must not be run over
    /// it.
    pub fn grow_pc_rows(&mut self, n: usize) -> (&mut [u32], &mut [u64]) {
        debug_assert!(self.desc.is_empty(), "mixing projected and attributed rows");
        let start = self.col.len();
        self.col.resize(start + n, 0);
        self.pc.resize(start + n, 0);
        self.tag.resize(start + n, AttrTag::Plain);
        (&mut self.col[start..], &mut self.pc[start..])
    }

    pub fn ea_of(&self, i: usize) -> Option<u64> {
        match self.ea[i] {
            NO_ADDR => None,
            ea => Some(ea),
        }
    }

    /// Enclosing-function id, [`NO_ID`] outside every function.
    pub fn func_of(&self, i: usize) -> u32 {
        self.func[i]
    }

    /// Source line, `None` for unmapped PCs.
    pub fn line_of(&self, i: usize) -> Option<u32> {
        match self.line[i] {
            NO_LINE => None,
            l => Some(l),
        }
    }

    /// Provenance of a row.
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

    /// Reconstruct the full [`Attribution`] of a row.
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
/// routes [`aggregate_by`] onto its raw-table fold: the key column is
/// materialized block by block, rows fold on the raw value alone, and
/// typed keys are reconstructed once per distinct group.
pub trait GroupKey {
    type Key: Hash + Eq + Clone;
    fn key(&self, batch: &EventBatch, i: usize) -> Option<Self::Key>;

    /// Bulk keying: append one entry per row of `range` to `out`
    /// (`None` for skipped rows) and return `true`. The default
    /// returns `false` — no raw encoding — routing [`aggregate_by`]
    /// onto the [`aggregate_by_serial`] fold. Implementations must
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
    K: Hash + Eq + Clone,
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
        out.extend(batch.func[range].iter().map(|&f| Some(f as u64)));
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
        for i in range {
            let line = batch.line[i];
            out.push((line != NO_LINE).then(|| ((batch.func[i] as u64) << 32) | line as u64));
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
/// differential tests pin the raw-table kernel against it.
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
/// ids, word-aligned PCs, bucket bases), so the probe slot comes from
/// the mixed value's low bits, never the raw one's.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How many rows one materialized key-column block holds: big enough
/// that the per-block call is noise, small enough (1 MiB of
/// `Option<u64>`) that the block is still in cache when it folds.
const BLOCK_ROWS: usize = 1 << 16;

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
        RawTable {
            slots: vec![u32::MAX; 1024],
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

/// Decode once per group. Addition on collision keeps the fold
/// correct even for a non-injective decode (several raw values
/// mapping to one typed key).
fn decode_folded<G: GroupKey>(
    batch: &EventBatch,
    keyer: &G,
    table: &RawTable,
) -> HashMap<G::Key, Vec<u64>> {
    let ncols = table.ncols;
    let mut out: HashMap<G::Key, Vec<u64>> = HashMap::with_capacity(table.raws.len());
    for (g, &raw) in table.raws.iter().enumerate() {
        let row = &table.samples[g * ncols..(g + 1) * ncols];
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
    out
}

/// The group-by kernel behind every analyzer view and store
/// histogram, run on the calling thread. A keyer with a raw key
/// column folds through one open-addressing table: straight from the
/// batch's own array when [`GroupKey::dense_keys`] offers one,
/// otherwise from its key column materialized in 64k-row blocks, each
/// folded while still warm (a full-length key vector would make a
/// round trip through memory just to be read back once). Typed keys
/// are decoded once per group. Keyers without a key column (ad-hoc
/// closures) fold through [`aggregate_by_serial`], and the output is
/// identical to that oracle's for every keyer.
pub fn aggregate_by<G: GroupKey>(batch: &EventBatch, keyer: &G) -> HashMap<G::Key, Vec<u64>> {
    if !keyer.key_column(batch, 0..0, &mut Vec::new()) {
        return aggregate_by_serial(batch, keyer);
    }
    let mut table = RawTable::new(batch.ncols());
    if let Some(col) = keyer.dense_keys(batch) {
        for (&raw, &c) in col.iter().zip(&batch.col) {
            table.add(raw, c);
        }
    } else {
        let len = batch.len();
        let mut keys: Vec<Option<u64>> = Vec::with_capacity(BLOCK_ROWS.min(len));
        for lo in (0..len).step_by(BLOCK_ROWS) {
            let hi = (lo + BLOCK_ROWS).min(len);
            keys.clear();
            keyer.key_column(batch, lo..hi, &mut keys);
            for (key, &c) in keys.iter().zip(&batch.col[lo..hi]) {
                if let Some(raw) = *key {
                    table.add(raw, c);
                }
            }
        }
    }
    decode_folded(batch, keyer, &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(n: usize) -> EventBatch {
        let mut b = EventBatch::new(3);
        for i in 0..n {
            b.push(BatchEvent {
                col: i % 3,
                pc: 0x1000 + (i as u64 % 17) * 4,
                ea: (i % 5 != 0).then_some(0x4000_0000 + (i as u64 % 29) * 8),
                tag: AttrTag::Plain,
                desc: NO_ID,
                func: NO_ID,
                line: NO_LINE,
                src: (0, i, false),
            });
        }
        b
    }

    #[test]
    fn raw_table_fold_agrees_with_serial_on_every_key() {
        let b = bag(1000);
        assert_eq!(aggregate_by(&b, &ByPc), aggregate_by_serial(&b, &ByPc));
        let bucket = ByAddrBucket { bytes: 64 };
        assert_eq!(aggregate_by(&b, &bucket), aggregate_by_serial(&b, &bucket));
        assert_eq!(aggregate_by(&b, &ByFunc), aggregate_by_serial(&b, &ByFunc));
    }

    #[test]
    fn batches_longer_than_one_block_agree_with_serial() {
        // More rows than two key-column blocks, so the blocked fold
        // (ByAddrBucket) and the dense one (ByPc) each cross block
        // boundaries and a ragged last block.
        let b = bag(BLOCK_ROWS * 2 + 123);
        assert_eq!(aggregate_by(&b, &ByPc), aggregate_by_serial(&b, &ByPc));
        let bucket = ByAddrBucket { bytes: 64 };
        assert_eq!(aggregate_by(&b, &bucket), aggregate_by_serial(&b, &bucket));
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
        assert_eq!(
            aggregate_by(&b, &by_pc_range),
            aggregate_by_serial(&b, &by_pc_range)
        );
        assert_eq!(
            aggregate_by(&b, &by_line_range),
            aggregate_by_serial(&b, &by_line_range)
        );
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
        assert!(aggregate_by(&b, &ByPc).is_empty());
        assert_eq!(b.totals(), vec![0, 0]);
    }

    #[test]
    fn plain_accessors_return_sentinels() {
        let mut b = EventBatch::new(1);
        b.push(BatchEvent {
            col: 0,
            pc: 0x10,
            ea: None,
            tag: AttrTag::Plain,
            desc: NO_ID,
            func: NO_ID,
            line: NO_LINE,
            src: (0, 0, false),
        });
        assert_eq!(b.func_of(0), NO_ID);
        assert_eq!(b.line_of(0), None);
        assert_eq!(b.ea_of(0), None);
        assert!(!b.is_artificial(0));
    }
}
