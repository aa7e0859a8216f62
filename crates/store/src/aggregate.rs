//! The multi-experiment aggregation engine.
//!
//! Aggregation reduces raw profile events to sample histograms — the
//! common substrate under `stat`, `diff`, Figure 6 and quick
//! multi-run summaries. Columns are keyed by *what was measured*
//! (clock period, or counter event + backtracking + interval), not by
//! which experiment an event came from, so runs of the same collection
//! recipe fold together and runs of different recipes fold into the
//! union of their columns.
//!
//! There is one histogram fold over `MPES` event chunks,
//! [`pair_streams`]. It counts samples per attribution key
//! ([`memprof_core::attribution_key`]: the event's candidate trigger
//! PC and delivered PC) into a [`PairHistogram`], and every other
//! histogram is a function of that one. The per-PC [`Aggregate`]
//! behind `stat`, `diff` and the served `functions` is its projection
//! ([`PairHistogram::to_aggregate`], which charges each key at
//! [`memprof_core::charged_pc`]); that is what [`aggregate_streams`]
//! returns. Figure 6 follows from the keys and a symbol table. The
//! address views cannot: an event's effective address is not a
//! function of its key, so [`address_streams`] counts each address
//! into its bucket on the same chunk walk. Every experiment on disk,
//! text directories included, reaches the folds as a
//! [`crate::StreamFile`]. [`PairHistogram::merge`] is the only
//! histogram merge. One column-union rule (`union_columns`) orders the
//! columns of the fold and of the merge, so merging two folds equals
//! folding both sets of inputs, whatever their recipes.
//!
//! [`aggregate`] over in-memory experiments shares no fold with this
//! path: it charges event by event into an ordered map, and the tests
//! pin [`aggregate_streams`] against it byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash};

use memprof_core::analyze::{attribute, AddrBucket, AddrMap, ColKind, KeyHasher, MetricCol};
use memprof_core::{charged_pc, CounterRequest, Experiment};
use minic::SymbolTable;
use simsparc_machine::CounterEvent;

use crate::{StoreError, StreamFile};

/// What one aggregate column measures.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ColSpec {
    /// Clock-profiling ticks at `period` cycles.
    Clock { period: u64 },
    /// A hardware counter overflowing every `interval` events.
    Hwc {
        event: CounterEvent,
        backtrack: bool,
        interval: u64,
    },
}

impl ColSpec {
    pub fn title(&self) -> String {
        match self {
            ColSpec::Clock { .. } => "User CPU".to_string(),
            ColSpec::Hwc { event, .. } => event.title().to_string(),
        }
    }
}

/// Per-PC sample histogram over a set of experiments.
pub struct Aggregate {
    pub columns: Vec<ColSpec>,
    /// PC → one sample count per column, ordered by PC.
    pub pc_samples: BTreeMap<u64, Vec<u64>>,
    /// Total samples per column.
    pub totals: Vec<u64>,
}

/// The one column-union rule, for the fold and the merge alike: clock
/// columns first, then counters, each kind in first-seen order across
/// `sources`, and a column that occurs more than once listed once.
/// Returns the union and, per source, the union column of each of its
/// columns. The union of unions is the union of their sources, so the
/// rule is associative.
fn union_columns(sources: &[&[ColSpec]]) -> (Vec<ColSpec>, Vec<Vec<usize>>) {
    let mut columns: Vec<ColSpec> = Vec::new();
    for clock in [true, false] {
        for spec in sources.iter().flat_map(|s| s.iter()) {
            if matches!(spec, ColSpec::Clock { .. }) == clock && !columns.contains(spec) {
                columns.push(spec.clone());
            }
        }
    }
    let at = |spec: &ColSpec| {
        let found = columns.iter().position(|c| c == spec);
        found.expect("every source column is in the union")
    };
    let maps = sources.iter().map(|s| s.iter().map(at).collect()).collect();
    (columns, maps)
}

/// Resolve collection recipes `(clock_period, counters)` against the
/// union of their columns: the union, and per recipe the column of its
/// clock ticks and of each of its counters, so an event's column is a
/// plain array lookup.
#[allow(clippy::type_complexity)]
fn resolve_columns(
    recipes: &[(Option<u64>, &[CounterRequest])],
) -> (Vec<ColSpec>, Vec<(Option<usize>, Vec<usize>)>) {
    let sources: Vec<Vec<ColSpec>> = recipes
        .iter()
        .map(|(period, counters)| {
            let clock = period.map(|period| ColSpec::Clock { period });
            let hwc = counters.iter().map(|req| ColSpec::Hwc {
                event: req.event,
                backtrack: req.backtrack,
                interval: req.interval,
            });
            clock.into_iter().chain(hwc).collect()
        })
        .collect();
    let refs: Vec<&[ColSpec]> = sources.iter().map(Vec::as_slice).collect();
    let (columns, maps) = union_columns(&refs);
    let cols = recipes
        .iter()
        .zip(maps)
        .map(|((period, _), mut map)| (period.map(|_| map.remove(0)), map))
        .collect();
    (columns, cols)
}

/// The one clock rate of a set of sources (0 for none). Different
/// rates are an error, never a silent sum.
fn one_clock_rate(rates: impl IntoIterator<Item = u64>) -> Result<u64, StoreError> {
    let mut rates = rates.into_iter();
    let first = rates.next().unwrap_or(0);
    match rates.find(|&rate| rate != first) {
        Some(other) => Err(clock_rates_differ(first, other)),
        None => Ok(first),
    }
}

fn clock_rates_differ(a: u64, b: u64) -> StoreError {
    StoreError::Incompatible(format!("clock rates differ: {a} vs {b}"))
}

/// `dst[at[i]] += src[i]`: add a row into the row of a wider column
/// set.
fn add_at(dst: &mut [u64], src: &[u64], at: &[usize]) {
    for (&s, &i) in src.iter().zip(at) {
        dst[i] += s;
    }
}

/// Aggregate experiments in memory into a per-PC histogram, event by
/// event: a counter event charged at [`memprof_core::charged_pc`], a
/// clock tick at its PC, in the columns of the fold's column rule. No
/// tool reads experiments this way — every experiment on disk reaches
/// [`aggregate_streams`] — and this loop shares no fold with that
/// path, so it is the oracle the tests pin it against.
pub fn aggregate(exps: &[&Experiment]) -> Result<Aggregate, StoreError> {
    one_clock_rate(exps.iter().map(|e| e.run.clock_hz))?;
    let recipes: Vec<(Option<u64>, &[CounterRequest])> = exps
        .iter()
        .map(|e| (e.clock_period, e.counters.as_slice()))
        .collect();
    let (columns, cols) = resolve_columns(&recipes);
    let ncols = columns.len();
    let mut pc_samples: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut totals = vec![0; ncols];
    let mut charge = |pc: u64, col: usize| {
        pc_samples.entry(pc).or_insert_with(|| vec![0; ncols])[col] += 1;
        totals[col] += 1;
    };
    for (exp, (clock_col, hwc_col)) in exps.iter().zip(&cols) {
        if let Some(col) = *clock_col {
            for ev in &exp.clock_events {
                charge(ev.pc, col);
            }
        }
        for ev in &exp.hwc_events {
            let backtrack = exp.counters[ev.counter].backtrack;
            charge(charged_pc(ev, backtrack), hwc_col[ev.counter]);
        }
    }
    Ok(Aggregate {
        columns,
        pc_samples,
        totals,
    })
}

/// The per-PC histogram of a set of opened [`StreamFile`]s: the
/// projection of their attribution-key fold, [`pair_streams`].
pub fn aggregate_streams(streams: &[StreamFile]) -> Result<Aggregate, StoreError> {
    Ok(pair_streams(streams)?.to_aggregate())
}

/// An attribution key, `(candidate, delivered)`
/// ([`memprof_core::attribution_key`]).
pub type PairKey = (Option<u64>, u64);

/// Per-attribution-key sample histogram over a set of experiments: the
/// histogram [`Aggregate`] is a projection of. An event's charge PC
/// and its Figure 6 row are both functions of its key (and, for the
/// row, the symbol table), so the few dozen keys a run revisits answer
/// both views without the events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairHistogram {
    /// The deduplicated columns, as [`Aggregate::columns`].
    pub columns: Vec<ColSpec>,
    /// The recipe's clock rate, which Figure 6 needs to show cycle
    /// counts as seconds.
    pub clock_hz: u64,
    /// Attribution key → one sample count per column, ordered by key.
    pub pairs: BTreeMap<PairKey, Vec<u64>>,
    /// Total samples per column.
    pub totals: Vec<u64>,
}

/// A flat row-major sample table, `ncols` counts per key, with each
/// key's row found through a hash index: the table both chunk folds
/// count into. Rows are in first-seen order.
struct KeyedRows<K> {
    index: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    keys: Vec<K>,
    counts: Vec<u64>,
    ncols: usize,
}

impl<K: Copy + Eq + Hash> KeyedRows<K> {
    fn new(ncols: usize) -> KeyedRows<K> {
        KeyedRows {
            index: HashMap::default(),
            keys: Vec::new(),
            counts: Vec::new(),
            ncols,
        }
    }

    #[inline]
    fn add(&mut self, key: K, col: usize) {
        // `get`, then `insert` only for a new key: going through the
        // entry API made the whole fold half again slower on a million
        // events.
        let row = match self.index.get(&key) {
            Some(&row) => row,
            None => {
                self.index.insert(key, self.keys.len());
                self.keys.push(key);
                self.counts.resize(self.counts.len() + self.ncols, 0);
                self.keys.len() - 1
            }
        };
        self.counts[row * self.ncols + col] += 1;
    }

    /// Each key with its samples, in first-seen order.
    fn rows(&self) -> impl Iterator<Item = (K, &[u64])> {
        let n = self.ncols;
        let counts = &self.counts;
        self.keys
            .iter()
            .enumerate()
            .map(move |(row, &key)| (key, &counts[row * n..(row + 1) * n]))
    }
}

/// The union columns of `streams`' recipes, and per stream the column
/// of its clock ticks and of each of its counters. The streams must
/// share one clock rate, which is returned too.
#[allow(clippy::type_complexity)]
fn stream_columns(
    streams: &[StreamFile],
) -> Result<(u64, Vec<ColSpec>, Vec<(Option<usize>, Vec<usize>)>), StoreError> {
    let clock_hz = one_clock_rate(streams.iter().map(|s| s.run().clock_hz))?;
    let recipes: Vec<(Option<u64>, &[CounterRequest])> = streams
        .iter()
        .map(|s| (s.clock_period(), s.counters()))
        .collect();
    let (columns, cols) = resolve_columns(&recipes);
    Ok((clock_hz, columns, cols))
}

/// Fold the attribution keys of a set of opened [`StreamFile`]s: the
/// histogram fold over `MPES` event chunks. Each HWC and CLOCK chunk is
/// decoded once and its content checked; no STACKS chunk is decoded.
/// The columns are the union of the streams' recipes, which must share
/// one clock rate. Samples count into one flat row-major table, a row
/// per key found through a hash index, and the ordered map is built
/// once, at the end.
pub fn pair_streams(streams: &[StreamFile]) -> Result<PairHistogram, StoreError> {
    let (clock_hz, columns, cols) = stream_columns(streams)?;
    let ncols = columns.len();
    let mut rows: KeyedRows<PairKey> = KeyedRows::new(ncols);
    for (stream, (clock_col, hwc_col)) in streams.iter().zip(&cols) {
        stream.fold_keys(hwc_col, *clock_col, |col, key, _| rows.add(key, col))?;
    }
    let mut totals = vec![0; ncols];
    let pairs = rows
        .rows()
        .map(|(key, samples)| {
            for (t, s) in totals.iter_mut().zip(samples) {
                *t += s;
            }
            (key, samples.to_vec())
        })
        .collect();
    Ok(PairHistogram {
        columns,
        clock_hz,
        pairs,
        totals,
    })
}

/// The keyed map of an address view over a set of opened
/// [`StreamFile`]s: each event that keeps its effective address under
/// `syms` ([`memprof_core::analyze::Attribution::keeps_ea`]) counted
/// into its `bucket`, in the columns [`pair_streams`] gives the same
/// streams. It is the analyzer's [`AddrMap`] of the streams' events
/// without decoding them into an experiment. The walk and its checks
/// are [`pair_streams`]' own: one clock rate, each HWC and CLOCK chunk
/// decoded once and its content checked, no STACKS chunk decoded.
/// Clock ticks carry no address. A key's verdict is decided once per
/// `(backtrack, candidate, delivered)`, the analysis memo's key: the
/// key `(None, d)` keeps its address on a plain counter and drops it
/// on a backtracked one. Under one symbol table the fold is additive:
/// the map of `[a, b]` is the sum of the maps of `[a]` and `[b]`.
pub fn address_streams(
    streams: &[StreamFile],
    syms: &SymbolTable,
    bucket: AddrBucket,
) -> Result<AddrMap, StoreError> {
    let (_, columns, cols) = stream_columns(streams)?;
    let backtracked: Vec<bool> = columns
        .iter()
        .map(|c| {
            matches!(
                c,
                ColSpec::Hwc {
                    backtrack: true,
                    ..
                }
            )
        })
        .collect();
    let mut keeps: HashMap<(bool, PairKey), bool, BuildHasherDefault<KeyHasher>> =
        HashMap::default();
    let mut rows: KeyedRows<u64> = KeyedRows::new(columns.len());
    for (stream, (clock_col, hwc_col)) in streams.iter().zip(&cols) {
        stream.fold_keys(hwc_col, *clock_col, |col, key, ea| {
            let Some(ea) = ea else { return };
            let memo = (backtracked[col], key);
            let keep = match keeps.get(&memo) {
                Some(&keep) => keep,
                None => {
                    let keep = attribute(syms, memo.0, key.0, key.1).keeps_ea();
                    keeps.insert(memo, keep);
                    keep
                }
            };
            if keep {
                rows.add(bucket.key(ea), col);
            }
        })?;
    }
    Ok(rows
        .rows()
        .map(|(key, samples)| (key, samples.to_vec()))
        .collect())
}

impl PairHistogram {
    /// Fold another histogram into this one. The columns become the
    /// union of both, by the fold's rule, and each key's samples add,
    /// so `a.merge(b)` equals the fold of both histograms' inputs
    /// whatever their recipes, and merging is associative. Only a
    /// different clock rate refuses to merge, never a silent sum.
    pub fn merge(&mut self, other: &PairHistogram) -> Result<(), StoreError> {
        if self.clock_hz != other.clock_hz {
            return Err(clock_rates_differ(self.clock_hz, other.clock_hz));
        }
        let (columns, at) = union_columns(&[&self.columns, &other.columns]);
        let ncols = columns.len();
        if columns != self.columns {
            for samples in self.pairs.values_mut().chain([&mut self.totals]) {
                let mut wide = vec![0; ncols];
                add_at(&mut wide, samples, &at[0]);
                *samples = wide;
            }
            self.columns = columns;
        }
        for (key, samples) in &other.pairs {
            let slot = self.pairs.entry(*key).or_insert_with(|| vec![0; ncols]);
            add_at(slot, samples, &at[1]);
        }
        add_at(&mut self.totals, &other.totals, &at[1]);
        Ok(())
    }

    /// The per-PC histogram: each key's samples charged to its
    /// candidate, else its delivered PC ([`memprof_core::charged_pc`]):
    /// [`aggregate_streams`]' answer, and [`aggregate`]'s over the same
    /// events decoded.
    pub fn to_aggregate(&self) -> Aggregate {
        let mut pc_samples: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&(candidate, delivered), samples) in &self.pairs {
            let slot = pc_samples
                .entry(candidate.unwrap_or(delivered))
                .or_insert_with(|| vec![0; self.columns.len()]);
            for (d, s) in slot.iter_mut().zip(samples) {
                *d += s;
            }
        }
        Aggregate {
            columns: self.columns.clone(),
            pc_samples,
            totals: self.totals.clone(),
        }
    }

    /// The analyzer's metric columns for the histogram's columns, in
    /// order: those of one experiment collected with this recipe.
    /// Counters are numbered in recipe order; two identical counters
    /// share one column here, and only non-memory counters (never
    /// backtracked) can repeat in a recipe.
    pub fn metric_cols(&self) -> Vec<MetricCol> {
        let mut counter = 0;
        self.columns
            .iter()
            .map(|spec| {
                let (kind, interval, counts_cycles) = match *spec {
                    ColSpec::Clock { period } => (ColKind::UserCpu { experiment: 0 }, period, true),
                    ColSpec::Hwc {
                        event,
                        backtrack,
                        interval,
                    } => {
                        counter += 1;
                        let kind = ColKind::Hwc {
                            experiment: 0,
                            counter: counter - 1,
                            event,
                            backtrack,
                        };
                        (kind, interval, event.counts_cycles())
                    }
                };
                MetricCol {
                    kind,
                    title: spec.title(),
                    interval,
                    counts_cycles,
                    clock_hz: self.clock_hz,
                }
            })
            .collect()
    }
}

/// Minimal JSON string escaping for the stat/query documents (names
/// are ASCII identifiers in practice, but a renderer must not emit
/// invalid JSON for any input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_samples(samples: &[u64]) -> String {
    let strs: Vec<String> = samples.iter().map(u64::to_string).collect();
    format!("[{}]", strs.join(","))
}

impl Aggregate {
    /// Fold the per-PC histogram up to functions: name → samples per
    /// column, ordered by name (PCs outside any function fold into
    /// `(unknown)`). The substrate of the functions view on both the
    /// offline (`mp-store stat --json`) and serve query paths.
    pub fn functions(&self, syms: &minic::SymbolTable) -> BTreeMap<String, Vec<u64>> {
        let mut per_fn: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (pc, samples) in &self.pc_samples {
            let name = syms
                .func_at(*pc)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "(unknown)".to_string());
            let slot = per_fn
                .entry(name)
                .or_insert_with(|| vec![0; self.columns.len()]);
            for (d, s) in slot.iter_mut().zip(samples) {
                *d += s;
            }
        }
        per_fn
    }

    /// Machine-readable form of the whole aggregate: columns with
    /// totals, the per-function rollup (when symbols are available),
    /// and the per-PC histogram. `mp-store stat --json` and the serve
    /// query layer both emit exactly this document, so serve-vs-offline
    /// parity is byte equality on shared code, not text scraping.
    pub fn stat_json(&self, syms: Option<&minic::SymbolTable>) -> String {
        let mut out = String::from("{\n  \"columns\": [\n");
        for (i, (spec, total)) in self.columns.iter().zip(&self.totals).enumerate() {
            let body = match spec {
                ColSpec::Clock { period } => format!("\"kind\": \"clock\", \"period\": {period}"),
                ColSpec::Hwc {
                    event,
                    backtrack,
                    interval,
                } => format!(
                    "\"kind\": \"hwc\", \"event\": \"{}\", \"backtrack\": {backtrack}, \
                     \"interval\": {interval}",
                    json_escape(event.name())
                ),
            };
            let comma = if i + 1 < self.columns.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"title\": \"{}\", {body}, \"total\": {total}}}{comma}",
                json_escape(&spec.title())
            )
            .unwrap();
        }
        writeln!(out, "  ],").unwrap();
        writeln!(out, "  \"distinct_pcs\": {},", self.pc_samples.len()).unwrap();
        if let Some(syms) = syms {
            let per_fn = self.functions(syms);
            writeln!(out, "  \"functions\": [").unwrap();
            for (i, (name, samples)) in per_fn.iter().enumerate() {
                let comma = if i + 1 < per_fn.len() { "," } else { "" };
                writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"samples\": {}}}{comma}",
                    json_escape(name),
                    json_samples(samples)
                )
                .unwrap();
            }
            writeln!(out, "  ],").unwrap();
        }
        writeln!(out, "  \"pcs\": [").unwrap();
        for (i, (pc, samples)) in self.pc_samples.iter().enumerate() {
            let comma = if i + 1 < self.pc_samples.len() {
                ","
            } else {
                ""
            };
            writeln!(
                out,
                "    {{\"pc\": {pc}, \"samples\": {}}}{comma}",
                json_samples(samples)
            )
            .unwrap();
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render the histogram as deterministic text: a totals line per
    /// column, then one line per PC. Used by `mp-store stat` and by
    /// the equivalence tests (byte equality).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (spec, total) in self.columns.iter().zip(&self.totals) {
            let detail = match spec {
                ColSpec::Clock { period } => format!("period {period}"),
                ColSpec::Hwc {
                    backtrack,
                    interval,
                    ..
                } => format!(
                    "interval {interval}{}",
                    if *backtrack { ", backtracking" } else { "" }
                ),
            };
            writeln!(out, "{:<16} {:>9} samples  ({detail})", spec.title(), total).unwrap();
        }
        for (pc, samples) in &self.pc_samples {
            write!(out, "{pc:#012x}").unwrap();
            for s in samples {
                write!(out, " {s:>7}").unwrap();
            }
            out.push('\n');
        }
        out
    }
}

/// One row of a diff: a PC with per-column sample counts on each side.
pub struct DiffRow {
    pub pc: u64,
    pub a: Vec<u64>,
    pub b: Vec<u64>,
}

/// The difference between two aggregates with identical column sets.
pub struct AggDiff {
    pub columns: Vec<ColSpec>,
    pub totals_a: Vec<u64>,
    pub totals_b: Vec<u64>,
    /// Rows where any column differs, ordered by PC.
    pub rows: Vec<DiffRow>,
}

/// Diff two aggregates. The column sets must match — diffing
/// experiments collected with different recipes is a configuration
/// error, not a large diff.
pub fn diff_aggregates(a: &Aggregate, b: &Aggregate) -> Result<AggDiff, StoreError> {
    if a.columns != b.columns {
        return Err(StoreError::Incompatible(format!(
            "column sets differ: [{}] vs [{}]",
            a.columns
                .iter()
                .map(|c| c.title())
                .collect::<Vec<_>>()
                .join(", "),
            b.columns
                .iter()
                .map(|c| c.title())
                .collect::<Vec<_>>()
                .join(", "),
        )));
    }
    let ncols = a.columns.len();
    let zeros = vec![0u64; ncols];
    let mut rows = Vec::new();
    let pcs: std::collections::BTreeSet<u64> = a
        .pc_samples
        .keys()
        .chain(b.pc_samples.keys())
        .copied()
        .collect();
    for pc in pcs {
        let sa = a.pc_samples.get(&pc).unwrap_or(&zeros);
        let sb = b.pc_samples.get(&pc).unwrap_or(&zeros);
        if sa != sb {
            rows.push(DiffRow {
                pc,
                a: sa.clone(),
                b: sb.clone(),
            });
        }
    }
    Ok(AggDiff {
        columns: a.columns.clone(),
        totals_a: a.totals.clone(),
        totals_b: b.totals.clone(),
        rows,
    })
}

impl AggDiff {
    /// Fold the per-PC rows up to functions using a symbol table
    /// (PC → enclosing function), rendering a per-function delta
    /// table per column. PCs outside any function fold into
    /// `(unknown)`.
    pub fn render_by_function(&self, syms: &minic::SymbolTable) -> String {
        let ncols = self.columns.len();
        let mut per_fn: BTreeMap<String, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for row in &self.rows {
            let name = syms
                .func_at(row.pc)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "(unknown)".to_string());
            let slot = per_fn
                .entry(name)
                .or_insert_with(|| (vec![0; ncols], vec![0; ncols]));
            for i in 0..ncols {
                slot.0[i] += row.a[i];
                slot.1[i] += row.b[i];
            }
        }
        let mut out = String::new();
        for (i, spec) in self.columns.iter().enumerate() {
            writeln!(
                out,
                "{:<16} total {:>9} -> {:>9}  ({:+})",
                spec.title(),
                self.totals_a[i],
                self.totals_b[i],
                self.totals_b[i] as i64 - self.totals_a[i] as i64
            )
            .unwrap();
        }
        let mut rows: Vec<_> = per_fn.iter().collect();
        // Largest absolute movement first; name breaks ties so the
        // ordering is total.
        rows.sort_by_key(|(name, (a, b))| {
            let movement: i64 = a
                .iter()
                .zip(b)
                .map(|(x, y)| (*y as i64 - *x as i64).abs())
                .sum();
            (std::cmp::Reverse(movement), (*name).clone())
        });
        for (name, (a, b)) in rows {
            write!(out, "{name:<24}").unwrap();
            for i in 0..ncols {
                write!(out, "  {:>7} -> {:>7}", a[i], b[i]).unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Render the raw per-PC rows (no symbols required).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, spec) in self.columns.iter().enumerate() {
            writeln!(
                out,
                "{:<16} total {:>9} -> {:>9}  ({:+})",
                spec.title(),
                self.totals_a[i],
                self.totals_b[i],
                self.totals_b[i] as i64 - self.totals_a[i] as i64
            )
            .unwrap();
        }
        for row in &self.rows {
            write!(out, "{:#012x}", row.pc).unwrap();
            for i in 0..self.columns.len() {
                write!(out, "  {:>7} -> {:>7}", row.a[i], row.b[i]).unwrap();
            }
            out.push('\n');
        }
        out
    }
}
