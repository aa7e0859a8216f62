//! The multi-experiment aggregation engine.
//!
//! Aggregation reduces raw profile events to per-PC sample histograms
//! — the common substrate under `stat`, `diff`, and quick multi-run
//! summaries. Columns are keyed by *what was measured* (clock period,
//! or counter event + backtracking + interval), not by which
//! experiment an event came from, so runs of the same collection
//! recipe fold together.
//!
//! The reduction itself is no longer private to this crate: sources
//! fill the charge-PC projection of a columnar
//! [`memprof_core::EventBatch`] (the charge-PC rule is
//! [`memprof_core::charged_pc`], applied by
//! [`memprof_core::fill_hwc_pc_rows`] to an experiment in memory and
//! by [`crate::StreamFile::fill_pc_batch`] as `MPES` chunks decode;
//! every experiment on disk, text directories included, reaches
//! [`aggregate_streams`] as a [`crate::StreamFile`]),
//! and the per-PC histogram is one [`memprof_core::aggregate_by`]
//! call — the same kernel every analyzer view runs on — folded into an
//! ordered `BTreeMap`, so the rendered output is deterministic.
//! [`aggregate`] over in-memory experiments is the oracle the tests
//! pin [`aggregate_streams`] against, byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use memprof_core::batch::ByPc;
use memprof_core::{
    aggregate_by, fill_clock_pc_rows, fill_hwc_pc_rows, CounterRequest, EventBatch, Experiment,
};
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

/// Build the deduplicated column list for a set of collection-recipe
/// headers `(clock_period, counters)`, in first-seen order (clock
/// first, mirroring the analyzer), plus the per-source resolution of
/// every counter (and the clock) to its column index, so event scans
/// are a plain array lookup.
#[allow(clippy::type_complexity)]
fn resolve_columns(
    headers: &[(Option<u64>, &[CounterRequest])],
) -> Result<(Vec<ColSpec>, Vec<Vec<usize>>, Vec<Option<usize>>), StoreError> {
    let mut columns: Vec<ColSpec> = Vec::new();
    for (period, _) in headers {
        if let Some(period) = period {
            let spec = ColSpec::Clock { period: *period };
            if !columns.contains(&spec) {
                columns.push(spec);
            }
        }
    }
    for (_, counters) in headers {
        for req in *counters {
            let spec = ColSpec::Hwc {
                event: req.event,
                backtrack: req.backtrack,
                interval: req.interval,
            };
            if !columns.contains(&spec) {
                columns.push(spec);
            }
        }
    }
    // Every source column must resolve against the deduplicated set;
    // a miss means the headers handed in do not describe the events
    // that will be scanned, and must surface as an error, not a panic.
    let find = |spec: ColSpec| -> Result<usize, StoreError> {
        columns.iter().position(|c| *c == spec).ok_or_else(|| {
            StoreError::ColumnMismatch(format!("{spec:?} missing from resolved column set"))
        })
    };
    let mut col_of: Vec<Vec<usize>> = Vec::with_capacity(headers.len());
    let mut clock_col_of: Vec<Option<usize>> = Vec::with_capacity(headers.len());
    for (period, counters) in headers {
        clock_col_of.push(match period {
            Some(period) => Some(find(ColSpec::Clock { period: *period })?),
            None => None,
        });
        let mut cols = Vec::with_capacity(counters.len());
        for req in *counters {
            cols.push(find(ColSpec::Hwc {
                event: req.event,
                backtrack: req.backtrack,
                interval: req.interval,
            })?);
        }
        col_of.push(cols);
    }
    Ok((columns, col_of, clock_col_of))
}

/// Reduce a filled batch to the final histogram: one shared-kernel
/// call, folded into an ordered map.
fn finish(columns: Vec<ColSpec>, batch: &EventBatch) -> Aggregate {
    let map = aggregate_by(batch, &ByPc);
    // A per-PC grouping keeps every row, so the column totals are the
    // sums of the group rows — no second pass over the events.
    let totals = totals_of(&map, columns.len());
    Aggregate {
        columns,
        pc_samples: map.into_iter().collect::<BTreeMap<u64, Vec<u64>>>(),
        totals,
    }
}

/// Column totals recovered from a per-PC fold: equal to summing the
/// source rows directly, because grouping by PC drops nothing.
fn totals_of(map: &HashMap<u64, Vec<u64>>, ncols: usize) -> Vec<u64> {
    let mut totals = vec![0u64; ncols];
    for samples in map.values() {
        for (dst, src) in totals.iter_mut().zip(samples) {
            *dst += src;
        }
    }
    totals
}

/// Aggregate a set of experiments in memory into a per-PC histogram:
/// fill one batch with every experiment's charge-PC rows, then fold
/// it. No tool reads experiments this way — every experiment on disk
/// reaches [`aggregate_streams`] — so this is the oracle the tests
/// compare the streamed path with.
pub fn aggregate(exps: &[&Experiment]) -> Result<Aggregate, StoreError> {
    let headers: Vec<(Option<u64>, &[CounterRequest])> = exps
        .iter()
        .map(|e| (e.clock_period, e.counters.as_slice()))
        .collect();
    let (columns, col_of, clock_col_of) = resolve_columns(&headers)?;
    let mut batch = EventBatch::new(columns.len());
    for (xi, exp) in exps.iter().enumerate() {
        if let Some(col) = clock_col_of[xi] {
            fill_clock_pc_rows(&mut batch, col, &exp.clock_events);
        }
        fill_hwc_pc_rows(&mut batch, &exp.counters, &col_of[xi], &exp.hwc_events);
    }
    Ok(finish(columns, &batch))
}

/// Aggregate a set of opened [`StreamFile`]s: each streams its event
/// chunks straight into the batch without ever materializing an
/// `Experiment`.
pub fn aggregate_streams(streams: &[StreamFile]) -> Result<Aggregate, StoreError> {
    let headers: Vec<(Option<u64>, &[CounterRequest])> = streams
        .iter()
        .map(|s| (s.clock_period(), s.counters()))
        .collect();
    let (columns, col_of, clock_col_of) = resolve_columns(&headers)?;
    let mut batch = EventBatch::new(columns.len());
    for (xi, stream) in streams.iter().enumerate() {
        stream.fill_pc_batch(&mut batch, &col_of[xi], clock_col_of[xi])?;
    }
    Ok(finish(columns, &batch))
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
    /// Fold another aggregate with the *same column set* into this
    /// one: per-PC sample vectors and totals add element-wise. This is
    /// how the serve layer combines per-window summaries without
    /// rescanning events; addition commutes, so summing summaries
    /// equals aggregating the union of the underlying events.
    pub fn merge(&mut self, other: &Aggregate) -> Result<(), StoreError> {
        if self.columns != other.columns {
            return Err(StoreError::ColumnMismatch(format!(
                "cannot merge aggregates with different column sets: {:?} vs {:?}",
                self.columns, other.columns
            )));
        }
        for (pc, samples) in &other.pc_samples {
            let slot = self
                .pc_samples
                .entry(*pc)
                .or_insert_with(|| vec![0; self.columns.len()]);
            for (d, s) in slot.iter_mut().zip(samples) {
                *d += s;
            }
        }
        for (d, s) in self.totals.iter_mut().zip(&other.totals) {
            *d += s;
        }
        Ok(())
    }

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
