//! Instruction-space views: `<Total>` metrics (Figure 1), the
//! function list (Figure 2), callers/callees, and the PC list
//! (Figure 5). Every table is one [`crate::batch::aggregate_by`] fold
//! over the cached columnar batch.

use std::collections::HashMap;
use std::fmt::Write as _;

use super::{
    col_by_event, data_columns, fmt_val_pct, user_cpu_col, Analysis, Attribution, MetricCol,
};
use crate::batch::{aggregate_by, ByFunc, ByPc, EventBatch, GroupKey, NO_ID};
use minic::render_memdesc;

/// The shared ordering of every metric table: the sort column
/// descending, then a caller-supplied ascending tie-break so the
/// order is total (independent of hash-map iteration order).
pub(crate) fn sort_by_metric<T>(
    rows: &mut [T],
    metric: impl Fn(&T) -> u64,
    tie: impl Fn(&T, &T) -> std::cmp::Ordering,
) {
    rows.sort_by(|a, b| metric(b).cmp(&metric(a)).then_with(|| tie(a, b)));
}

/// Group by the function one frame away from `func` on a row's
/// callstack: its caller, or (with `callees`) the frame below `func`.
/// Callstacks live in the experiments, not the batch, so the keyer
/// holds the analysis. The raw key is the frame's index in the symbol
/// table's function list; the three raws past the last index are the
/// pseudo-rows of [`STACK_PSEUDO_ROWS`]. Functions that share a name
/// decode to one key, and their samples sum.
pub(super) struct ByStackFunc<'a, 'b> {
    pub(super) analysis: &'b Analysis<'a>,
    pub(super) func: &'b str,
    pub(super) callees: bool,
}

/// Raw-key offsets past the function list, and their row names.
const NO_CALLER: u64 = 0;
const SELF: u64 = 1;
const UNKNOWN: u64 = 2;
const STACK_PSEUDO_ROWS: [&str; 3] = ["<no caller>", "<self>", "<unknown>"];

impl GroupKey for ByStackFunc<'_, '_> {
    type Key = String;

    fn raw(&self, b: &EventBatch, i: usize) -> Option<u64> {
        let syms = self.analysis.syms;
        let is_func = |f: usize| syms.funcs[f].name == self.func;
        let leaf = (b.func[i] != NO_ID).then_some(b.func[i] as usize);
        let frame = |f: Option<usize>, pseudo: u64| {
            Some(f.map_or(syms.funcs.len() as u64 + pseudo, |f| f as u64))
        };
        if !self.callees {
            if !leaf.is_some_and(is_func) {
                return None;
            }
            let caller = self.analysis.stack_of(b, i).last();
            return frame(caller.and_then(|&pc| syms.func_index_at(pc)), NO_CALLER);
        }
        let stack = self.analysis.stack_of(b, i);
        // Find `func` as the innermost matching frame.
        match stack
            .iter()
            .rposition(|&pc| syms.func_index_at(pc).is_some_and(is_func))
        {
            // The frame below `func` is the callee the metric flows
            // through; the leaf if `func` is the last call site.
            Some(p) => frame(
                stack.get(p + 1).map_or(leaf, |&pc| syms.func_index_at(pc)),
                UNKNOWN,
            ),
            // Leaf samples inside `func` itself.
            None if leaf.is_some_and(is_func) => frame(None, SELF),
            None => None,
        }
    }

    fn decode(&self, raw: u64) -> String {
        let funcs = &self.analysis.syms.funcs;
        match funcs.get(raw as usize) {
            Some(f) => f.name.clone(),
            None => STACK_PSEUDO_ROWS[(raw - funcs.len() as u64) as usize].to_string(),
        }
    }
}

/// The `<Total>` pseudo-function metrics of Figure 1.
#[derive(Clone, Debug)]
pub struct TotalMetrics {
    /// Per-column (column, raw samples, estimated total, seconds).
    pub rows: Vec<(MetricCol, u64, f64, Option<f64>)>,
    /// Total run time (from ground-truth cycles), seconds.
    pub total_lwp_secs: f64,
}

impl TotalMetrics {
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "Exclusive Total LWP Time:   {:>10.3} secs.",
            self.total_lwp_secs
        )
        .unwrap();
        for (col, _, est, secs) in &self.rows {
            match secs {
                Some(s) => {
                    writeln!(out, "Exclusive {}: {s:>10.3} secs.", col.title).unwrap();
                    writeln!(out, "            count {:.0}", est).unwrap();
                }
                None => {
                    writeln!(out, "Exclusive {}: {est:>14.0}", col.title).unwrap();
                }
            }
        }
        out
    }
}

/// One row of the function list.
#[derive(Clone, Debug)]
pub struct FunctionRow {
    pub name: String,
    /// Raw sample counts per column.
    pub samples: Vec<u64>,
}

/// One row of the PC list (Figure 5).
#[derive(Clone, Debug)]
pub struct PcRow {
    pub pc: u64,
    /// `function + 0xOFFSET`, as the paper prints it.
    pub location: String,
    /// Rendered data-object descriptor, if any.
    pub descriptor: String,
    pub samples: Vec<u64>,
}

impl Analysis<'_> {
    /// Figure 1: the `<Total>` metrics.
    pub fn total_metrics(&self) -> TotalMetrics {
        let totals = self.totals();
        let rows = self
            .columns
            .iter()
            .zip(&totals)
            .map(|(c, &n)| (c.clone(), n, c.scaled(n), c.secs(n)))
            .collect();
        // Ground truth run time from the first experiment.
        let total_lwp_secs = self
            .experiments
            .first()
            .map(|e| e.run.counts.cycles as f64 / e.run.clock_hz as f64)
            .unwrap_or(0.0);
        TotalMetrics {
            rows,
            total_lwp_secs,
        }
    }

    /// Figure 2: the function list, sorted by `sort_col` descending.
    /// `<Total>` appears first.
    pub fn function_list(&self, sort_col: usize) -> Vec<FunctionRow> {
        // Aggregate by interned function id, then fold ids to names
        // (ids outside every function fold into `<unknown>`).
        let map = aggregate_by(&self.batch, &ByFunc);
        let mut by_name: HashMap<String, Vec<u64>> = HashMap::new();
        for (fid, samples) in map {
            let name = if fid == NO_ID {
                "<unknown>".to_string()
            } else {
                self.syms.funcs[fid as usize].name.clone()
            };
            match by_name.entry(name) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (dst, src) in e.get_mut().iter_mut().zip(&samples) {
                        *dst += src;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(samples);
                }
            }
        }
        let mut rows: Vec<FunctionRow> = by_name
            .into_iter()
            .map(|(name, samples)| FunctionRow { name, samples })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples[sort_col],
            |a, b| a.name.cmp(&b.name),
        );
        let mut out = vec![FunctionRow {
            name: "<Total>".to_string(),
            samples: self.totals(),
        }];
        out.extend(rows);
        out
    }

    /// Render the function list like Figure 2.
    pub fn render_function_list(&self, sort_col: usize) -> String {
        let rows = self.function_list(sort_col);
        let totals = self.totals();
        let mut out = String::new();
        let headers: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                if c.counts_cycles {
                    format!("{} (sec. / %)", c.title)
                } else {
                    format!("{} (%)", c.title)
                }
            })
            .collect();
        writeln!(out, "{}   Name", headers.join("  |  ")).unwrap();
        for r in rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| fmt_val_pct(c, r.samples[i], totals[i]))
                .collect();
            writeln!(out, "{}   {}", cells.join("  "), r.name).unwrap();
        }
        out
    }

    /// Figure 5: PCs ranked by one metric, with data-object
    /// descriptors.
    pub fn pc_list(&self, sort_col: usize, limit: usize) -> Vec<PcRow> {
        let map = aggregate_by(&self.batch, &ByPc);
        let mut pcs: Vec<(u64, Vec<u64>)> = map.into_iter().collect();
        sort_by_metric(&mut pcs, |r| r.1[sort_col], |a, b| a.0.cmp(&b.0));
        pcs.truncate(limit);
        pcs.into_iter()
            .map(|(pc, samples)| {
                let location = match self.syms.func_at(pc) {
                    Some(f) => format!("{} + 0x{:08X}", f.name, pc - f.entry),
                    None => format!("{pc:#x}"),
                };
                let descriptor = self
                    .syms
                    .meta_at(pc)
                    .map(|m| render_memdesc(&m.memdesc))
                    .unwrap_or_default();
                PcRow {
                    pc,
                    location,
                    descriptor,
                    samples,
                }
            })
            .collect()
    }

    /// Render the PC list like Figure 5.
    pub fn render_pc_list(&self, sort_col: usize, limit: usize) -> String {
        let rows = self.pc_list(sort_col, limit);
        let totals = self.totals();
        let mut out = String::new();
        let headers: Vec<&str> = self.columns.iter().map(|c| c.title.as_str()).collect();
        writeln!(out, "{}   Name", headers.join(" | ")).unwrap();
        // <Total> first, as in the paper.
        let cells: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| fmt_val_pct(c, totals[i], totals[i]))
            .collect();
        writeln!(out, "{}   <Total>", cells.join("  ")).unwrap();
        for r in rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| fmt_val_pct(c, r.samples[i], totals[i]))
                .collect();
            writeln!(out, "{}   {}", cells.join("  "), r.location).unwrap();
            if !r.descriptor.is_empty() {
                writeln!(out, "{:>width$}{}", "", r.descriptor, width = 8).unwrap();
            }
        }
        out
    }

    /// The callstack of batch row `i`, looked up in its experiment's
    /// stack table.
    fn stack_of(&self, b: &EventBatch, i: usize) -> &[u64] {
        let (xi, ei, is_clock) = b.src_of(i);
        let exp = self.experiments[xi];
        let id = if is_clock {
            exp.clock_events[ei].stack
        } else {
            exp.hwc_events[ei].stack
        };
        &exp.stacks[id as usize]
    }

    /// Callers of `func`: which functions the profiled events in
    /// `func` were called from, with sample counts.
    pub fn callers_of(&self, func: &str) -> Vec<FunctionRow> {
        self.stack_func_rows(func, false)
    }

    /// Callees of `func`: attribute each sample whose callstack
    /// passes through `func` to the *next* frame below it (or to
    /// `func` itself — shown as `<self>` — for samples whose leaf is
    /// `func`). Together with [`Analysis::callers_of`] this is the
    /// §2.3 callers/callees view.
    pub fn callees_of(&self, func: &str) -> Vec<FunctionRow> {
        self.stack_func_rows(func, true)
    }

    /// The rows of [`Analysis::callers_of`] or
    /// [`Analysis::callees_of`], hottest first.
    fn stack_func_rows(&self, func: &str, callees: bool) -> Vec<FunctionRow> {
        let keyer = ByStackFunc {
            analysis: self,
            func,
            callees,
        };
        let mut rows: Vec<FunctionRow> = aggregate_by(&self.batch, &keyer)
            .into_iter()
            .map(|(name, samples)| FunctionRow { name, samples })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples.iter().sum::<u64>(),
            |a, b| a.name.cmp(&b.name),
        );
        rows
    }

    /// Render the §2.3 callers/callees view for one function.
    pub fn render_callers_callees(&self, func: &str) -> String {
        let totals = self.totals();
        let mut out = String::new();
        let fmt_rows = |out: &mut String, rows: &[FunctionRow]| {
            for r in rows {
                let cells: Vec<String> = self
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| fmt_val_pct(c, r.samples[i], totals[i]))
                    .collect();
                writeln!(out, "  {}   {}", cells.join("  "), r.name).unwrap();
            }
        };
        writeln!(out, "Callers of `{func}`:").unwrap();
        fmt_rows(&mut out, &self.callers_of(func));
        // The callees rows key exactly the samples whose leaf or stack
        // holds `func`, so their column sums are `inclusive_of(func)`.
        let callees = self.callees_of(func);
        let mut incl = vec![0u64; self.columns.len()];
        for r in &callees {
            for (t, x) in incl.iter_mut().zip(&r.samples) {
                *t += x;
            }
        }
        let cells: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| fmt_val_pct(c, incl[i], totals[i]))
            .collect();
        writeln!(out, "*: {}   {func} (inclusive)", cells.join("  ")).unwrap();
        writeln!(out, "Callees of `{func}`:").unwrap();
        fmt_rows(&mut out, &callees);
        out
    }

    /// Inclusive metrics: samples whose callstack passes through
    /// `func` (or whose leaf is `func`), by a walk over every row's
    /// stack — the reference the callers/callees view's inclusive line
    /// (the column sums of [`Analysis::callees_of`]) is tested against.
    pub fn inclusive_of(&self, func: &str) -> Vec<u64> {
        let b = &self.batch;
        let mut out = vec![0u64; self.columns.len()];
        for i in 0..b.len() {
            let stack = self.stack_of(b, i);
            let leaf_is = self.syms.func_at(b.pc[i]).is_some_and(|f| f.name == func);
            let on_stack = stack
                .iter()
                .any(|&pc| self.syms.func_at(pc).is_some_and(|f| f.name == func));
            if leaf_is || on_stack {
                out[b.col[i] as usize] += 1;
            }
        }
        out
    }

    /// The indices of the backtracked (data-object) columns.
    pub fn data_columns(&self) -> Vec<usize> {
        data_columns(&self.columns)
    }

    /// The first counter column of `event` ([`col_by_event`]).
    pub fn col_by_event(&self, event: simsparc_machine::CounterEvent) -> Option<usize> {
        col_by_event(&self.columns, event)
    }

    /// The User CPU (clock) column, if any ([`user_cpu_col`]).
    pub fn user_cpu_col(&self) -> Option<usize> {
        user_cpu_col(&self.columns)
    }

    /// Fraction of samples in a column attributed to each artificial
    /// or real pc predicate — general helper used by tests.
    pub fn count_where<F: Fn(&Attribution) -> bool>(&self, col: usize, pred: F) -> u64 {
        (0..self.batch.len())
            .filter(|&i| self.batch.col[i] as usize == col && pred(&self.batch.attribution(i)))
            .count() as u64
    }
}
