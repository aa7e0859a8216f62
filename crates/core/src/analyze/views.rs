//! Instruction-space views: `<Total>` metrics (Figure 1), the
//! function list (Figure 2), callers/callees, and the PC list
//! (Figure 5). Every table is one [`crate::batch::aggregate_by`] fold
//! over the cached columnar batch.

use std::collections::HashMap;
use std::fmt::Write as _;

use super::{fmt_val_pct, Analysis, Attribution, ColKind, MetricCol};
use crate::batch::{ByFunc, ByPc, EventBatch, NO_ID};
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
        let map = self.kernel(&ByFunc);
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
        let map = self.kernel(&ByPc);
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

    /// Callers of `func`: which functions the profiled events in
    /// `func` were called from, with sample counts.
    ///
    /// Callstacks live in the experiments, not the batch, so this key
    /// runs on the kernel's serial path.
    pub fn callers_of(&self, func: &str) -> Vec<FunctionRow> {
        let map = self.kernel(&|b: &EventBatch, i: usize| {
            let leaf = self.syms.func_at(b.pc[i])?;
            if leaf.name != func {
                return None;
            }
            let (xi, ei, is_clock) = b.src_of(i);
            let stack = if is_clock {
                &self.experiments[xi].clock_events[ei].callstack
            } else {
                &self.experiments[xi].hwc_events[ei].callstack
            };
            let caller = stack
                .last()
                .and_then(|&pc| self.syms.func_at(pc))
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "<no caller>".to_string());
            Some(caller)
        });
        let mut rows: Vec<FunctionRow> = map
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

    /// Callees of `func`: attribute each sample whose callstack
    /// passes through `func` to the *next* frame below it (or to
    /// `func` itself — shown as `<self>` — for samples whose leaf is
    /// `func`). Together with [`Analysis::callers_of`] this is the
    /// §2.3 callers/callees view.
    pub fn callees_of(&self, func: &str) -> Vec<FunctionRow> {
        let map = self.kernel(&|b: &EventBatch, i: usize| {
            let (xi, ei, is_clock) = b.src_of(i);
            let stack = if is_clock {
                &self.experiments[xi].clock_events[ei].callstack
            } else {
                &self.experiments[xi].hwc_events[ei].callstack
            };
            // Find `func` as the innermost matching frame.
            let pos = stack
                .iter()
                .rposition(|&pc| self.syms.func_at(pc).is_some_and(|f| f.name == func));
            match pos {
                Some(p) => {
                    // The frame below `func` is the callee the metric
                    // flows through; the leaf if `func` is the last
                    // call site.
                    let callee = match stack.get(p + 1) {
                        Some(&pc) => self.syms.func_at(pc).map(|f| f.name.clone()),
                        None => self.syms.func_at(b.pc[i]).map(|f| f.name.clone()),
                    };
                    Some(callee.unwrap_or_else(|| "<unknown>".to_string()))
                }
                None => {
                    // Leaf samples inside `func` itself.
                    let leaf = self.syms.func_at(b.pc[i])?;
                    (leaf.name == func).then(|| "<self>".to_string())
                }
            }
        });
        let mut rows: Vec<FunctionRow> = map
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
        let incl = self.inclusive_of(func);
        let cells: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| fmt_val_pct(c, incl[i], totals[i]))
            .collect();
        writeln!(out, "*: {}   {func} (inclusive)", cells.join("  ")).unwrap();
        writeln!(out, "Callees of `{func}`:").unwrap();
        fmt_rows(&mut out, &self.callees_of(func));
        out
    }

    /// Inclusive metrics: samples whose callstack passes through
    /// `func` (or whose leaf is `func`).
    pub fn inclusive_of(&self, func: &str) -> Vec<u64> {
        let b = &self.batch;
        let mut out = vec![0u64; self.columns.len()];
        for i in 0..b.len() {
            let (xi, ei, is_clock) = b.src_of(i);
            let stack = if is_clock {
                &self.experiments[xi].clock_events[ei].callstack
            } else {
                &self.experiments[xi].hwc_events[ei].callstack
            };
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

    /// The experiment's user-visible metric column for an event kind,
    /// if collected with backtracking.
    pub fn data_columns(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].is_data_column())
            .collect()
    }

    /// Column index by title prefix (convenience for tests/benches).
    pub fn col_by_event(&self, event: simsparc_machine::CounterEvent) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| matches!(c.kind, ColKind::Hwc { event: e, .. } if e == event))
    }

    /// Column index of the User CPU (clock) column, if any.
    pub fn user_cpu_col(&self) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| matches!(c.kind, ColKind::UserCpu { .. }))
    }

    /// Fraction of samples in a column attributed to each artificial
    /// or real pc predicate — general helper used by tests.
    pub fn count_where<F: Fn(&Attribution) -> bool>(&self, col: usize, pred: F) -> u64 {
        (0..self.batch.len())
            .filter(|&i| self.batch.col[i] as usize == col && pred(&self.batch.attribution(i)))
            .count() as u64
    }
}
