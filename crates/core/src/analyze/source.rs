//! Annotated source (Figure 3) and annotated disassembly (Figure 4).
//!
//! The disassembly view interleaves artificial `<branch target>` rows
//! (flagged with `*`) carrying the metrics of events whose
//! backtracking was blocked by that target — exactly the presentation
//! the paper describes in §3.2.3.

use std::collections::HashMap;
use std::fmt::Write as _;

use minic::render_memdesc;
use simsparc_isa::disasm;

use super::Analysis;
use crate::batch::{ByLine, ByLineInRange, ByPcInRange, NO_ID};

/// One line of annotated source.
#[derive(Clone, Debug)]
pub struct SourceRow {
    pub line_no: u32,
    pub text: String,
    pub samples: Vec<u64>,
}

/// One row of the per-source-line view (`er_print lines`).
#[derive(Clone, Debug)]
pub struct LineRow {
    pub function: String,
    pub line_no: u32,
    pub text: String,
    pub samples: Vec<u64>,
}

/// One row of annotated disassembly.
#[derive(Clone, Debug)]
pub struct DisasmRow {
    pub pc: u64,
    /// Source line of the instruction.
    pub line: u32,
    /// `true` for the artificial `<branch target>` pseudo-row.
    pub artificial: bool,
    /// Disassembled text (empty for artificial rows).
    pub text: String,
    /// Rendered data-object descriptor, if the instruction has one.
    pub descriptor: String,
    pub samples: Vec<u64>,
}

impl Analysis<'_> {
    /// Figure 3: the function's source, annotated per line.
    pub fn annotated_source(&self, func: &str) -> Option<Vec<SourceRow>> {
        let f = self.syms.funcs.iter().find(|f| f.name == func)?;
        let module = &self.syms.modules[f.module];
        let ncols = self.columns.len();

        // Accumulate samples per line, restricted to this function.
        // The batch caches each event's source line, so the keyer
        // only needs the function's pc range.
        let map = self.kernel(&ByLineInRange {
            entry: f.entry,
            end: f.end,
        });

        // Line span of the function: from its metadata.
        let mut min_line = u32::MAX;
        let mut max_line = 0;
        let mut pc = f.entry;
        while pc < f.end {
            if let Some(l) = self.syms.line_at(pc) {
                if l > 0 {
                    min_line = min_line.min(l);
                    max_line = max_line.max(l);
                }
            }
            pc += 4;
        }
        if min_line == u32::MAX {
            return None;
        }

        let lines: Vec<&str> = module.source.lines().collect();
        let mut rows = Vec::new();
        for line_no in min_line..=max_line {
            let text = lines
                .get(line_no as usize - 1)
                .map(|s| s.to_string())
                .unwrap_or_default();
            let samples = map.get(&line_no).cloned().unwrap_or_else(|| vec![0; ncols]);
            rows.push(SourceRow {
                line_no,
                text,
                samples,
            });
        }
        Some(rows)
    }

    /// Render Figure 3. Hot lines (>= 5% of a column total) are
    /// flagged with `##` like the paper's listings.
    pub fn render_annotated_source(&self, func: &str) -> Option<String> {
        let rows = self.annotated_source(func)?;
        let totals = self.totals();
        let mut out = String::new();
        writeln!(out, "Annotated source of `{func}`").unwrap();
        for r in rows {
            let hot = r
                .samples
                .iter()
                .zip(&totals)
                .any(|(&s, &t)| t > 0 && s * 20 >= t);
            let marker = if hot { "##" } else { "  " };
            let cells: Vec<String> = self
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| match c.secs(r.samples[i]) {
                    Some(s) => format!("{s:>9.3}"),
                    None => format!("{:>7}", r.samples[i]),
                })
                .collect();
            writeln!(
                out,
                "{marker} {}  {:>4}. {}",
                cells.join(" "),
                r.line_no,
                r.text
            )
            .unwrap();
        }
        Some(out)
    }

    /// The `lines` view: metrics aggregated by (function, source
    /// line) across the whole program, hottest first.
    pub fn hot_lines(&self, sort_col: usize, limit: usize) -> Vec<LineRow> {
        // Aggregate on interned (function id, line) pairs, then fold
        // ids into (name, module, line) keys — duplicate names merge
        // exactly as when keying on the name directly.
        let map = self.kernel(&ByLine);
        let mut by_name: HashMap<(String, usize, u32), Vec<u64>> = HashMap::new();
        for ((fid, line), samples) in map {
            if fid == NO_ID {
                continue;
            }
            let f = &self.syms.funcs[fid as usize];
            match by_name.entry((f.name.clone(), f.module, line)) {
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
        let mut rows: Vec<LineRow> = by_name
            .into_iter()
            .map(|((function, module, line_no), samples)| {
                let text = self.syms.modules[module]
                    .source
                    .lines()
                    .nth(line_no.saturating_sub(1) as usize)
                    .unwrap_or("")
                    .trim()
                    .to_string();
                LineRow {
                    function,
                    line_no,
                    text,
                    samples,
                }
            })
            .collect();
        super::views::sort_by_metric(
            &mut rows,
            |r| r.samples[sort_col],
            |a, b| (&a.function, a.line_no).cmp(&(&b.function, b.line_no)),
        );
        rows.truncate(limit);
        rows
    }

    /// Figure 4: annotated disassembly with `<branch target>` rows.
    pub fn annotated_disasm(&self, func: &str) -> Option<Vec<DisasmRow>> {
        let f = self.syms.funcs.iter().find(|f| f.name == func)?.clone();
        let ncols = self.columns.len();

        // Real-instruction samples.
        let real = self.kernel(&ByPcInRange {
            entry: f.entry,
            end: f.end,
            artificial: false,
        });
        // Artificial branch-target samples.
        let artificial = self.kernel(&ByPcInRange {
            entry: f.entry,
            end: f.end,
            artificial: true,
        });

        // Instructions from the first experiment's text are not
        // available here; the symbol table has enough (meta) but the
        // instruction words live in the machine image. The analyzer
        // receives them through the `text` argument of
        // `annotated_disasm_with_text`; this variant fills in
        // placeholders.
        let mut rows = Vec::new();
        let mut pc = f.entry;
        while pc < f.end {
            let meta = self.syms.meta_at(pc);
            let line = meta.map(|m| m.line).unwrap_or(0);
            if meta.is_some_and(|m| m.is_branch_target) || artificial.contains_key(&pc) {
                rows.push(DisasmRow {
                    pc,
                    line,
                    artificial: true,
                    text: "<branch target>".to_string(),
                    descriptor: String::new(),
                    samples: artificial
                        .get(&pc)
                        .cloned()
                        .unwrap_or_else(|| vec![0; ncols]),
                });
            }
            let descriptor = meta.map(|m| render_memdesc(&m.memdesc)).unwrap_or_default();
            rows.push(DisasmRow {
                pc,
                line,
                artificial: false,
                text: String::new(),
                descriptor,
                samples: real.get(&pc).cloned().unwrap_or_else(|| vec![0; ncols]),
            });
            pc += 4;
        }
        Some(rows)
    }

    /// Figure 4 with instruction text: `text` is the loaded program
    /// text (from [`minic::Program::image`]).
    pub fn render_annotated_disasm(
        &self,
        func: &str,
        text: &[simsparc_isa::Insn],
    ) -> Option<String> {
        let rows = self.annotated_disasm(func)?;
        let totals = self.totals();
        let base = self.syms.text_base;
        let mut out = String::new();
        writeln!(out, "Annotated disassembly of `{func}`").unwrap();
        for r in rows {
            let hot = r
                .samples
                .iter()
                .zip(&totals)
                .any(|(&s, &t)| t > 0 && s * 20 >= t);
            let marker = if hot { "##" } else { "  " };
            let cells: Vec<String> = self
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| match c.secs(r.samples[i]) {
                    Some(s) => format!("{s:>9.3}"),
                    None => format!("{:>7}", r.samples[i]),
                })
                .collect();
            if r.artificial {
                writeln!(
                    out,
                    "{marker} {}  [{:>3}] {:#x}* <branch target>",
                    cells.join(" "),
                    r.line,
                    r.pc
                )
                .unwrap();
            } else {
                let idx = ((r.pc - base) / 4) as usize;
                let asm = text
                    .get(idx)
                    .map(|i| disasm(i, r.pc))
                    .unwrap_or_else(|| "???".to_string());
                write!(
                    out,
                    "{marker} {}  [{:>3}] {:#x}: {}",
                    cells.join(" "),
                    r.line,
                    r.pc,
                    asm
                )
                .unwrap();
                if !r.descriptor.is_empty() {
                    write!(out, "  {}", r.descriptor).unwrap();
                }
                out.push('\n');
            }
        }
        Some(out)
    }
}
