//! The analyzer (`er_print`/Analyzer, §2.3): data reduction,
//! candidate-trigger-PC validation against the compiler's
//! branch-target tables, and the metric views of §3.2 —
//! function list, PCs, annotated source and disassembly, and the
//! data-object views that are the paper's contribution.
//!
//! Multiple experiments can be analyzed together (the paper's two
//! `collect` runs produce the five-column tables of Figures 2–7).

mod addrviews;
mod dataobjects;
mod feedback;
mod source;
mod views;

pub use addrviews::{CacheLineRow, InstanceReport, PageRow, SegmentRow};
pub use dataobjects::{DataObjectRow, EffectivenessRow, StructExpansion};
pub use source::{DisasmRow, LineRow, SourceRow};
pub use views::{FunctionRow, PcRow, TotalMetrics};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use minic::{MemDesc, SymbolTable};
use simsparc_machine::CounterEvent;

use crate::batch::{aggregate_by, AttrTag, BatchEvent, EventBatch, GroupKey, NO_ID, NO_LINE};
use crate::experiment::Experiment;

/// What a metric column measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Clock-profiling samples (User CPU time).
    UserCpu { experiment: usize },
    /// A hardware counter.
    Hwc {
        experiment: usize,
        counter: usize,
        event: CounterEvent,
        backtrack: bool,
    },
}

/// One metric column of the combined analysis.
#[derive(Clone, Debug)]
pub struct MetricCol {
    pub kind: ColKind,
    /// Display title (e.g. `E$ Stall Cycles`).
    pub title: String,
    /// Events (or cycles) represented by one recorded sample.
    pub interval: u64,
    /// Cycle-valued: display in seconds.
    pub counts_cycles: bool,
    pub clock_hz: u64,
}

impl MetricCol {
    /// Scale a raw sample count to the estimated event total.
    pub fn scaled(&self, samples: u64) -> f64 {
        samples as f64 * self.interval as f64
    }

    /// Estimated seconds, for cycle-valued columns.
    pub fn secs(&self, samples: u64) -> Option<f64> {
        self.counts_cycles
            .then(|| self.scaled(samples) / self.clock_hz as f64)
    }

    /// Does this column carry data-object information (a backtracked
    /// memory counter)?
    pub fn is_data_column(&self) -> bool {
        matches!(
            self.kind,
            ColKind::Hwc {
                backtrack: true,
                ..
            }
        )
    }
}

/// The taxonomy of §3.2.5 for events that cannot be attributed to a
/// data object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnknownKind {
    /// The compiler did not give a symbolic reference.
    Unspecified,
    /// The backtracking could not determine the trigger PC (either no
    /// memory instruction in range or blocked by a branch target).
    Unresolvable,
    /// The module was not compiled with `-xhwcprof`.
    Unascertainable,
    /// The compiler did not identify the data object (a compiler
    /// temporary).
    Unidentified,
    /// Branch-target information was inadequate to validate the
    /// trigger PC (module without DWARF).
    Unverifiable,
}

impl UnknownKind {
    pub const ALL: [UnknownKind; 5] = [
        UnknownKind::Unspecified,
        UnknownKind::Unresolvable,
        UnknownKind::Unascertainable,
        UnknownKind::Unidentified,
        UnknownKind::Unverifiable,
    ];

    pub fn label(self) -> &'static str {
        match self {
            UnknownKind::Unspecified => "(Unspecified)",
            UnknownKind::Unresolvable => "(Unresolvable)",
            UnknownKind::Unascertainable => "(Unascertainable)",
            UnknownKind::Unidentified => "(Unidentified)",
            UnknownKind::Unverifiable => "(Unverifiable)",
        }
    }
}

/// The result of validating one profile event.
#[derive(Clone, Debug)]
pub enum Attribution {
    /// Validated candidate trigger PC with a data-object descriptor.
    DataObject { pc: u64, desc: MemDesc },
    /// Validated candidate, but the event cannot be mapped to a data
    /// object; `kind` says why. For `Unresolvable` blocked by a
    /// branch target, `pc` is the *artificial branch-target PC* the
    /// metric is attributed to (§2.3).
    Unknown { pc: u64, kind: UnknownKind },
    /// Counter collected without backtracking (or a clock tick): the
    /// event attributes to the delivered PC, as in classic
    /// instruction-space profiling.
    Plain { pc: u64 },
}

impl Attribution {
    /// The PC the event's metric is charged to.
    pub fn pc(&self) -> u64 {
        match *self {
            Attribution::DataObject { pc, .. }
            | Attribution::Unknown { pc, .. }
            | Attribution::Plain { pc } => pc,
        }
    }

    /// Was the event attributed to an artificial `<branch target>` PC?
    pub fn is_artificial(&self) -> bool {
        matches!(
            self,
            Attribution::Unknown {
                kind: UnknownKind::Unresolvable,
                ..
            }
        )
    }
}

/// A combined analysis over one or more experiments (loaded from text
/// directories or packed stores, or merged from several runs).
///
/// Reduction happens once, at construction: every event is validated
/// and written into a cached columnar [`EventBatch`]; each view is
/// then a [`crate::batch::aggregate_by`] fold over that batch under
/// its own [`GroupKey`] — no view re-walks the raw events.
pub struct Analysis<'a> {
    pub experiments: Vec<&'a Experiment>,
    pub syms: &'a SymbolTable,
    pub columns: Vec<MetricCol>,
    /// The columnar form of every validated event, built once and
    /// shared by all views.
    pub batch: EventBatch,
}

impl<'a> Analysis<'a> {
    /// Reduce the experiments: build the column set, validate every
    /// hardware-counter event, and attribute clock ticks.
    pub fn new(experiments: &[&'a Experiment], syms: &'a SymbolTable) -> Analysis<'a> {
        let mut columns = Vec::new();
        for (xi, exp) in experiments.iter().enumerate() {
            if let Some(period) = exp.clock_period {
                columns.push(MetricCol {
                    kind: ColKind::UserCpu { experiment: xi },
                    title: "User CPU".to_string(),
                    interval: period,
                    counts_cycles: true,
                    clock_hz: exp.run.clock_hz,
                });
            }
        }
        for (xi, exp) in experiments.iter().enumerate() {
            for (ci, req) in exp.counters.iter().enumerate() {
                columns.push(MetricCol {
                    kind: ColKind::Hwc {
                        experiment: xi,
                        counter: ci,
                        event: req.event,
                        backtrack: req.backtrack,
                    },
                    title: req.event.title().to_string(),
                    interval: req.interval,
                    counts_cycles: req.event.counts_cycles(),
                    clock_hz: exp.run.clock_hz,
                });
            }
        }

        // The batch preserves collection order within each column
        // (feedback generation depends on the EA sequence order).
        // Attribution is a pure function of (backtracked?, candidate
        // PC, delivered PC), and a run revisits a few dozen such keys
        // across hundreds of thousands of events, so each distinct key
        // is validated and resolved once and its charge stamped onto
        // every event that shares it. Descriptors intern when their
        // key first appears, i.e. in first-appearance order.
        let rows = experiments
            .iter()
            .map(|e| e.clock_events.len() + e.hwc_events.len())
            .sum();
        let mut batch = EventBatch::new(columns.len());
        batch.reserve(rows);
        let mut memo: HashMap<(bool, Option<u64>, u64), Charge, BuildHasherDefault<KeyHasher>> =
            HashMap::default();
        for (col_idx, col) in columns.iter().enumerate() {
            match col.kind {
                ColKind::UserCpu { experiment } => {
                    for (ei, ev) in experiments[experiment].clock_events.iter().enumerate() {
                        let c = *memo.entry((false, None, ev.pc)).or_insert_with(|| {
                            Charge::resolve(syms, &mut batch, false, None, ev.pc)
                        });
                        c.push(&mut batch, col_idx, None, (experiment, ei, true));
                    }
                }
                ColKind::Hwc {
                    experiment,
                    counter,
                    backtrack,
                    ..
                } => {
                    for (ei, ev) in experiments[experiment]
                        .hwc_events
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.counter == counter)
                    {
                        // Without backtracking the candidate is never
                        // consulted, so it stays out of the key.
                        let candidate = ev.candidate_pc.filter(|_| backtrack);
                        let c = *memo
                            .entry((backtrack, candidate, ev.delivered_pc))
                            .or_insert_with(|| {
                                Charge::resolve(
                                    syms,
                                    &mut batch,
                                    backtrack,
                                    candidate,
                                    ev.delivered_pc,
                                )
                            });
                        c.push(&mut batch, col_idx, ev.ea, (experiment, ei, false));
                    }
                }
            }
        }

        Analysis {
            experiments: experiments.to_vec(),
            syms,
            columns,
            batch,
        }
    }

    /// Total raw sample counts per column.
    pub fn totals(&self) -> Vec<u64> {
        self.batch.totals()
    }

    /// Fold the cached batch under a grouping key. Keyers without a
    /// raw key column — the closures that chase callstacks back into
    /// the experiments — take the serial fold.
    pub(crate) fn kernel<G: GroupKey>(&self, keyer: &G) -> HashMap<G::Key, Vec<u64>> {
        aggregate_by(&self.batch, keyer)
    }
}

/// A multiply-rotate hasher (rustc's `FxHasher` scheme) for the
/// attribution memo. Its keys are a few dozen PCs, looked up once per
/// event: SipHash's flooding resistance buys nothing here and costs
/// more than the rest of the per-event work.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The charge of one attribution key: the validated (possibly
/// artificial) PC, its verdict and interned descriptor, and the
/// enclosing function and source line of that PC.
#[derive(Clone, Copy)]
struct Charge {
    pc: u64,
    tag: AttrTag,
    desc: u32,
    func: u32,
    line: u32,
}

impl Charge {
    /// Validate one key (backtracked counters only; everything else is
    /// charged to the delivered PC) and resolve its symbols, interning
    /// a data-object descriptor into `batch`.
    fn resolve(
        syms: &SymbolTable,
        batch: &mut EventBatch,
        backtrack: bool,
        candidate_pc: Option<u64>,
        delivered_pc: u64,
    ) -> Charge {
        let attr = if backtrack {
            validate(syms, candidate_pc, delivered_pc)
        } else {
            Attribution::Plain { pc: delivered_pc }
        };
        let pc = attr.pc();
        let (tag, desc) = match &attr {
            Attribution::Plain { .. } => (AttrTag::Plain, NO_ID),
            Attribution::DataObject { desc, .. } => (AttrTag::Data, batch.intern_desc(desc)),
            Attribution::Unknown { kind, .. } => (AttrTag::from_unknown(*kind), NO_ID),
        };
        Charge {
            pc,
            tag,
            desc,
            func: syms.func_index_at(pc).map(|i| i as u32).unwrap_or(NO_ID),
            line: syms.line_at(pc).unwrap_or(NO_LINE),
        }
    }

    /// Append one event carrying this charge.
    fn push(self, batch: &mut EventBatch, col: usize, ea: Option<u64>, src: (usize, usize, bool)) {
        // An Unresolvable event's candidate window crossed a branch
        // target, so its reconstructed address is untrustworthy: the
        // access that produced it may never have executed. Drop the EA
        // so address-space views are built only from addresses the
        // analysis can stand behind. (Collection now drops these at the
        // source too; this guards data recorded by older collectors.)
        let ea = ea.filter(|_| self.tag != AttrTag::UnkUnresolvable);
        batch.push(BatchEvent {
            col,
            pc: self.pc,
            ea,
            tag: self.tag,
            desc: self.desc,
            func: self.func,
            line: self.line,
            src,
        });
    }
}

/// Validate a candidate trigger PC (§2.3): the module must have been
/// compiled for memory profiling, with DWARF (so branch-target
/// information exists), and no branch target may lie between the
/// candidate and the delivered PC — otherwise "the analysis code can
/// not determine how the code got to the point of the interrupt".
pub fn validate(syms: &SymbolTable, candidate_pc: Option<u64>, delivered_pc: u64) -> Attribution {
    let Some(c) = candidate_pc else {
        return Attribution::Unknown {
            pc: delivered_pc,
            kind: UnknownKind::Unresolvable,
        };
    };
    let Some(module) = syms.module_at(c) else {
        return Attribution::Unknown {
            pc: c,
            kind: UnknownKind::Unascertainable,
        };
    };
    if !module.hwcprof {
        return Attribution::Unknown {
            pc: c,
            kind: UnknownKind::Unascertainable,
        };
    }
    if !module.dwarf {
        return Attribution::Unknown {
            pc: c,
            kind: UnknownKind::Unverifiable,
        };
    }
    if let Some(bt) = syms.branch_target_between(c, delivered_pc) {
        // Attributed to an artificial branch-target PC.
        return Attribution::Unknown {
            pc: bt,
            kind: UnknownKind::Unresolvable,
        };
    }
    match syms.meta_at(c).map(|m| &m.memdesc) {
        Some(MemDesc::Member { .. }) | Some(MemDesc::Scalar { .. }) => Attribution::DataObject {
            pc: c,
            desc: syms.meta_at(c).unwrap().memdesc.clone(),
        },
        Some(MemDesc::Temporary) => Attribution::Unknown {
            pc: c,
            kind: UnknownKind::Unidentified,
        },
        _ => Attribution::Unknown {
            pc: c,
            kind: UnknownKind::Unspecified,
        },
    }
}

/// Format a value/percent pair the way the paper's tables do.
pub(crate) fn fmt_val_pct(col: &MetricCol, samples: u64, total: u64) -> String {
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * samples as f64 / total as f64
    };
    match col.secs(samples) {
        Some(s) => format!("{s:>10.3} {pct:>5.1}"),
        None => format!("{pct:>5.1}"),
    }
}
