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

pub use addrviews::{
    addr_rows, render_addr_rows, AddrBucket, AddrMap, CacheLineRow, InstanceReport, PageRow,
    SegmentRow, EC_LINE_BYTES, PAGE_BYTES,
};
pub use dataobjects::{
    data_objects_of_pairs, render_data_object_rows, DataObjectRow, EffectivenessRow,
    StructExpansion,
};
pub use source::{DisasmRow, LineRow, SourceRow};
pub use views::{FunctionRow, PcRow, TotalMetrics};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use minic::{MemDesc, SymbolTable};
use simsparc_machine::CounterEvent;

use crate::batch::{AttrTag, BatchEvent, EventBatch, NO_ID, NO_LINE};
use crate::experiment::{attribution_key, Experiment};

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

/// The indices of the backtracked (data-object) columns in `columns`.
pub fn data_columns(columns: &[MetricCol]) -> Vec<usize> {
    (0..columns.len())
        .filter(|&i| columns[i].is_data_column())
        .collect()
}

/// The first counter column of `event` in `columns`.
pub fn col_by_event(columns: &[MetricCol], event: CounterEvent) -> Option<usize> {
    columns
        .iter()
        .position(|c| matches!(c.kind, ColKind::Hwc { event: e, .. } if e == event))
}

/// The User CPU (clock) column in `columns`, if any.
pub fn user_cpu_col(columns: &[MetricCol]) -> Option<usize> {
    columns
        .iter()
        .position(|c| matches!(c.kind, ColKind::UserCpu { .. }))
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

    /// Does an event attributed this way keep its effective address?
    /// The one address rule of the address-space views, for the
    /// analysis and the store's address fold alike. An Unresolvable
    /// event's candidate window crossed a branch target (or held no
    /// candidate at all), so its reconstructed address is
    /// untrustworthy: the access that produced it may never have
    /// executed. Its address is dropped, so those views are built only
    /// from addresses the analysis can stand behind. (Collection drops
    /// these at the source too; this guards data recorded by older
    /// collectors.)
    pub fn keeps_ea(&self) -> bool {
        !self.is_artificial()
    }
}

/// Attribute one event by its [`attribution_key`] and the backtrack
/// flag of its counter: a backtracked counter's candidate is validated
/// ([`validate`]); every other event — a counter without backtracking,
/// a clock tick — is charged to its delivered PC. The key `(None, d)`
/// therefore stands for two events: a plain counter's, which is
/// `Plain`, and a backtracked one with no candidate, which is
/// Unresolvable.
pub fn attribute(
    syms: &SymbolTable,
    backtrack: bool,
    candidate_pc: Option<u64>,
    delivered_pc: u64,
) -> Attribution {
    if backtrack {
        validate(syms, candidate_pc, delivered_pc)
    } else {
        Attribution::Plain { pc: delivered_pc }
    }
}

/// A combined analysis over one or more experiments (loaded from text
/// directories or packed stores, or merged from several runs).
///
/// Reduction happens once, at construction: every event is validated
/// and written into a cached columnar [`EventBatch`]; each view is
/// then one [`crate::batch::aggregate_by`] fold over that batch under
/// its own keyer, a raw `u64` per row and its decode
/// ([`crate::batch::GroupKey`]). No view re-walks the raw events;
/// callers/callees reach each row's callstack through its provenance
/// and key it by function index.
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
        // Attribution is a pure function of the backtrack flag and the
        // event's [`attribution_key`], and a run revisits a few dozen
        // such keys across hundreds of thousands of events, so each
        // distinct key is validated and resolved once and its charge
        // stamped onto every event that shares it. Descriptors intern
        // when their key first appears, i.e. in first-appearance order.
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
                        let (candidate, delivered) = attribution_key(ev, backtrack);
                        let c = *memo
                            .entry((backtrack, candidate, delivered))
                            .or_insert_with(|| {
                                Charge::resolve(syms, &mut batch, backtrack, candidate, delivered)
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
}

/// A multiply-rotate hasher (rustc's `FxHasher` scheme) for maps
/// looked up once per event: the attribution memo here, and the
/// store's pair and address folds. Their keys are a few dozen PC pairs
/// or some thousands of address buckets: SipHash's flooding resistance
/// buys nothing here and costs more than the rest of the per-event
/// work. A lone `u64` key keeps its trailing zero bits through the
/// multiply, and the map indexes by the low bits, so such keys must not
/// be aligned addresses ([`AddrBucket::key`] numbers blocks instead).
#[derive(Default)]
pub struct KeyHasher(u64);

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
/// artificial) PC, its verdict and interned descriptor, whether its
/// events keep their effective address, and the enclosing function
/// and source line of that PC.
#[derive(Clone, Copy)]
struct Charge {
    pc: u64,
    tag: AttrTag,
    desc: u32,
    keeps_ea: bool,
    func: u32,
    line: u32,
}

impl Charge {
    /// [`attribute`] one key and resolve its symbols, interning a
    /// data-object descriptor into `batch`.
    fn resolve(
        syms: &SymbolTable,
        batch: &mut EventBatch,
        backtrack: bool,
        candidate_pc: Option<u64>,
        delivered_pc: u64,
    ) -> Charge {
        let attr = attribute(syms, backtrack, candidate_pc, delivered_pc);
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
            keeps_ea: attr.keeps_ea(),
            func: syms.func_index_at(pc).map(|i| i as u32).unwrap_or(NO_ID),
            line: syms.line_at(pc).unwrap_or(NO_LINE),
        }
    }

    /// Append one event carrying this charge, with its effective
    /// address only when the charge keeps it ([`Attribution::keeps_ea`]).
    fn push(self, batch: &mut EventBatch, col: usize, ea: Option<u64>, src: (usize, usize, bool)) {
        let ea = ea.filter(|_| self.keeps_ea);
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

#[cfg(test)]
mod tests {
    use super::addrviews::ByInstanceBase;
    use super::dataobjects::{ByDataObject, ByMemberName};
    use super::views::ByStackFunc;
    use super::*;
    use crate::batch::{aggregate_by, aggregate_by_serial, GroupKey};
    use crate::{collect, parse_counter_spec, CollectConfig};
    use minic::{compile_and_link, CompileOptions, Program};
    use simsparc_machine::{Machine, MachineConfig};

    /// The particles sweep of `workloads/particles.c`, split into
    /// functions so callstacks have depth, on 20,000 particles.
    const PARTICLES: &str = r#"
extern char *malloc(long nbytes);

struct particle {
    long x;
    long y;
    long vx;
    long vy;
    long mass;
    long charge;
};

long sweeps;

long init(struct particle *ps, long n) {
    struct particle *p;
    for (p = ps; p < ps + n; p = p + 1) {
        p->x = (long)p % 97;
        p->y = (long)p % 89;
        p->vx = 1;
        p->vy = 2;
        p->mass = 3;
        p->charge = 1;
    }
    return n;
}

long push(struct particle *p) {
    p->x = p->x + p->vx;
    p->y = p->y + p->vy;
    return p->mass * (p->vx * p->vx + p->vy * p->vy);
}

long sweep(struct particle *ps, long n) {
    struct particle *p;
    long energy = 0;
    for (p = ps; p < ps + n; p = p + 1) {
        energy = energy + push(p);
    }
    sweeps = sweeps + 1;
    return energy;
}

long main() {
    long n = 20000;
    struct particle *ps = (struct particle*)malloc(n * sizeof(struct particle));
    long step;
    long energy = 0;
    init(ps, n);
    for (step = 0; step < 3; step = step + 1) {
        energy = energy + sweep(ps, n);
    }
    print_long(energy);
    return 0;
}
"#;

    /// One profiled run on a memory hierarchy scaled down so the
    /// ~1 MB particle array misses the E$.
    fn run(program: &Program, spec: &str, clock: bool) -> Experiment {
        let mut cfg = MachineConfig::default();
        cfg.dcache.bytes = 16 * 1024;
        cfg.ecache.bytes = 256 * 1024;
        let mut m = Machine::new(cfg);
        m.load(&program.image);
        let config = CollectConfig {
            counters: parse_counter_spec(spec).unwrap(),
            clock_profiling: clock,
            clock_period_cycles: 4001,
            ..CollectConfig::default()
        };
        collect(&mut m, &config).unwrap()
    }

    /// The paper's two experiments: E1 (E$ stalls and read misses,
    /// plus clock ticks) and E2 (E$ references and DTLB misses).
    fn experiments() -> (Program, Experiment, Experiment) {
        let program =
            compile_and_link(&[("particles.c", PARTICLES)], CompileOptions::profiling()).unwrap();
        let e1 = run(&program, "+ecstall,997,+ecrm,101", true);
        let e2 = run(&program, "+ecref,211,+dtlbm,53", false);
        (program, e1, e2)
    }

    fn assert_oracle<G: GroupKey>(a: &Analysis, keyer: &G) -> usize
    where
        G::Key: std::fmt::Debug,
    {
        let map = aggregate_by(&a.batch, keyer);
        assert_eq!(map, aggregate_by_serial(&a.batch, keyer));
        map.len()
    }

    /// Every private keyer folds to the oracle's map over a real run.
    #[test]
    fn analyzer_keyers_equal_the_oracle_fold() {
        let (program, e1, e2) = experiments();
        let a = Analysis::new(&[&e1, &e2], &program.syms);
        let data_cols = a.data_columns();
        let ncols = a.columns.len();
        let by_object = ByDataObject::new(&a.batch, &data_cols, ncols);
        assert!(assert_oracle(&a, &by_object) > 1);
        let by_member = ByMemberName::new(&a.batch, &data_cols, ncols, "particle");
        assert!(assert_oracle(&a, &by_member) > 1);
        assert!(assert_oracle(&a, &AddrBucket::Segment) > 1);
        let by_instance = ByInstanceBase::new(&a.batch, "particle");
        assert!(assert_oracle(&a, &by_instance) > 100);
        for f in &program.syms.funcs {
            for callees in [false, true] {
                let keyer = ByStackFunc {
                    analysis: &a,
                    func: &f.name,
                    callees,
                };
                assert_oracle(&a, &keyer);
            }
        }
    }

    /// The callers/callees rows by a walk over every event's stack in
    /// its experiment, keyed by function *name* per event.
    fn stack_walk(a: &Analysis, func: &str, callees: bool) -> Vec<(String, Vec<u64>)> {
        let name = |pc: u64| a.syms.func_at(pc).map(|f| f.name.clone());
        let b = &a.batch;
        let mut map: HashMap<String, Vec<u64>> = HashMap::new();
        for i in 0..b.len() {
            let (xi, ei, is_clock) = b.src_of(i);
            let exp = a.experiments[xi];
            let id = if is_clock {
                exp.clock_events[ei].stack
            } else {
                exp.hwc_events[ei].stack
            };
            let stack = &exp.stacks[id as usize];
            let leaf = name(b.pc[i]);
            let key = if callees {
                match stack
                    .iter()
                    .rposition(|&pc| name(pc).as_deref() == Some(func))
                {
                    Some(p) => Some(
                        stack
                            .get(p + 1)
                            .map_or(leaf, |&pc| name(pc))
                            .unwrap_or_else(|| "<unknown>".to_string()),
                    ),
                    None => (leaf.as_deref() == Some(func)).then(|| "<self>".to_string()),
                }
            } else {
                (leaf.as_deref() == Some(func)).then(|| {
                    stack
                        .last()
                        .and_then(|&pc| name(pc))
                        .unwrap_or_else(|| "<no caller>".to_string())
                })
            };
            if let Some(k) = key {
                map.entry(k).or_insert_with(|| vec![0; a.columns.len()])[b.col[i] as usize] += 1;
            }
        }
        let mut rows: Vec<(String, Vec<u64>)> = map.into_iter().collect();
        let total = |r: &(String, Vec<u64>)| r.1.iter().sum::<u64>();
        rows.sort_by(|x, y| total(y).cmp(&total(x)).then_with(|| x.0.cmp(&y.0)));
        rows
    }

    /// The callers/callees view prints the column sums of the callees
    /// rows as its inclusive line; the stack walk agrees for every
    /// function.
    #[test]
    fn inclusive_metrics_are_the_column_sums_of_the_callees_rows() {
        let (program, e1, e2) = experiments();
        let a = Analysis::new(&[&e1, &e2], &program.syms);
        for f in &program.syms.funcs {
            let mut sums = vec![0u64; a.columns.len()];
            for r in a.callees_of(&f.name) {
                for (t, x) in sums.iter_mut().zip(&r.samples) {
                    *t += x;
                }
            }
            assert_eq!(a.inclusive_of(&f.name), sums, "{}", f.name);
        }
        assert!(a.inclusive_of("main").iter().sum::<u64>() > 0);
    }

    /// Figure 6 from the histogram of the runs' attribution keys equals
    /// Figure 6 from the analysis of their events, for every sort
    /// column.
    #[test]
    fn data_objects_from_attribution_keys_equal_the_analysis() {
        let (program, e1, e2) = experiments();
        let a = Analysis::new(&[&e1, &e2], &program.syms);
        let mut pairs: std::collections::BTreeMap<(Option<u64>, u64), Vec<u64>> =
            Default::default();
        let ncols = a.columns.len();
        for (col, c) in a.columns.iter().enumerate() {
            let mut add = |key| pairs.entry(key).or_insert_with(|| vec![0; ncols])[col] += 1;
            match c.kind {
                ColKind::UserCpu { experiment } => {
                    for ev in &[&e1, &e2][experiment].clock_events {
                        add((None, ev.pc));
                    }
                }
                ColKind::Hwc {
                    experiment,
                    counter,
                    backtrack,
                    ..
                } => {
                    for ev in &[&e1, &e2][experiment].hwc_events {
                        if ev.counter == counter {
                            add(attribution_key(ev, backtrack));
                        }
                    }
                }
            }
        }
        let rows = |rows: Vec<DataObjectRow>| -> Vec<(String, Vec<u64>)> {
            rows.into_iter().map(|r| (r.name, r.samples)).collect()
        };
        for sort in 0..ncols {
            let from_pairs = data_objects_of_pairs(&program.syms, &a.columns, &pairs, sort);
            assert_eq!(
                rows(from_pairs.clone()),
                rows(a.data_objects(sort)),
                "{sort}"
            );
            assert_eq!(
                render_data_object_rows(&a.columns, &from_pairs),
                a.render_data_objects(sort)
            );
        }
        assert!(a.data_objects(1).len() > 2);
    }

    #[test]
    fn callers_and_callees_equal_a_stack_walk() {
        let (program, e1, e2) = experiments();
        let a = Analysis::new(&[&e1, &e2], &program.syms);
        let rows = |rows: Vec<FunctionRow>| -> Vec<(String, Vec<u64>)> {
            rows.into_iter().map(|r| (r.name, r.samples)).collect()
        };
        for f in &program.syms.funcs {
            assert_eq!(
                rows(a.callers_of(&f.name)),
                stack_walk(&a, &f.name, false),
                "callers of {}",
                f.name
            );
            assert_eq!(
                rows(a.callees_of(&f.name)),
                stack_walk(&a, &f.name, true),
                "callees of {}",
                f.name
            );
        }
        // The run calls `push` from `sweep`, and `sweep` from `main`.
        assert_eq!(a.callers_of("push")[0].name, "sweep");
        let callees: Vec<String> = a.callees_of("main").into_iter().map(|r| r.name).collect();
        assert!(callees.iter().any(|n| n == "sweep"), "{callees:?}");
    }
}
