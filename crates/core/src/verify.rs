//! Differential attribution validation: the ground-truth oracle
//! behind `mp-verify`.
//!
//! The simulated counter unit stamps every overflow trap with the
//! *true* trigger PC and (for memory events) the true effective
//! address; the collector records both alongside the backtracked
//! candidate. This module replays each recorded event through the
//! analyzer's §2.3 validation and compares the profiler's claim
//! against the oracle, producing per-counter precision/recall and a
//! confusion matrix over the §3.2.5 unknown taxonomy. It is how the
//! paper's "accuracies of nearly 100% have been observed" claim is
//! checked mechanically rather than eyeballed.
//!
//! The module also hosts a randomized fuzz harness: generate a small
//! mini-C program, compile it with `-xhwcprof`, collect on a scaled
//! machine, verify, and check the structural invariants that the
//! oracle makes checkable (e.g. no `Unresolvable` event may carry a
//! reconstructed address). On failure the harness shrinks the program
//! by dropping statement blocks and reports the disassembled window
//! around the offending event.

use std::fmt::Write as _;

use minic::SymbolTable;

use crate::analyze::{validate, Attribution, UnknownKind};
use crate::{experiment::Experiment, stream::PackedHwcEvent};

/// How one event's recorded attribution compares against the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    /// The claimed trigger PC is the true trigger, and the
    /// reconstructed address (when present) matches the true address.
    Exact,
    /// A concrete trigger PC was claimed, but it is not the true
    /// trigger (another acceptable instruction sat in the skid
    /// window).
    WrongPc,
    /// The right trigger PC, but the reconstructed effective address
    /// disagrees with the truth (a clobbered base register slipped
    /// through).
    WrongEa,
    /// The event was filed as `(Unresolvable)` — no candidate, or a
    /// branch target blocked validation — and attributing would indeed
    /// have been wrong (or there was nothing to attribute).
    CorrectlyInvalidated,
    /// The event was filed as `(Unresolvable)` even though the
    /// discarded candidate *was* the true trigger: conservatism cost a
    /// correct attribution.
    WronglyInvalidated,
}

impl Verdict {
    pub const ALL: [Verdict; 5] = [
        Verdict::Exact,
        Verdict::WrongPc,
        Verdict::WrongEa,
        Verdict::CorrectlyInvalidated,
        Verdict::WronglyInvalidated,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::WrongPc => "wrong-pc",
            Verdict::WrongEa => "wrong-ea",
            Verdict::CorrectlyInvalidated => "correctly-invalidated",
            Verdict::WronglyInvalidated => "wrongly-invalidated",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Where the analyzer filed the event — the confusion-matrix row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Validated candidate with a data-object descriptor.
    Data,
    /// One of the §3.2.5 `(Unknown)` taxonomy entries.
    Unknown(UnknownKind),
    /// Non-backtracked counter: charged to the delivered PC.
    Plain,
}

impl Bucket {
    pub const ALL: [Bucket; 7] = [
        Bucket::Data,
        Bucket::Unknown(UnknownKind::Unspecified),
        Bucket::Unknown(UnknownKind::Unresolvable),
        Bucket::Unknown(UnknownKind::Unascertainable),
        Bucket::Unknown(UnknownKind::Unidentified),
        Bucket::Unknown(UnknownKind::Unverifiable),
        Bucket::Plain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Bucket::Data => "<DataObject>",
            Bucket::Unknown(k) => k.label(),
            Bucket::Plain => "<Plain>",
        }
    }

    fn idx(self) -> usize {
        match self {
            Bucket::Data => 0,
            Bucket::Unknown(UnknownKind::Unspecified) => 1,
            Bucket::Unknown(UnknownKind::Unresolvable) => 2,
            Bucket::Unknown(UnknownKind::Unascertainable) => 3,
            Bucket::Unknown(UnknownKind::Unidentified) => 4,
            Bucket::Unknown(UnknownKind::Unverifiable) => 5,
            Bucket::Plain => 6,
        }
    }
}

/// Classify one recorded event against the oracle columns it carries.
///
/// `backtrack` is the counter's collection mode: without backtracking
/// the profiler's claim is the delivered PC itself (classic
/// instruction-space profiling), which the skid makes wrong almost
/// always — that contrast is the point of Figure 1.
pub fn classify(syms: &SymbolTable, ev: &PackedHwcEvent, backtrack: bool) -> (Bucket, Verdict) {
    let attr = if backtrack {
        validate(syms, ev.candidate_pc, ev.delivered_pc)
    } else {
        Attribution::Plain {
            pc: ev.delivered_pc,
        }
    };
    let bucket = match &attr {
        Attribution::DataObject { .. } => Bucket::Data,
        Attribution::Unknown { kind, .. } => Bucket::Unknown(*kind),
        Attribution::Plain { .. } => Bucket::Plain,
    };
    let verdict = if attr.is_artificial() {
        // The analyzer declined to claim a trigger PC. That was the
        // right call unless the discarded candidate was the truth.
        if ev.candidate_pc == Some(ev.truth_trigger_pc) {
            Verdict::WronglyInvalidated
        } else {
            Verdict::CorrectlyInvalidated
        }
    } else if attr.pc() != ev.truth_trigger_pc {
        Verdict::WrongPc
    } else {
        match (ev.ea, ev.truth_ea) {
            (Some(got), Some(truth)) if got != truth => Verdict::WrongEa,
            // Claiming an address for an event that has none is an
            // address error, not an exact attribution.
            (Some(_), None) => Verdict::WrongEa,
            _ => Verdict::Exact,
        }
    };
    (bucket, verdict)
}

/// Verification results for one counter of an experiment.
#[derive(Clone, Debug)]
pub struct CounterReport {
    pub counter: usize,
    pub title: String,
    pub backtrack: bool,
    pub total: u64,
    /// `matrix[bucket][verdict]` event counts.
    pub matrix: [[u64; 5]; 7],
}

impl CounterReport {
    pub fn verdict_total(&self, v: Verdict) -> u64 {
        self.matrix.iter().map(|row| row[v.idx()]).sum()
    }

    pub fn bucket_total(&self, b: Bucket) -> u64 {
        self.matrix[b.idx()].iter().sum()
    }

    /// Events for which a concrete trigger PC was claimed.
    pub fn attributed(&self) -> u64 {
        self.verdict_total(Verdict::Exact)
            + self.verdict_total(Verdict::WrongPc)
            + self.verdict_total(Verdict::WrongEa)
    }

    /// Of the concrete claims, the fraction that are exactly right
    /// (percent). 100 when nothing was claimed: no claim, no lie.
    pub fn precision_pct(&self) -> f64 {
        let attributed = self.attributed();
        if attributed == 0 {
            100.0
        } else {
            100.0 * self.verdict_total(Verdict::Exact) as f64 / attributed as f64
        }
    }

    /// Of all events, the fraction exactly attributed (percent).
    pub fn recall_pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.verdict_total(Verdict::Exact) as f64 / self.total as f64
        }
    }
}

/// The full differential report for one experiment.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    pub counters: Vec<CounterReport>,
}

/// Replay every hardware-counter event of `exp` through validation
/// and score it against the oracle columns.
pub fn verify_experiment(exp: &Experiment, syms: &SymbolTable) -> VerifyReport {
    let mut counters: Vec<CounterReport> = exp
        .counters
        .iter()
        .enumerate()
        .map(|(ci, req)| CounterReport {
            counter: ci,
            title: req.event.title().to_string(),
            backtrack: req.backtrack,
            total: 0,
            matrix: [[0; 5]; 7],
        })
        .collect();
    for ev in &exp.hwc_events {
        let Some(rep) = counters.get_mut(ev.counter) else {
            continue;
        };
        let (bucket, verdict) = classify(syms, ev, rep.backtrack);
        rep.total += 1;
        rep.matrix[bucket.idx()][verdict.idx()] += 1;
    }
    VerifyReport { counters }
}

impl VerifyReport {
    /// Human-readable report: per-counter summary plus the confusion
    /// matrix (rows: where the analyzer filed the event; columns: how
    /// that compares to the oracle).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10} {:>8}",
            "Counter",
            "Events",
            "Exact",
            "WrongPC",
            "WrongEA",
            "CorrInv",
            "WrongInv",
            "Precision",
            "Recall"
        );
        for c in &self.counters {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9.2}% {:>7.2}%",
                c.title,
                c.total,
                c.verdict_total(Verdict::Exact),
                c.verdict_total(Verdict::WrongPc),
                c.verdict_total(Verdict::WrongEa),
                c.verdict_total(Verdict::CorrectlyInvalidated),
                c.verdict_total(Verdict::WronglyInvalidated),
                c.precision_pct(),
                c.recall_pct(),
            );
        }
        for c in &self.counters {
            if c.total == 0 {
                continue;
            }
            let _ = writeln!(out, "\nConfusion matrix: {}", c.title);
            let _ = write!(out, "{:<18}", "");
            for v in Verdict::ALL {
                let _ = write!(out, " {:>21}", v.label());
            }
            let _ = writeln!(out);
            for b in Bucket::ALL {
                if c.bucket_total(b) == 0 {
                    continue;
                }
                let _ = write!(out, "{:<18}", b.label());
                for v in Verdict::ALL {
                    let _ = write!(out, " {:>21}", c.matrix[b.idx()][v.idx()]);
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Deterministic JSON rendering (one counter object per line), the
    /// format checked into the precision baseline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"title\": \"{}\", \"backtrack\": {}, \"total\": {}, \
                 \"exact\": {}, \"wrong_pc\": {}, \"wrong_ea\": {}, \
                 \"correctly_invalidated\": {}, \"wrongly_invalidated\": {}, \
                 \"precision_pct\": {:.4}, \"recall_pct\": {:.4}}}",
                c.title,
                c.backtrack,
                c.total,
                c.verdict_total(Verdict::Exact),
                c.verdict_total(Verdict::WrongPc),
                c.verdict_total(Verdict::WrongEa),
                c.verdict_total(Verdict::CorrectlyInvalidated),
                c.verdict_total(Verdict::WronglyInvalidated),
                c.precision_pct(),
                c.recall_pct(),
            );
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < self.counters.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Fuzz harness: minic codegen -> collect -> verify, seeded, shrinking.
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny deterministic generator so the harness has no
/// dependency footprint in the library crate.
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One generated statement block: an independent function over the
/// shared global arrays, called from `main` in a loop.
#[derive(Clone, Debug)]
struct Block {
    body: String,
}

const FUZZ_ARRAY_LEN: u64 = 24 * 1024;

/// Generate one block: either a straight-line strided walk or a
/// branchy walk with data-dependent control flow (so backtracking has
/// branch targets to trip over).
fn gen_block(rng: &mut Splitmix, idx: usize) -> Block {
    let stride = [1, 3, 7, 13, 61, 127][rng.below(6) as usize];
    let len = FUZZ_ARRAY_LEN;
    let arr = ["pool_a", "pool_b"][rng.below(2) as usize];
    let body = match rng.below(3) {
        0 => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i;\n\
             \x20   long s = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       s = s + {arr}[(i * {stride}) % {len}];\n\
             \x20   }}\n\
             \x20   return s;\n\
             }}\n"
        ),
        1 => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i;\n\
             \x20   long s = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       if ({arr}[(i * {stride}) % {len}] % 2 == 1) {{\n\
             \x20           s = s + {arr}[(i * {stride} + 5) % {len}];\n\
             \x20       }} else {{\n\
             \x20           s = s - pool_b[(i * 3) % {len}];\n\
             \x20       }}\n\
             \x20   }}\n\
             \x20   return s;\n\
             }}\n"
        ),
        _ => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i;\n\
             \x20   long j;\n\
             \x20   long s = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       for (j = 0; j < 4; j = j + 1) {{\n\
             \x20           pool_b[(i * {stride} + j) % {len}] = s % 9;\n\
             \x20       }}\n\
             \x20       s = s + {arr}[(i * {stride} + 11) % {len}];\n\
             \x20   }}\n\
             \x20   return s;\n\
             }}\n"
        ),
    };
    Block { body }
}

/// Render a full program from the surviving blocks.
fn render_program(blocks: &[(usize, Block)]) -> String {
    let len = FUZZ_ARRAY_LEN;
    let mut src = format!("long pool_a[{len}];\nlong pool_b[{len}];\n");
    for (_, b) in blocks {
        src.push_str(&b.body);
    }
    src.push_str("long main() {\n    long i;\n    long s = 0;\n");
    let _ = writeln!(
        src,
        "    for (i = 0; i < {len}; i = i + 1) {{ pool_a[i] = i * 2654435761; pool_b[i] = i; }}"
    );
    for (idx, _) in blocks {
        let _ = writeln!(src, "    s = s + blk{idx}(4000);");
    }
    src.push_str("    print_long(s);\n    return 0;\n}\n");
    src
}

/// The invariant violation a fuzz case found, shrunk and annotated.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The per-case seed (derivable from the run seed, recorded for
    /// direct replay).
    pub case_seed: u64,
    /// The shrunk program source still exhibiting the failure.
    pub source: String,
    /// What went wrong.
    pub message: String,
    /// Disassembly around the offending event's true trigger.
    pub window: String,
}

/// Aggregate statistics over a clean fuzz run.
#[derive(Debug, Default)]
pub struct FuzzStats {
    pub cases: u64,
    pub events: u64,
    /// Verdict totals across all cases, indexed like [`Verdict::ALL`].
    pub verdicts: [u64; 5],
}

fn fuzz_machine(seed: u64) -> simsparc_machine::MachineConfig {
    let mut cfg = simsparc_machine::MachineConfig::default();
    // Scaled-down hierarchy so the ~200 KB pools generate real DTLB
    // and E$ traffic.
    cfg.dcache.bytes = 8 * 1024;
    cfg.ecache.bytes = 64 * 1024;
    cfg.tlb = simsparc_machine::TlbConfig {
        entries: 8,
        ways: 2,
    };
    cfg.seed = seed;
    cfg
}

/// Check one run's counter readings against each other, as
/// constraints the machine model must satisfy on `config`, the machine
/// the run used (a failure refutes the model, not the profile):
/// `ec_read_miss ≤ dc_read_miss ≤ loads` and `ec_read_miss ≤ ec_ref`;
/// `ec_stall_cycles = ec_hit_stall·(dc_read_miss − ec_read_miss) +
/// ec_miss_stall·ec_read_miss`, since only loads stall; and per
/// counter, events recorded plus overflows dropped equal
/// ⌊count / interval⌋. Returns the first identity that fails.
pub fn check_counter_identities(
    exp: &Experiment,
    config: &simsparc_machine::MachineConfig,
) -> Result<(), String> {
    let c = &exp.run.counts;
    let (dcrm, ecrm) = (c.dc_read_miss, c.ec_read_miss);
    if ecrm > dcrm || dcrm > c.loads || ecrm > c.ec_ref {
        let (loads, ecref) = (c.loads, c.ec_ref);
        return Err(format!(
            "ecrm {ecrm} dcrm {dcrm} loads {loads} ecref {ecref}"
        ));
    }
    let stall = config.ec_hit_stall * (dcrm - ecrm) + config.ec_miss_stall * ecrm;
    if c.ec_stall_cycles != stall {
        let got = c.ec_stall_cycles;
        return Err(format!(
            "ecstall {got} != {stall} from dcrm {dcrm} ecrm {ecrm}"
        ));
    }
    for (k, req) in exp.counters.iter().enumerate() {
        let recorded = exp.hwc_events.iter().filter(|e| e.counter == k).count() as u64;
        let (count, dropped, interval) = (c.get(req.event), exp.run.dropped[k], req.interval);
        if recorded + dropped != count / interval {
            let name = req.event.name();
            return Err(format!(
                "{name}: {recorded} + {dropped} dropped != {count} / {interval}"
            ));
        }
    }
    Ok(())
}

/// Verdict totals for one clean fuzz case.
type CaseStats = (u64, [u64; 5]);
/// An invariant violation: the message and the offending event.
type CaseViolation = (String, Option<PackedHwcEvent>);

/// Run one fuzz case: returns the invariant-violation message and the
/// offending event, or per-verdict totals when clean. The outer error
/// is a harness failure (program did not compile or run).
fn run_case(source: &str, seed: u64) -> Result<Result<CaseStats, CaseViolation>, String> {
    let program =
        minic::compile_and_link(&[("fuzz.c", source)], minic::CompileOptions::profiling())
            .map_err(|e| format!("fuzz program failed to compile: {e:?}"))?;
    let mut machine = simsparc_machine::Machine::new(fuzz_machine(seed));
    machine.load(&program.image);
    let config = crate::CollectConfig {
        counters: crate::parse_counter_spec("+dtlbm,53,+ecrm,101").unwrap(),
        ..crate::CollectConfig::default()
    };
    let exp =
        crate::collect(&mut machine, &config).map_err(|e| format!("collect failed: {e:?}"))?;
    if let Err(why) = check_counter_identities(&exp, &machine.config) {
        return Ok(Err((format!("counter identity: {why}"), None)));
    }
    let report = verify_experiment(&exp, &program.syms);

    // Invariant: the confusion matrix partitions the events.
    let matrix_total: u64 = report.counters.iter().map(|c| c.total).sum();
    if matrix_total != exp.hwc_events.len() as u64 {
        return Ok(Err((
            format!(
                "matrix covers {matrix_total} events, experiment has {}",
                exp.hwc_events.len()
            ),
            None,
        )));
    }
    for ev in &exp.hwc_events {
        let backtrack = exp.counters[ev.counter].backtrack;
        let (bucket, verdict) = classify(&program.syms, ev, backtrack);
        // Invariant: Exact means exactly that.
        if verdict == Verdict::Exact && backtrack && ev.candidate_pc != Some(ev.truth_trigger_pc) {
            return Ok(Err((
                format!(
                    "event classified Exact with candidate {:?} != truth {:#x}",
                    ev.candidate_pc, ev.truth_trigger_pc
                ),
                Some(*ev),
            )));
        }
        // Invariant (collection-side branch-target check): an event
        // the analyzer files as Unresolvable must not have shipped a
        // reconstructed address — its candidate window crossed a
        // branch target, or there was no candidate at all.
        if bucket == Bucket::Unknown(UnknownKind::Unresolvable) && ev.ea.is_some() {
            return Ok(Err((
                format!(
                    "Unresolvable event at delivered {:#x} carries ea {:?}",
                    ev.delivered_pc, ev.ea
                ),
                Some(*ev),
            )));
        }
        // Invariant: a wrongly-invalidated event really had the true
        // trigger in hand.
        if verdict == Verdict::WronglyInvalidated && ev.candidate_pc != Some(ev.truth_trigger_pc) {
            return Ok(Err((
                "wrongly-invalidated without a matching candidate".to_string(),
                Some(*ev),
            )));
        }
    }
    let mut verdicts = [0u64; 5];
    for c in &report.counters {
        for v in Verdict::ALL {
            verdicts[v as usize] += c.verdict_total(v);
        }
    }
    Ok(Ok((exp.hwc_events.len() as u64, verdicts)))
}

/// Disassemble the instruction window around an event's true trigger.
fn disasm_window(source: &str, ev: &PackedHwcEvent) -> String {
    let Ok(program) =
        minic::compile_and_link(&[("fuzz.c", source)], minic::CompileOptions::profiling())
    else {
        return String::new();
    };
    let base = simsparc_machine::TEXT_BASE;
    let lo = ev.truth_trigger_pc.saturating_sub(16).max(base);
    let hi = ev.delivered_pc.max(ev.truth_trigger_pc) + 16;
    let mut out = String::new();
    let mut pc = lo;
    while pc <= hi {
        let idx = ((pc - base) / 4) as usize;
        let Some(insn) = program.image.text.get(idx) else {
            break;
        };
        let mark = if pc == ev.truth_trigger_pc {
            " <- truth"
        } else if Some(pc) == ev.candidate_pc {
            " <- candidate"
        } else if pc == ev.delivered_pc {
            " <- delivered"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:#x}: {}{}",
            pc,
            simsparc_isa::disasm(insn, pc),
            mark
        );
        pc += 4;
    }
    out
}

/// Shrink a failing block set: repeatedly drop any block whose removal
/// preserves the failure.
fn shrink(
    blocks: &[(usize, Block)],
    seed: u64,
) -> (Vec<(usize, Block)>, String, Option<PackedHwcEvent>) {
    let mut best: Vec<(usize, Block)> = blocks.to_vec();
    let (mut msg, mut ev) = match run_case(&render_program(&best), seed) {
        Ok(Err(fail)) => fail,
        _ => (String::from("failure did not reproduce"), None),
    };
    loop {
        let mut reduced = false;
        for i in 0..best.len() {
            if best.len() == 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.remove(i);
            if let Ok(Err((m, e))) = run_case(&render_program(&candidate), seed) {
                best = candidate;
                msg = m;
                ev = e;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (best, msg, ev);
        }
    }
}

/// Run `cases` randomized differential cases from `seed`. Returns
/// aggregate verdict statistics, or the first shrunk failure.
pub fn fuzz_attribution(cases: u64, seed: u64) -> Result<FuzzStats, Box<FuzzFailure>> {
    let mut stats = FuzzStats::default();
    for case in 0..cases {
        let case_seed = seed ^ (case.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut rng = Splitmix(case_seed);
        let n_blocks = 1 + rng.below(3) as usize;
        let blocks: Vec<(usize, Block)> =
            (0..n_blocks).map(|i| (i, gen_block(&mut rng, i))).collect();
        let source = render_program(&blocks);
        match run_case(&source, case_seed) {
            Err(msg) => {
                return Err(Box::new(FuzzFailure {
                    case_seed,
                    source,
                    message: msg,
                    window: String::new(),
                }))
            }
            Ok(Ok((events, verdicts))) => {
                stats.cases += 1;
                stats.events += events;
                for (acc, v) in stats.verdicts.iter_mut().zip(verdicts) {
                    *acc += v;
                }
            }
            Ok(Err(_)) => {
                let (shrunk, message, ev) = shrink(&blocks, case_seed);
                let source = render_program(&shrunk);
                let window = ev
                    .as_ref()
                    .map(|e| disasm_window(&source, e))
                    .unwrap_or_default();
                return Err(Box::new(FuzzFailure {
                    case_seed,
                    source,
                    message,
                    window,
                }));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterRequest;
    use crate::experiment::RunInfo;
    use simsparc_machine::CounterEvent;

    fn table() -> SymbolTable {
        use minic::{FuncSym, MemDesc, ModuleSym, PcMeta};
        let base = 0x1_0000_0000u64;
        let member = MemDesc::Member {
            struct_name: "node".to_string(),
            member: "next".to_string(),
            member_type: "long".to_string(),
            offset: 0,
        };
        SymbolTable {
            modules: vec![ModuleSym {
                name: "m.c".into(),
                hwcprof: true,
                dwarf: true,
                source: String::new(),
            }],
            funcs: vec![FuncSym {
                name: "f".into(),
                entry: base,
                end: base + 32,
                module: 0,
                line: 1,
            }],
            pc_meta: (0..8)
                .map(|i| PcMeta {
                    line: 1,
                    memdesc: if i == 0 {
                        member.clone()
                    } else {
                        MemDesc::None
                    },
                    is_branch_target: i == 4,
                })
                .collect(),
            text_base: base,
            structs: vec![],
            globals: vec![],
        }
    }

    fn ev(
        cand: Option<u64>,
        delivered: u64,
        ea: Option<u64>,
        truth_pc: u64,
        truth_ea: Option<u64>,
    ) -> PackedHwcEvent {
        PackedHwcEvent {
            counter: 0,
            delivered_pc: delivered,
            candidate_pc: cand,
            ea,
            stack: 0,
            truth_trigger_pc: truth_pc,
            truth_ea,
            truth_skid: 1,
        }
    }

    #[test]
    fn classification_covers_the_verdict_space() {
        let t = table();
        let base = 0x1_0000_0000u64;
        let cases = [
            // right PC, right EA
            (
                ev(Some(base), base + 4, Some(0x10), base, Some(0x10)),
                Verdict::Exact,
            ),
            // right PC, wrong EA
            (
                ev(Some(base), base + 4, Some(0x18), base, Some(0x10)),
                Verdict::WrongEa,
            ),
            // wrong PC entirely
            (
                ev(Some(base), base + 4, None, base + 4, Some(0x10)),
                Verdict::WrongPc,
            ),
            // branch target between candidate and delivered; candidate
            // was NOT the truth -> invalidating was correct
            (
                ev(Some(base), base + 20, None, base + 8, Some(0x10)),
                Verdict::CorrectlyInvalidated,
            ),
            // branch target between, but candidate WAS the truth
            (
                ev(Some(base), base + 20, None, base, Some(0x10)),
                Verdict::WronglyInvalidated,
            ),
            // no candidate at all
            (
                ev(None, base + 4, None, base, Some(0x10)),
                Verdict::CorrectlyInvalidated,
            ),
        ];
        for (event, want) in cases {
            let (_, got) = classify(&t, &event, true);
            assert_eq!(got, want, "{event:?}");
        }
        // Without backtracking the delivered PC is the claim.
        let (bucket, got) = classify(&t, &ev(None, base + 4, None, base, None), false);
        assert_eq!(bucket, Bucket::Plain);
        assert_eq!(got, Verdict::WrongPc);
        let (_, got) = classify(&t, &ev(None, base, None, base, None), false);
        assert_eq!(got, Verdict::Exact);
    }

    #[test]
    fn report_totals_partition_and_render() {
        let t = table();
        let base = 0x1_0000_0000u64;
        let exp = Experiment {
            counters: vec![CounterRequest {
                event: CounterEvent::ECReadMiss,
                backtrack: true,
                interval: 100,
            }],
            clock_period: None,
            stacks: vec![vec![]],
            hwc_events: vec![
                ev(Some(base), base + 4, Some(0x10), base, Some(0x10)),
                ev(Some(base), base + 4, Some(0x18), base, Some(0x10)),
                ev(Some(base), base + 20, None, base, Some(0x10)),
                ev(None, base + 4, None, base, Some(0x10)),
            ],
            clock_events: vec![],
            run: RunInfo::default(),
            log: vec![],
        };
        let report = verify_experiment(&exp, &t);
        let c = &report.counters[0];
        assert_eq!(c.total, 4);
        let verdict_sum: u64 = Verdict::ALL.iter().map(|&v| c.verdict_total(v)).sum();
        assert_eq!(verdict_sum, c.total, "verdicts partition the events");
        let bucket_sum: u64 = Bucket::ALL.iter().map(|&b| c.bucket_total(b)).sum();
        assert_eq!(bucket_sum, c.total, "buckets partition the events");
        assert_eq!(c.verdict_total(Verdict::Exact), 1);
        assert_eq!(c.verdict_total(Verdict::WrongEa), 1);
        assert_eq!(c.verdict_total(Verdict::WronglyInvalidated), 1);
        assert_eq!(c.verdict_total(Verdict::CorrectlyInvalidated), 1);
        assert!((c.precision_pct() - 50.0).abs() < 1e-9);
        assert!((c.recall_pct() - 25.0).abs() < 1e-9);

        let text = report.render();
        assert!(text.contains("E$ Read Misses"), "{text}");
        assert!(text.contains("wrongly-invalidated"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"precision_pct\": 50.0000"), "{json}");
    }

    #[test]
    fn fuzz_smoke_runs_clean() {
        let stats = match fuzz_attribution(2, 0xA5A5) {
            Ok(s) => s,
            Err(f) => panic!("fuzz failure: {}\n{}\n{}", f.message, f.window, f.source),
        };
        assert_eq!(stats.cases, 2);
        assert!(stats.events > 50, "fuzz cases should generate events");
        assert!(
            stats.verdicts[Verdict::Exact as usize] > 0,
            "some events must verify exactly"
        );
    }
}
