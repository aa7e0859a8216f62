//! The collector (`collect` command, §2.2): runs a target program on
//! the simulated machine, receives counter-overflow traps and clock
//! ticks, performs the **apropos backtracking search** (§2.2.3) and
//! effective-address reconstruction, and records an [`Experiment`].
//!
//! The backtracking walk consults a [`TextMap`] — branch targets and
//! function entries derived from the text image in a single decode
//! pass when the collector attaches. Two things depend on it:
//!
//! * the walk never crosses the enclosing function's entry (skid can
//!   span a call boundary, and the instruction before a function in
//!   *address* order belongs to an unrelated function, not the
//!   caller), and
//! * a reconstructed effective address is dropped when a branch
//!   target lies inside the candidate window — control may have
//!   entered the window midway, so the register-clobber analysis that
//!   justifies reading the address operands from the current register
//!   file is unsound there.
//!
//! Full *symbolic* validation of the candidate PC (charging
//! `<branch target>` lines, matching descriptors) still happens at
//! data-reduction time in [`crate::analyze`]; the collect-time checks
//! only prevent provably-wrong attributions from being recorded as
//! fact.

use std::num::NonZeroU64;

use simsparc_isa::Insn;
use simsparc_machine::{
    CounterEvent, CpuState, Machine, MachineError, OverflowTrap, ProfileHook, RunOutcome, TEXT_BASE,
};

use crate::counters::{assign_slots, CounterRequest, CounterSpecError};
use crate::experiment::{Experiment, RunInfo};
use crate::stream::{
    CallstackTable, CollectSink, PackedClockEvent, PackedHwcEvent, StreamConfig, StreamStats,
    EST_CYCLES_PER_SAMPLE,
};

/// How far the backtracking search walks before giving up (in
/// instructions). Skid is at most a dozen instructions; anything
/// farther back cannot be the trigger.
pub const MAX_BACKTRACK_INSNS: u64 = 64;

/// Collection parameters (what the `collect` command line encodes).
#[derive(Clone, Debug)]
pub struct CollectConfig {
    /// Counters to collect (`-h`), already parsed.
    pub counters: Vec<CounterRequest>,
    /// Clock profiling (`-p on`).
    pub clock_profiling: bool,
    /// Clock profiling period in cycles. The real tool samples every
    /// ~10 ms (9e6 cycles at 900 MHz); scaled-down simulated runs use
    /// proportionally smaller periods. Must be non-zero when
    /// `clock_profiling` is on.
    pub clock_period_cycles: u64,
    /// Abort the run after this many instructions.
    pub max_insns: u64,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            counters: Vec::new(),
            clock_profiling: false,
            clock_period_cycles: 9_000_000,
            max_insns: 2_000_000_000,
        }
    }
}

/// Errors from a collection run.
#[derive(Debug)]
pub enum CollectError {
    Spec(CounterSpecError),
    Machine(MachineError),
    /// The streaming sink failed (disk full, broken pipe, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Spec(e) => write!(f, "{e}"),
            CollectError::Machine(e) => write!(f, "{e}"),
            CollectError::Io(e) => write!(f, "stream sink error: {e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<CounterSpecError> for CollectError {
    fn from(e: CounterSpecError) -> Self {
        CollectError::Spec(e)
    }
}

impl From<MachineError> for CollectError {
    fn from(e: MachineError) -> Self {
        CollectError::Machine(e)
    }
}

impl From<std::io::Error> for CollectError {
    fn from(e: std::io::Error) -> Self {
        CollectError::Io(e)
    }
}

/// Does `insn` match the memory-reference type a counter event
/// triggers on? Read-miss counters trigger on loads; reference and
/// TLB counters trigger on loads, stores — and software prefetches,
/// whose addresses walk the DTLB and consume E$ references like any
/// other access. (Excluding prefetches here mis-charged every
/// prefetch-triggered `ecref`/`dtlbm` event to an earlier load or
/// store, exactly on the §3.3 prefetch-optimized code paths.)
pub fn event_accepts(event: CounterEvent, insn: &Insn) -> bool {
    match event {
        CounterEvent::ECReadMiss | CounterEvent::ECStallCycles | CounterEvent::DCReadMiss => {
            insn.is_load()
        }
        CounterEvent::ECRef | CounterEvent::DTLBMiss => {
            insn.is_memory_ref() || matches!(insn, Insn::Prefetch { .. })
        }
        _ => false,
    }
}

/// The collector's map of the text image: the decoded instructions
/// plus two tables derived from them in one pass when the collector
/// attaches — the set of branch/call targets, and the function
/// entries (every direct-call target, plus [`TEXT_BASE`]). This is
/// the simulated stand-in for the symbol-table lookup the real
/// collector performs against the executable.
#[derive(Clone, Debug)]
pub struct TextMap {
    text: Vec<Insn>,
    /// `branch_target[i]` ⇔ some branch or call targets `TEXT_BASE + 4i`.
    branch_target: Vec<bool>,
    /// Sorted, deduplicated function-entry PCs; always starts with
    /// [`TEXT_BASE`] so every text PC has an enclosing function.
    func_entries: Vec<u64>,
}

impl TextMap {
    /// Decode the tables from a text image.
    pub fn build(text: &[Insn]) -> TextMap {
        let mut branch_target = vec![false; text.len()];
        let mut func_entries = vec![TEXT_BASE];
        for (i, insn) in text.iter().enumerate() {
            let pc = TEXT_BASE + 4 * i as u64;
            if let Some(target) = insn.direct_target(pc) {
                if let Some(ti) = Self::index_of(text, target) {
                    branch_target[ti] = true;
                    if matches!(insn, Insn::Call { .. }) {
                        func_entries.push(target);
                    }
                }
            }
        }
        func_entries.sort_unstable();
        func_entries.dedup();
        TextMap {
            text: text.to_vec(),
            branch_target,
            func_entries,
        }
    }

    #[inline]
    fn index_of(text: &[Insn], pc: u64) -> Option<usize> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let i = ((pc - TEXT_BASE) / 4) as usize;
        (i < text.len()).then_some(i)
    }

    /// The instruction at `pc`, if inside the text segment.
    #[inline]
    pub fn insn_at(&self, pc: u64) -> Option<Insn> {
        Self::index_of(&self.text, pc).map(|i| self.text[i])
    }

    /// Is `pc` the target of some branch or call?
    #[inline]
    pub fn is_branch_target(&self, pc: u64) -> bool {
        Self::index_of(&self.text, pc).is_some_and(|i| self.branch_target[i])
    }

    /// The entry PC of the function enclosing `pc`: the greatest
    /// derived entry that is `<= pc` ([`TEXT_BASE`] if none other).
    pub fn func_start_of(&self, pc: u64) -> Option<u64> {
        Self::index_of(&self.text, pc)?;
        let i = self.func_entries.partition_point(|&e| e <= pc);
        Some(self.func_entries[i - 1])
    }

    /// The first branch target in `(from, to]`, in address order.
    pub fn branch_target_between(&self, from: u64, to: u64) -> Option<u64> {
        let mut pc = from + 4;
        while pc <= to {
            if self.is_branch_target(pc) {
                return Some(pc);
            }
            pc += 4;
        }
        None
    }

    /// The decoded text image.
    pub fn text(&self) -> &[Insn] {
        &self.text
    }
}

/// The apropos backtracking search (§2.2.3): walk back in the address
/// space from the delivered PC until a memory-reference instruction of
/// the appropriate type is found. The instruction *at* the delivered
/// PC has not yet executed, so the walk starts one instruction before
/// it. The walk never crosses the enclosing function's entry: skid
/// can span a call boundary, and whatever sits before the function in
/// address order is an unrelated function's code, not the caller's —
/// charging its last memory op would be confidently wrong, so the
/// search gives up instead (the event is then reported as
/// `(Unresolvable)`).
pub fn backtrack(map: &TextMap, delivered_pc: u64, event: CounterEvent) -> Option<u64> {
    let floor = map.func_start_of(delivered_pc)?;
    let mut pc = delivered_pc.checked_sub(4)?;
    for _ in 0..MAX_BACKTRACK_INSNS {
        if pc < floor {
            return None;
        }
        let insn = map.insn_at(pc)?;
        if event_accepts(event, &insn) {
            return Some(pc);
        }
        pc = pc.checked_sub(4)?;
    }
    None
}

/// Reconstruct the effective data address of the candidate trigger
/// (§2.2.3): disassemble it to find the address registers, then check
/// whether any instruction between the candidate and the delivered PC
/// (in address order) — or the candidate itself, for a load that
/// overwrites its own base register — clobbered them. If not, the
/// current register file still holds the address operands and the
/// putative effective address is computable; otherwise the collector
/// "indicates that the address could not be determined".
///
/// The clobber analysis assumes execution flowed linearly from the
/// candidate to the delivered PC. A branch target inside `(candidate,
/// delivered]` breaks that assumption — control may have entered the
/// window midway, skipping the candidate entirely — so the address is
/// dropped there too rather than recording a value read from a
/// register file the candidate may never have addressed.
pub fn reconstruct_ea(
    map: &TextMap,
    candidate_pc: u64,
    delivered_pc: u64,
    cpu: &CpuState,
) -> Option<u64> {
    let cand = map.insn_at(candidate_pc)?;
    let (rs1, rs2) = cand.mem_addr_regs()?;
    if map
        .branch_target_between(candidate_pc, delivered_pc)
        .is_some()
    {
        return None;
    }
    let clobbers = |insn: &Insn| insn.dest_reg().is_some_and(|d| d == rs1 || Some(d) == rs2);
    // The candidate itself (e.g. `ldx [%o3+24], %o3`).
    if clobbers(&cand) {
        return None;
    }
    let mut pc = candidate_pc + 4;
    while pc < delivered_pc {
        let insn = map.insn_at(pc)?;
        if clobbers(&insn) {
            return None;
        }
        pc += 4;
    }
    let base = cpu.reg(rs1);
    let off = match cand {
        Insn::Load { op2, .. } | Insn::Store { op2, .. } | Insn::Prefetch { op2, .. } => {
            match op2 {
                simsparc_isa::Operand::Imm(v) => v as i64 as u64,
                simsparc_isa::Operand::Reg(r) => cpu.reg(r),
            }
        }
        _ => return None,
    };
    Some(base.wrapping_add(off))
}

/// The [`ProfileHook`] that records events during the run. Events are
/// packed — callstacks interned through a [`CallstackTable`], a fixed
/// `u32` id per event instead of a `Vec<u64>` clone — and, when a sink
/// is attached, completed segments spill through it whenever
/// `spill_events` are buffered, so peak event memory stays bounded.
struct CollectorHook<'a> {
    text: TextMap,
    counters: Vec<CounterRequest>,
    slot_to_counter: [Option<usize>; 2],
    stacks: CallstackTable,
    hwc: Vec<PackedHwcEvent>,
    clock: Vec<PackedClockEvent>,
    /// Streaming destination; `None` buffers everything in memory.
    sink: Option<&'a mut dyn CollectSink>,
    spill_events: usize,
    /// Stacks already sent to the sink (`stacks[..stacks_sent]`).
    stacks_sent: usize,
    segments_spilled: u64,
    peak_buffered: usize,
    hwc_total: u64,
    clock_total: u64,
    /// First sink failure; `ProfileHook` methods return `()`, so the
    /// error is stashed here and surfaced after the run.
    sink_error: Option<std::io::Error>,
}

impl<'a> CollectorHook<'a> {
    fn new(
        machine: &Machine,
        config: &CollectConfig,
        slot_to_counter: [Option<usize>; 2],
        sink: Option<&'a mut dyn CollectSink>,
        spill_events: usize,
    ) -> CollectorHook<'a> {
        CollectorHook {
            text: TextMap::build(machine.text()),
            counters: config.counters.clone(),
            slot_to_counter,
            stacks: CallstackTable::new(),
            hwc: Vec::new(),
            clock: Vec::new(),
            sink,
            spill_events,
            stacks_sent: 0,
            segments_spilled: 0,
            peak_buffered: 0,
            hwc_total: 0,
            clock_total: 0,
            sink_error: None,
        }
    }

    fn note_buffered(&mut self) {
        let buffered = self.hwc.len() + self.clock.len();
        if buffered > self.peak_buffered {
            self.peak_buffered = buffered;
        }
        if self.sink.is_some() && buffered >= self.spill_events {
            self.flush();
        }
    }

    /// Send buffered segments (and any newly interned stacks) through
    /// the sink. No-op without a sink or after a sink error.
    fn flush(&mut self) {
        if self.sink_error.is_some() {
            return;
        }
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let new_stacks = self.stacks.stacks_from(self.stacks_sent);
        let mut res = Ok(());
        if !new_stacks.is_empty() {
            res = sink.stacks(new_stacks);
        }
        if res.is_ok() && !self.hwc.is_empty() {
            res = sink.hwc_segment(&self.hwc);
        }
        if res.is_ok() && !self.clock.is_empty() {
            res = sink.clock_segment(&self.clock);
        }
        match res {
            Ok(()) => {
                if !self.hwc.is_empty() || !self.clock.is_empty() {
                    self.segments_spilled += 1;
                }
                self.stacks_sent = self.stacks.len();
                self.hwc.clear();
                self.clock.clear();
            }
            Err(e) => self.sink_error = Some(e),
        }
    }

    /// The self-observability report (§3.2): what the collector did,
    /// what it cost, and how well the intern table worked.
    fn stats(&self, dropped: &[u64], cycles: u64, bytes_written: u64) -> StreamStats {
        let samples = self.hwc_total + self.clock_total;
        StreamStats {
            hwc_events: self.hwc_total,
            clock_events: self.clock_total,
            dropped: dropped.to_vec(),
            distinct_stacks: self.stacks.len(),
            intern_lookups: self.stacks.lookups(),
            intern_hits: self.stacks.hits(),
            segments_spilled: self.segments_spilled,
            bytes_written,
            peak_buffered_events: self.peak_buffered,
            estimated_overhead_pct: if cycles == 0 {
                0.0
            } else {
                100.0 * (samples * EST_CYCLES_PER_SAMPLE) as f64 / cycles as f64
            },
        }
    }
}

impl ProfileHook for CollectorHook<'_> {
    fn on_overflow(&mut self, cpu: &CpuState, trap: &OverflowTrap) {
        let Some(ci) = self.slot_to_counter[trap.slot] else {
            return;
        };
        let req = self.counters[ci];
        debug_assert_eq!(req.event, trap.event);
        let (candidate_pc, ea) = if req.backtrack {
            match backtrack(&self.text, trap.delivered_pc, req.event) {
                Some(c) => (
                    Some(c),
                    reconstruct_ea(&self.text, c, trap.delivered_pc, cpu),
                ),
                None => (None, None),
            }
        } else {
            (None, None)
        };
        let stack = self.stacks.intern(cpu.callstack());
        self.hwc.push(PackedHwcEvent {
            counter: ci,
            delivered_pc: trap.delivered_pc,
            candidate_pc,
            ea,
            stack,
            truth_trigger_pc: trap.trigger_pc,
            truth_ea: trap.trigger_ea,
            truth_skid: trap.skid,
        });
        self.hwc_total += 1;
        self.note_buffered();
    }

    fn on_clock_sample(&mut self, cpu: &CpuState, pc: u64) {
        let stack = self.stacks.intern(cpu.callstack());
        self.clock.push(PackedClockEvent { pc, stack });
        self.clock_total += 1;
        self.note_buffered();
    }
}

/// Append the collector's self-report to the experiment log.
fn push_report(log: &mut Vec<String>, cycles: u64, stats: &StreamStats, streamed: bool) {
    log.push(format!(
        "{} collector: {} hwc events + {} clock ticks recorded, dropped [{}]",
        cycles,
        stats.hwc_events,
        stats.clock_events,
        stats
            .dropped
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
    ));
    log.push(format!(
        "{} collector: {} distinct callstacks, intern hit rate {:.1}% ({}/{} lookups)",
        cycles,
        stats.distinct_stacks,
        stats.intern_hit_rate_pct(),
        stats.intern_hits,
        stats.intern_lookups,
    ));
    if streamed {
        log.push(format!(
            "{} collector: {} segment(s) spilled, {} bytes written, peak {} events buffered",
            cycles, stats.segments_spilled, stats.bytes_written, stats.peak_buffered_events,
        ));
    }
    log.push(format!(
        "{} collector: estimated overhead {:.2}% ({} samples x {} cycles each)",
        cycles,
        stats.estimated_overhead_pct,
        stats.hwc_events + stats.clock_events,
        EST_CYCLES_PER_SAMPLE,
    ));
}

/// Shared prologue + run: validate the recipe, program the counters,
/// open the sink (if any) with the recipe, build the hook, run the
/// target, and return the hook, outcome, log so far, and the
/// counter→slot assignment. A recipe error returns before the sink
/// sees anything.
fn run_profiled<'a>(
    machine: &mut Machine,
    config: &CollectConfig,
    mut sink: Option<&'a mut dyn CollectSink>,
    spill_events: usize,
) -> Result<(CollectorHook<'a>, RunOutcome, Vec<String>, Vec<usize>), CollectError> {
    let clock_period = if config.clock_profiling {
        let period = NonZeroU64::new(config.clock_period_cycles).ok_or_else(|| {
            CounterSpecError("clock profiling period must be at least one cycle".to_string())
        })?;
        Some(period)
    } else {
        None
    };
    let slots = assign_slots(&config.counters)?;
    let mut slot_to_counter = [None, None];
    for (ci, (&slot, req)) in slots.iter().zip(&config.counters).enumerate() {
        machine
            .program_counter(slot, req.event, req.interval)
            .map_err(|e| CollectError::Spec(CounterSpecError(e.to_string())))?;
        slot_to_counter[slot] = Some(ci);
    }
    machine.set_clock_sample_period(clock_period);
    if let Some(sink) = sink.as_deref_mut() {
        sink.begin(
            &config.counters,
            clock_period.map(NonZeroU64::get),
            machine.config.clock_hz,
        )?;
    }

    let mut log = vec![format!(
        "{} collect start: {} counter(s), clock profiling {}",
        machine.counts().cycles,
        config.counters.len(),
        if config.clock_profiling { "on" } else { "off" }
    )];
    for (ci, req) in config.counters.iter().enumerate() {
        log.push(format!(
            "{} counter {}: {}{} interval {}",
            machine.counts().cycles,
            ci,
            if req.backtrack { "+" } else { "" },
            req.event.name(),
            req.interval
        ));
    }

    let mut hook = CollectorHook::new(machine, config, slot_to_counter, sink, spill_events);
    let outcome = machine.run(config.max_insns, &mut hook)?;
    log.push(format!(
        "{} exit {} ({} hwc events, {} clock events)",
        outcome.counts.cycles, outcome.exit_code, hook.hwc_total, hook.clock_total
    ));
    Ok((hook, outcome, log, slots))
}

/// Run the loaded program under profiling and produce an experiment.
/// The machine must already have the target image loaded.
pub fn collect(machine: &mut Machine, config: &CollectConfig) -> Result<Experiment, CollectError> {
    let (hook, outcome, mut log, slots) = run_profiled(machine, config, None, usize::MAX)?;
    let dropped: Vec<u64> = slots
        .iter()
        .map(|&s| outcome.dropped_overflows[s])
        .collect();
    let stats = hook.stats(&dropped, outcome.counts.cycles, 0);
    push_report(&mut log, outcome.counts.cycles, &stats, false);

    // With no sink nothing spilled: the hook's table and buffers are
    // the whole experiment.
    Ok(Experiment {
        counters: config.counters.clone(),
        clock_period: config.clock_profiling.then_some(config.clock_period_cycles),
        stacks: hook.stacks.into_stacks(),
        hwc_events: hook.hwc,
        clock_events: hook.clock,
        run: RunInfo {
            exit_code: outcome.exit_code,
            output: outcome.output,
            counts: outcome.counts,
            clock_hz: machine.config.clock_hz,
            dropped,
        },
        log,
    })
}

/// Run the loaded program under profiling, streaming events through
/// `sink` with bounded memory (see [`StreamConfig::spill_events`]).
/// The sink receives `begin`, interleaved `stacks`/segment calls, and
/// `finish` with the run summary and log; each completed segment is
/// durable independently, so an interrupted run leaves a readable
/// prefix. Returns the collector's self-observability report.
pub fn collect_stream(
    machine: &mut Machine,
    config: &CollectConfig,
    stream: &StreamConfig,
    sink: &mut dyn CollectSink,
) -> Result<StreamStats, CollectError> {
    let spill = stream.spill_events.max(1);
    let (mut hook, outcome, mut log, slots) =
        run_profiled(machine, config, Some(&mut *sink), spill)?;
    hook.flush();
    if let Some(e) = hook.sink_error.take() {
        return Err(CollectError::Io(e));
    }
    let dropped: Vec<u64> = slots
        .iter()
        .map(|&s| outcome.dropped_overflows[s])
        .collect();
    let bytes_so_far = hook.sink.as_deref().map_or(0, |s| s.bytes_written());
    let mut stats = hook.stats(&dropped, outcome.counts.cycles, bytes_so_far);
    drop(hook);
    push_report(&mut log, outcome.counts.cycles, &stats, true);
    let run = RunInfo {
        exit_code: outcome.exit_code,
        output: outcome.output,
        counts: outcome.counts,
        clock_hz: machine.config.clock_hz,
        dropped,
    };
    sink.finish(&run, &log)?;
    stats.bytes_written = sink.bytes_written();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsparc_isa::{AluOp, Operand, Reg};

    fn text_with(insns: &[Insn]) -> TextMap {
        TextMap::build(insns)
    }

    #[test]
    fn backtrack_finds_nearest_load() {
        // [ld, add, nop, cmp, <delivered>]
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2),
            Insn::alu(AluOp::Add, Reg::G1, Operand::Reg(Reg::G5), Reg::G2),
            Insn::Nop,
            Insn::cmp(Reg::O2, Operand::Imm(1)),
            Insn::Nop,
        ]);
        let delivered = TEXT_BASE + 16;
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::ECReadMiss),
            Some(TEXT_BASE)
        );
    }

    #[test]
    fn backtrack_respects_event_type() {
        // A store between the load and the delivered PC: read-miss
        // counters must skip it; reference counters must stop at it.
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2),
            Insn::store_x(Reg::G2, Reg::O3, Operand::Imm(88)),
            Insn::Nop,
        ]);
        let delivered = TEXT_BASE + 8;
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::ECReadMiss),
            Some(TEXT_BASE),
            "read miss skips the store"
        );
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::ECRef),
            Some(TEXT_BASE + 4),
            "ecref stops at the store"
        );
    }

    #[test]
    fn backtrack_gives_up_outside_text() {
        let text = text_with(&[Insn::Nop, Insn::Nop]);
        assert_eq!(
            backtrack(&text, TEXT_BASE + 4, CounterEvent::ECReadMiss),
            None
        );
    }

    #[test]
    fn backtrack_gives_up_after_limit() {
        let mut insns = vec![Insn::load_x(Reg::O3, Operand::Imm(0), Reg::O2)];
        insns.extend(std::iter::repeat_n(Insn::Nop, 100));
        let delivered = TEXT_BASE + 4 * 100;
        assert_eq!(
            backtrack(&TextMap::build(&insns), delivered, CounterEvent::ECReadMiss),
            None,
            "trigger farther than MAX_BACKTRACK_INSNS is not found"
        );
    }

    #[test]
    fn backtrack_accepts_prefetch_for_reference_counters() {
        // [ld, prefetch, <delivered>]: `ecref`/`dtlbm` trigger on the
        // prefetch too, so the nearest acceptable instruction is the
        // prefetch itself — not the load before it. Read-miss
        // counters still skip it (a prefetch cannot be a read miss
        // charged with stall).
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2),
            Insn::Prefetch {
                rs1: Reg::G1,
                op2: Operand::Imm(64),
            },
            Insn::Nop,
        ]);
        let delivered = TEXT_BASE + 8;
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::ECRef),
            Some(TEXT_BASE + 4),
            "ecref stops at the prefetch"
        );
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::DTLBMiss),
            Some(TEXT_BASE + 4),
            "dtlbm stops at the prefetch"
        );
        assert_eq!(
            backtrack(&text, delivered, CounterEvent::ECReadMiss),
            Some(TEXT_BASE),
            "read-miss counters skip the prefetch"
        );
    }

    #[test]
    fn backtrack_stops_at_function_entry() {
        // Function A: [ld, call B, nop(delay), nop]; function B (the
        // call target) begins at TEXT_BASE+16. A trap delivered just
        // inside B must NOT walk back across B's entry and charge A's
        // load — whatever precedes a function in address order is not
        // the caller.
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2), // A+0
            Insn::Call { disp: 3 },                           // A+4: call B (+16)
            Insn::Nop,                                        // A+8: delay
            Insn::Nop,                                        // A+12
            Insn::Nop,                                        // B+0 (TEXT_BASE+16)
            Insn::Nop,                                        // B+4
        ]);
        assert_eq!(text.func_start_of(TEXT_BASE + 20), Some(TEXT_BASE + 16));
        assert_eq!(
            backtrack(&text, TEXT_BASE + 20, CounterEvent::ECReadMiss),
            None,
            "the walk must stop at B's entry, not cross into A"
        );
        // The same delivered PC inside A still finds A's load.
        assert_eq!(
            backtrack(&text, TEXT_BASE + 12, CounterEvent::ECReadMiss),
            Some(TEXT_BASE)
        );
    }

    #[test]
    fn reconstruct_ea_for_store_candidate() {
        // A store has no destination register, so nothing in the skid
        // window can self-clobber; the EA comes straight from the
        // register file.
        let text = text_with(&[
            Insn::store_x(Reg::G2, Reg::O3, Operand::Imm(88)),
            Insn::Nop,
            Insn::Nop,
        ]);
        let cpu = CpuState::with_regs(&[(Reg::O3, 0x4000_0000)]);
        assert_eq!(
            reconstruct_ea(&text, TEXT_BASE, TEXT_BASE + 8, &cpu),
            Some(0x4000_0000 + 88)
        );
    }

    #[test]
    fn reconstruct_ea_candidate_adjacent_to_delivered_pc() {
        // Delivered PC immediately after the candidate: zero
        // intervening instructions. The insn AT the delivered PC has
        // not executed yet, so even one that writes the base register
        // does not clobber.
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2),
            Insn::alu(AluOp::Add, Reg::O3, Operand::Imm(8), Reg::O3),
        ]);
        let cpu = CpuState::with_regs(&[(Reg::O3, 0x1000)]);
        assert_eq!(
            reconstruct_ea(&text, TEXT_BASE, TEXT_BASE + 4, &cpu),
            Some(0x1000 + 56)
        );
    }

    #[test]
    fn reconstruct_ea_register_offset_clobbered_rs2() {
        // Candidate `ldx [%g1+%g2]` with an intervening add that
        // rewrites %g2: the register file no longer holds the address
        // operand, so "the address could not be determined".
        let clobbered = text_with(&[
            Insn::load_x(Reg::G1, Operand::Reg(Reg::G2), Reg::O0),
            Insn::alu(AluOp::Add, Reg::G2, Operand::Imm(1), Reg::G2),
            Insn::Nop,
        ]);
        let cpu = CpuState::with_regs(&[(Reg::G1, 0x2000), (Reg::G2, 0x40)]);
        assert_eq!(
            reconstruct_ea(&clobbered, TEXT_BASE, TEXT_BASE + 8, &cpu),
            None
        );
        // The same candidate with no clobber reconstructs base+index.
        let clean = text_with(&[
            Insn::load_x(Reg::G1, Operand::Reg(Reg::G2), Reg::O0),
            Insn::Nop,
            Insn::Nop,
        ]);
        assert_eq!(
            reconstruct_ea(&clean, TEXT_BASE, TEXT_BASE + 8, &cpu),
            Some(0x2000 + 0x40)
        );
    }

    #[test]
    fn reconstruct_ea_dropped_when_window_crosses_branch_target() {
        // A backward branch targets TEXT_BASE+8, which lies inside
        // the candidate window (candidate TEXT_BASE, delivered
        // TEXT_BASE+12): control may have entered at the target and
        // never executed the candidate, so the reconstructed address
        // must be dropped even though no register is clobbered.
        let text = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2), // +0: candidate
            Insn::Nop,                                        // +4
            Insn::Nop,                                        // +8: branch target
            Insn::Branch {
                cond: simsparc_isa::Cond::Ne,
                annul: false,
                pred_taken: true,
                disp: -1, // +12 - 4 = +8
            },
            Insn::Nop,
        ]);
        assert!(text.is_branch_target(TEXT_BASE + 8));
        let cpu = CpuState::with_regs(&[(Reg::O3, 0x4000_0000)]);
        assert_eq!(
            reconstruct_ea(&text, TEXT_BASE, TEXT_BASE + 12, &cpu),
            None,
            "EA must be dropped when the window crosses a branch target"
        );
        // The identical window with no branch into it reconstructs.
        let straight = text_with(&[
            Insn::load_x(Reg::O3, Operand::Imm(56), Reg::O2),
            Insn::Nop,
            Insn::Nop,
            Insn::Nop,
            Insn::Nop,
        ]);
        assert_eq!(
            reconstruct_ea(&straight, TEXT_BASE, TEXT_BASE + 12, &cpu),
            Some(0x4000_0000 + 56)
        );
    }

    #[test]
    fn reconstruct_ea_self_clobbering_load() {
        // `ldx [%o3+24], %o3` overwrites its own base register before
        // the trap delivers.
        let text = text_with(&[Insn::load_x(Reg::O3, Operand::Imm(24), Reg::O3), Insn::Nop]);
        let cpu = CpuState::with_regs(&[(Reg::O3, 0x3000)]);
        assert_eq!(reconstruct_ea(&text, TEXT_BASE, TEXT_BASE + 4, &cpu), None);
    }

    /// In-memory `CollectSink` for exercising the streaming path
    /// without the store crate (which depends on this one).
    #[derive(Default)]
    struct BufSink {
        began: u32,
        finished: u32,
        stacks: Vec<Vec<u64>>,
        hwc: Vec<PackedHwcEvent>,
        clock: Vec<PackedClockEvent>,
        segments: u64,
        run: Option<RunInfo>,
        log: Vec<String>,
        bytes: u64,
        fail_segments: bool,
    }

    impl CollectSink for BufSink {
        fn begin(
            &mut self,
            _counters: &[CounterRequest],
            _clock_period: Option<u64>,
            _clock_hz: u64,
        ) -> std::io::Result<()> {
            self.began += 1;
            Ok(())
        }
        fn stacks(&mut self, stacks: &[Vec<u64>]) -> std::io::Result<()> {
            self.stacks.extend_from_slice(stacks);
            self.bytes += stacks.len() as u64 * 8;
            Ok(())
        }
        fn hwc_segment(&mut self, events: &[PackedHwcEvent]) -> std::io::Result<()> {
            if self.fail_segments {
                return Err(std::io::Error::other("sink full"));
            }
            self.segments += 1;
            self.hwc.extend_from_slice(events);
            self.bytes += events.len() as u64 * 32;
            Ok(())
        }
        fn clock_segment(&mut self, events: &[PackedClockEvent]) -> std::io::Result<()> {
            self.clock.extend_from_slice(events);
            self.bytes += events.len() as u64 * 16;
            Ok(())
        }
        fn finish(&mut self, run: &RunInfo, log: &[String]) -> std::io::Result<()> {
            self.finished += 1;
            self.run = Some(run.clone());
            self.log = log.to_vec();
            Ok(())
        }
        fn bytes_written(&self) -> u64 {
            self.bytes
        }
    }

    fn demo_machine() -> (simsparc_machine::Machine, CollectConfig) {
        let src = r#"
            long work(long n) {
                long i; long s = 0;
                for (i = 0; i < n; i = i + 1) { s = s + i; }
                return s;
            }
            long main() {
                long t; long k;
                t = 0;
                for (k = 0; k < 40; k = k + 1) { t = t + work(200); }
                return t % 256;
            }
        "#;
        let program =
            minic::compile_and_link(&[("demo.c", src)], minic::CompileOptions::profiling())
                .unwrap();
        let mut machine =
            simsparc_machine::Machine::new(simsparc_machine::MachineConfig::default());
        machine.load(&program.image);
        let config = CollectConfig {
            counters: crate::parse_counter_spec("+ecref,97,cycles,1009").unwrap(),
            clock_profiling: true,
            clock_period_cycles: 1499,
            ..CollectConfig::default()
        };
        (machine, config)
    }

    #[test]
    fn streamed_run_matches_in_memory_run() {
        let (mut machine, config) = demo_machine();
        let exp = collect(&mut machine, &config).unwrap();

        let (mut machine2, _) = demo_machine();
        let mut sink = BufSink::default();
        let stream = StreamConfig { spill_events: 64 };
        let stats = collect_stream(&mut machine2, &config, &stream, &mut sink).unwrap();

        assert_eq!((sink.began, sink.finished), (1, 1));
        assert_eq!(stats.hwc_events as usize, exp.hwc_events.len());
        assert_eq!(stats.clock_events as usize, exp.clock_events.len());
        assert!(stats.segments_spilled > 1, "small spill → many segments");
        assert!(stats.peak_buffered_events <= 64 + 1);
        assert!(stats.bytes_written > 0);
        assert_eq!(sink.run.as_ref().unwrap(), &exp.run);

        // The sink's table and events are the in-memory experiment's,
        // id for id.
        assert_eq!(sink.stacks, exp.stacks);
        assert_eq!(sink.hwc, exp.hwc_events);
        assert_eq!(sink.clock, exp.clock_events);

        // Both logs carry the collector self-report.
        assert!(exp.log.iter().any(|l| l.contains("intern hit rate")));
        assert!(sink.log.iter().any(|l| l.contains("bytes written")));
        assert!(sink.log.iter().any(|l| l.contains("estimated overhead")));
    }

    #[test]
    fn sink_failure_surfaces_as_io_error() {
        let (mut machine, config) = demo_machine();
        let mut sink = BufSink {
            fail_segments: true,
            ..BufSink::default()
        };
        let stream = StreamConfig { spill_events: 16 };
        let err = collect_stream(&mut machine, &config, &stream, &mut sink).unwrap_err();
        assert!(matches!(err, CollectError::Io(_)), "got {err:?}");
        assert_eq!(sink.finished, 0, "failed run must not write a footer");
    }

    #[test]
    fn zero_clock_period_is_a_spec_error_before_the_sink_sees_anything() {
        let (mut machine, mut config) = demo_machine();
        config.clock_period_cycles = 0;
        let mut sink = BufSink::default();
        let stream = StreamConfig::default();
        let err = collect_stream(&mut machine, &config, &stream, &mut sink).unwrap_err();
        assert!(matches!(err, CollectError::Spec(_)), "got {err:?}");
        assert_eq!((sink.began, sink.bytes), (0, 0), "sink untouched");
        assert_eq!(machine.counts().insts, 0, "nothing simulated");

        let (mut machine, _) = demo_machine();
        let err = collect(&mut machine, &config).unwrap_err();
        assert!(matches!(err, CollectError::Spec(_)), "got {err:?}");

        // With clock profiling off the period is unused.
        config.clock_profiling = false;
        let (mut machine, _) = demo_machine();
        assert!(collect(&mut machine, &config)
            .unwrap()
            .clock_events
            .is_empty());
    }

    #[test]
    fn event_type_filters() {
        let ld = Insn::load_x(Reg::O3, Operand::Imm(0), Reg::O2);
        let st = Insn::store_x(Reg::O2, Reg::O3, Operand::Imm(0));
        assert!(event_accepts(CounterEvent::ECReadMiss, &ld));
        assert!(!event_accepts(CounterEvent::ECReadMiss, &st));
        assert!(event_accepts(CounterEvent::ECRef, &st));
        assert!(event_accepts(CounterEvent::DTLBMiss, &st));
        assert!(!event_accepts(CounterEvent::Cycles, &ld));
    }
}
