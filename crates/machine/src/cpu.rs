//! The CPU core: in-order fetch/decode/execute with delay slots, the
//! memory hierarchy walk, hardware counters with skidded overflow
//! traps, clock-profiling samples, and a shadow call stack for
//! profile callstacks.

use std::num::NonZeroU64;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simsparc_isa::{trap, AluOp, Cond, Insn, Operand, Reg};

use crate::cache::{CacheOutcome, SetAssocCache};
use crate::counters::{
    CounterEvent, CounterSlot, HwCounter, PendingTrap, PicConstraintError, NUM_COUNTER_SLOTS,
};
use crate::image::{Image, SegmentKind};
use crate::mem::Memory;
use crate::tlb::{Tlb, DEFAULT_PAGE_BYTES};
use crate::{MachineConfig, STACK_TOP, TEXT_BASE};

/// Errors the simulated machine can raise. Each carries the PC of the
/// faulting instruction, which makes codegen bugs easy to localize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// PC left the text segment.
    BadPc { pc: u64 },
    /// Memory access outside the data address space.
    UnmappedAccess { pc: u64, addr: u64 },
    /// Naturally-misaligned access (indicates a codegen bug).
    MisalignedAccess { pc: u64, addr: u64, len: u64 },
    /// `sdivx` by zero.
    DivisionByZero { pc: u64 },
    /// Unknown trap number.
    BadTrap { pc: u64, num: u8 },
    /// The configured instruction limit was exceeded.
    InsnLimit { limit: u64 },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MachineError::BadPc { pc } => write!(f, "pc {pc:#x} outside text segment"),
            MachineError::UnmappedAccess { pc, addr } => {
                write!(f, "unmapped data access to {addr:#x} at pc {pc:#x}")
            }
            MachineError::MisalignedAccess { pc, addr, len } => {
                write!(f, "misaligned {len}-byte access to {addr:#x} at pc {pc:#x}")
            }
            MachineError::DivisionByZero { pc } => write!(f, "division by zero at pc {pc:#x}"),
            MachineError::BadTrap { pc, num } => write!(f, "unknown trap {num} at pc {pc:#x}"),
            MachineError::InsnLimit { limit } => {
                write!(f, "instruction limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Ground-truth aggregate event counts, maintained unconditionally.
/// The hardware counters sample these same events; tests compare the
/// profile *estimates* (overflows × interval) against these exact
/// totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub cycles: u64,
    pub insts: u64,
    pub ic_miss: u64,
    pub dc_read_miss: u64,
    pub dtlb_miss: u64,
    pub ec_ref: u64,
    pub ec_read_miss: u64,
    pub ec_stall_cycles: u64,
    /// Retired loads (not a counter event; diagnostic).
    pub loads: u64,
    /// Retired stores (not a counter event; diagnostic).
    pub stores: u64,
}

impl EventCounts {
    /// The ground-truth total for one counter event.
    pub fn get(&self, event: CounterEvent) -> u64 {
        match event {
            CounterEvent::Cycles => self.cycles,
            CounterEvent::Insts => self.insts,
            CounterEvent::ICMiss => self.ic_miss,
            CounterEvent::DCReadMiss => self.dc_read_miss,
            CounterEvent::DTLBMiss => self.dtlb_miss,
            CounterEvent::ECRef => self.ec_ref,
            CounterEvent::ECReadMiss => self.ec_read_miss,
            CounterEvent::ECStallCycles => self.ec_stall_cycles,
        }
    }
}

/// `event`'s bit in [`Machine`]'s armed-event mask.
#[inline(always)]
const fn event_bit(event: CounterEvent) -> u8 {
    1 << event as u8
}

/// Condition flags (subset of the SPARC icc/xcc relevant to the
/// signed conditions SimSPARC supports).
#[derive(Clone, Copy, Debug, Default)]
struct Flags {
    z: bool,
    n: bool,
    v: bool,
}

impl Flags {
    fn eval(self, cond: Cond) -> bool {
        match cond {
            Cond::A => true,
            Cond::N => false,
            Cond::E => self.z,
            Cond::Ne => !self.z,
            Cond::L => self.n != self.v,
            Cond::Ge => self.n == self.v,
            Cond::Le => self.z || (self.n != self.v),
            Cond::G => !self.z && (self.n == self.v),
        }
    }
}

/// Architectural CPU state visible to profiling hooks.
pub struct CpuState {
    regs: [u64; 32],
    /// PC of the next instruction to issue.
    pub pc: u64,
    npc: u64,
    flags: Flags,
    /// Shadow stack of call-site PCs (innermost last).
    callstack: Vec<u64>,
}

impl CpuState {
    fn new() -> CpuState {
        CpuState {
            regs: [0; 32],
            pc: 0,
            npc: 4,
            flags: Flags::default(),
            callstack: Vec::with_capacity(64),
        }
    }

    /// Build a state with the given register values. Testing support
    /// for collector unit tests (effective-address reconstruction
    /// reads the register file); the simulator itself never uses it.
    pub fn with_regs(pairs: &[(Reg, u64)]) -> CpuState {
        let mut cpu = CpuState::new();
        for &(r, v) in pairs {
            cpu.set_reg(r, v);
        }
        cpu
    }

    /// Read a register (`%g0` is always zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The shadow call stack: PCs of the active `call` instructions,
    /// outermost first. This is what the collector records with each
    /// profile event.
    pub fn callstack(&self) -> &[u64] {
        &self.callstack
    }

    #[inline]
    fn operand(&self, op2: Operand) -> u64 {
        match op2 {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v as i64 as u64,
        }
    }
}

/// An overflow trap as delivered to the profiling hook.
///
/// `delivered_pc` and the register file (via [`CpuState`]) are what
/// real hardware exposes. `trigger_pc` and `trigger_ea` are simulator
/// ground truth that real hardware does *not* expose — the collector
/// must not use them for attribution; they ride along so tests, the
/// effectiveness benches, and the `mp-verify` oracle can score the
/// apropos backtracking search against reality.
#[derive(Clone, Copy, Debug)]
pub struct OverflowTrap {
    pub slot: CounterSlot,
    pub event: CounterEvent,
    /// PC of the next instruction to issue at delivery (§2.2.2: "the
    /// PC that is delivered with it represents the next instruction to
    /// issue").
    pub delivered_pc: u64,
    /// Ground truth: PC of the instruction that caused the overflow.
    pub trigger_pc: u64,
    /// Ground truth: effective data address of the triggering access;
    /// `None` for events without one (cycles, insts, I$ misses).
    pub trigger_ea: Option<u64>,
    /// Retired-instruction skid that was applied.
    pub skid: u32,
}

/// Receiver for profiling events. The collector implements this; a
/// [`NullHook`] runs the machine unprofiled.
pub trait ProfileHook {
    /// A hardware-counter overflow trap (SIGEMT in the real tool).
    fn on_overflow(&mut self, cpu: &CpuState, trap: &OverflowTrap);
    /// A clock-profiling tick (SIGPROF in the real tool); `pc` is the
    /// next instruction to issue.
    fn on_clock_sample(&mut self, cpu: &CpuState, pc: u64);
}

/// A hook that ignores everything (unprofiled runs).
pub struct NullHook;

impl ProfileHook for NullHook {
    fn on_overflow(&mut self, _cpu: &CpuState, _trap: &OverflowTrap) {}
    fn on_clock_sample(&mut self, _cpu: &CpuState, _pc: u64) {}
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Value of `%o0` at the `ta 0` exit trap.
    pub exit_code: i64,
    /// Everything the program printed via the host-service traps.
    pub output: String,
    /// Ground-truth event totals for the run.
    pub counts: EventCounts,
    /// Overflow traps dropped per slot because a trap was pending.
    pub dropped_overflows: [u64; NUM_COUNTER_SLOTS],
}

/// The simulated machine.
pub struct Machine {
    pub config: MachineConfig,
    cpu: CpuState,
    mem: Memory,
    text: Vec<Insn>,
    dcache: SetAssocCache,
    ecache: SetAssocCache,
    icache: SetAssocCache,
    tlb: Tlb,
    counters: [Option<HwCounter>; NUM_COUNTER_SLOTS],
    /// Bit `event as usize` is set iff some programmed counter counts
    /// `event`: the one test an unarmed event costs.
    armed: u8,
    /// Bit `slot` is set iff that counter has a trap counting down
    /// its skid.
    pending: u8,
    rng: StdRng,
    counts: EventCounts,
    clock_period: Option<NonZeroU64>,
    /// Cycle count at which the next clock sample is due; `u64::MAX`
    /// while clock profiling is off.
    next_clock: u64,
    output: String,
    last_fetch_line: u64,
    annul_next: bool,
    halted: Option<i64>,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Machine {
        let dcache = SetAssocCache::new(config.dcache);
        let ecache = SetAssocCache::new(config.ecache);
        let icache = SetAssocCache::new(config.icache);
        let tlb = Tlb::new(config.tlb);
        let rng = StdRng::seed_from_u64(config.seed);
        Machine {
            config,
            cpu: CpuState::new(),
            mem: Memory::new(),
            text: Vec::new(),
            dcache,
            ecache,
            icache,
            tlb,
            counters: [None, None],
            armed: 0,
            pending: 0,
            rng,
            counts: EventCounts::default(),
            clock_period: None,
            next_clock: u64::MAX,
            output: String::new(),
            last_fetch_line: u64::MAX,
            annul_next: false,
            halted: None,
        }
    }

    /// Load an image: text, data, and initial register state
    /// (`%sp` = [`STACK_TOP`], `pc` = entry).
    pub fn load(&mut self, image: &Image) {
        assert!(image.entry >= TEXT_BASE && image.entry < image.text_end());
        self.text = image.text.clone();
        self.mem.write_bytes(crate::DATA_BASE, &image.data);
        self.cpu.pc = image.entry;
        self.cpu.npc = image.entry + 4;
        self.cpu.set_reg(Reg::SP, STACK_TOP);
    }

    /// Program one of the two counter registers. Fails if the event is
    /// not available on that register, mirroring the PIC constraints
    /// that force the paper's two-experiment split.
    pub fn program_counter(
        &mut self,
        slot: CounterSlot,
        event: CounterEvent,
        interval: u64,
    ) -> Result<(), PicConstraintError> {
        assert!(slot < NUM_COUNTER_SLOTS);
        if !event.allowed_slots().contains(&slot) {
            return Err(PicConstraintError { event, slot });
        }
        self.counters[slot] = Some(HwCounter::new(event, interval));
        self.pending &= !(1 << slot);
        self.armed = self
            .counters
            .iter()
            .flatten()
            .fold(0, |mask, c| mask | event_bit(c.event));
        Ok(())
    }

    /// Enable clock profiling with the given period in cycles (the
    /// real tool's `-p on` is ~10 ms; at 900 MHz that is 9e6 cycles),
    /// or disable it with `None`.
    pub fn set_clock_sample_period(&mut self, period_cycles: Option<NonZeroU64>) {
        self.clock_period = period_cycles;
        self.next_clock = match period_cycles {
            Some(p) => self.counts.cycles.saturating_add(p.get()),
            None => u64::MAX,
        };
    }

    /// Direct access to simulated data memory (for the host to stage
    /// inputs and read results).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to simulated data memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Architectural CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Ground-truth event totals so far.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// The instruction at `pc`, if it is within the text segment.
    /// (This is the collector's view of the address space for
    /// backtracking and disassembly.)
    pub fn insn_at(&self, pc: u64) -> Option<Insn> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        self.text.get(((pc - TEXT_BASE) / 4) as usize).copied()
    }

    /// The loaded text segment (base [`TEXT_BASE`]). The collector
    /// snapshots this for its backtracking walks.
    pub fn text(&self) -> &[Insn] {
        &self.text
    }

    /// Feed `n` occurrences of `event` to the counters. An event no
    /// counter is programmed for costs one mask test.
    #[inline(always)]
    fn count_event(
        &mut self,
        event: CounterEvent,
        n: u64,
        trigger_pc: u64,
        trigger_ea: Option<u64>,
    ) {
        if self.armed & event_bit(event) != 0 {
            self.count_armed(event, n, trigger_pc, trigger_ea);
        }
    }

    /// The counters' side of [`Machine::count_event`]: add to every
    /// slot counting `event` and, on overflow, draw the skid and
    /// schedule the trap.
    #[inline(never)]
    fn count_armed(
        &mut self,
        event: CounterEvent,
        n: u64,
        trigger_pc: u64,
        trigger_ea: Option<u64>,
    ) {
        for slot in 0..NUM_COUNTER_SLOTS {
            if let Some(c) = &mut self.counters[slot] {
                if c.event == event && c.add(n) {
                    let (lo, hi) = self.config.skid.range(event);
                    let skid = if lo == hi {
                        lo
                    } else {
                        self.rng.random_range(lo..=hi)
                    };
                    c.pending = Some(PendingTrap {
                        trigger_pc,
                        trigger_ea,
                        remaining: skid,
                        skid,
                    });
                    self.pending |= 1 << slot;
                }
            }
        }
    }

    /// Count one retired instruction against every pending trap and
    /// deliver those whose skid has elapsed, in slot order. The
    /// delivered PC is the next instruction to issue — which, after
    /// retirement, is exactly `self.cpu.pc`.
    #[inline(never)]
    fn deliver_pending<H: ProfileHook>(&mut self, hook: &mut H) {
        for slot in 0..NUM_COUNTER_SLOTS {
            let Some(c) = &mut self.counters[slot] else {
                continue;
            };
            let Some(p) = &mut c.pending else {
                continue;
            };
            p.remaining -= 1;
            if p.remaining == 0 {
                let p = *p;
                c.pending = None;
                self.pending &= !(1 << slot);
                let trap = OverflowTrap {
                    slot,
                    event: c.event,
                    delivered_pc: self.cpu.pc,
                    trigger_pc: p.trigger_pc,
                    trigger_ea: p.trigger_ea,
                    skid: p.skid,
                };
                hook.on_overflow(&self.cpu, &trap);
            }
        }
    }

    /// Deliver one clock sample per elapsed period. The sample PC is
    /// the next instruction to issue, so time stalled in a load is
    /// charged to its successor — the User CPU skid visible in the
    /// paper's Fig. 4 — and an instruction that stalls across several
    /// periods receives several samples, keeping samples × period an
    /// unbiased estimate of time.
    #[inline(never)]
    fn clock_ticks<H: ProfileHook>(&mut self, hook: &mut H) {
        let Some(period) = self.clock_period else {
            return;
        };
        while self.next_clock <= self.counts.cycles {
            self.next_clock = self.next_clock.saturating_add(period.get());
            hook.on_clock_sample(&self.cpu, self.cpu.pc);
        }
    }

    /// Walk the memory hierarchy for a data access; returns added
    /// stall cycles. Counts ground truth and feeds the counters.
    #[inline]
    fn data_access(&mut self, ea: u64, is_load: bool, pc: u64) -> u64 {
        let mut stall = 0;

        // DTLB.
        let page_bytes = if SegmentKind::of_addr(ea) == SegmentKind::Heap {
            self.config.heap_page_bytes
        } else {
            DEFAULT_PAGE_BYTES
        };
        if !self.tlb.access(ea, page_bytes) {
            self.counts.dtlb_miss += 1;
            stall += self.config.tlb_miss_penalty;
            self.count_event(CounterEvent::DTLBMiss, 1, pc, Some(ea));
        }

        // D$, then E$ on a D$ miss.
        if self.dcache.access(ea) == CacheOutcome::Miss {
            if is_load {
                self.counts.dc_read_miss += 1;
                self.count_event(CounterEvent::DCReadMiss, 1, pc, Some(ea));
            }
            self.counts.ec_ref += 1;
            self.count_event(CounterEvent::ECRef, 1, pc, Some(ea));
            let ec = self.ecache.access(ea);
            if is_load {
                let ec_stall = match ec {
                    CacheOutcome::Hit => self.config.ec_hit_stall,
                    CacheOutcome::Miss => {
                        self.counts.ec_read_miss += 1;
                        self.count_event(CounterEvent::ECReadMiss, 1, pc, Some(ea));
                        self.config.ec_miss_stall
                    }
                };
                self.counts.ec_stall_cycles += ec_stall;
                self.count_event(CounterEvent::ECStallCycles, ec_stall, pc, Some(ea));
                stall += ec_stall;
            }
            // Stores are absorbed by the store buffer: they consume an
            // E$ reference but the paper's E$ Stall Cycles counter
            // measures *read*-miss wait, so stores add no stall here
            // (Figure 4 shows ~0 stall on stx).
        }
        stall
    }

    /// Run until the program exits via `ta 0`, an error occurs, or
    /// `max_insns` instructions retire.
    pub fn run<H: ProfileHook>(
        &mut self,
        max_insns: u64,
        hook: &mut H,
    ) -> Result<RunOutcome, MachineError> {
        let limit = self.counts.insts.saturating_add(max_insns);
        // One iteration issues one instruction.
        while self.halted.is_none() {
            if self.counts.insts >= limit {
                return Err(MachineError::InsnLimit { limit: max_insns });
            }
            let pc = self.cpu.pc;
            if pc < TEXT_BASE || !pc.is_multiple_of(4) {
                return Err(MachineError::BadPc { pc });
            }
            let idx = ((pc - TEXT_BASE) / 4) as usize;
            let Some(&insn) = self.text.get(idx) else {
                return Err(MachineError::BadPc { pc });
            };

            // Instruction fetch: model the I$ at line granularity.
            let mut cycles = 1u64;
            let fetch_line = pc >> self.icache.line_bytes().trailing_zeros();
            if fetch_line != self.last_fetch_line {
                self.last_fetch_line = fetch_line;
                if self.icache.access(pc) == CacheOutcome::Miss {
                    self.counts.ic_miss += 1;
                    cycles += self.config.ic_miss_stall;
                    self.count_event(CounterEvent::ICMiss, 1, pc, None);
                }
            }

            // Annulled delay slot: fetched but not executed or retired.
            if self.annul_next {
                self.annul_next = false;
                self.cpu.pc = self.cpu.npc;
                self.cpu.npc += 4;
                self.counts.cycles += 1;
                self.count_event(CounterEvent::Cycles, 1, pc, None);
                continue;
            }

            // Delayed control transfer: the next instruction is always
            // the one at `npc` (the delay slot for transfers); transfers
            // overwrite `next_npc` only.
            let next_pc = self.cpu.npc;
            let mut next_npc = self.cpu.npc + 4;

            match insn {
                Insn::Nop => {}
                Insn::Sethi { imm21, rd } => {
                    self.cpu.set_reg(rd, (imm21 as u64) << 11);
                }
                Insn::Alu {
                    op,
                    cc,
                    rs1,
                    op2,
                    rd,
                } => {
                    let a = self.cpu.reg(rs1) as i64;
                    let b = self.cpu.operand(op2) as i64;
                    let (res, v) = match op {
                        AluOp::Add => {
                            let (r, o) = a.overflowing_add(b);
                            (r, o)
                        }
                        AluOp::Sub => {
                            let (r, o) = a.overflowing_sub(b);
                            (r, o)
                        }
                        AluOp::Mul => {
                            cycles += self.config.mul_cycles;
                            (a.wrapping_mul(b), false)
                        }
                        AluOp::Div => {
                            cycles += self.config.div_cycles;
                            if b == 0 {
                                return Err(MachineError::DivisionByZero { pc });
                            }
                            (a.wrapping_div(b), false)
                        }
                        AluOp::And => (a & b, false),
                        AluOp::Or => (a | b, false),
                        AluOp::Xor => (a ^ b, false),
                        AluOp::Sll => (((a as u64) << (b as u64 & 63)) as i64, false),
                        AluOp::Srl => (((a as u64) >> (b as u64 & 63)) as i64, false),
                        AluOp::Sra => (a >> (b as u64 & 63), false),
                    };
                    if cc {
                        self.cpu.flags = Flags {
                            z: res == 0,
                            n: res < 0,
                            v,
                        };
                    }
                    self.cpu.set_reg(rd, res as u64);
                }
                Insn::Load {
                    width,
                    signed,
                    rs1,
                    op2,
                    rd,
                } => {
                    let ea = self.cpu.reg(rs1).wrapping_add(self.cpu.operand(op2));
                    let len = width.bytes();
                    if !ea.is_multiple_of(len) {
                        return Err(MachineError::MisalignedAccess { pc, addr: ea, len });
                    }
                    let Some(mut v) = self.mem.read(ea, len) else {
                        return Err(MachineError::UnmappedAccess { pc, addr: ea });
                    };
                    if signed {
                        let shift = 64 - len * 8;
                        v = (((v << shift) as i64) >> shift) as u64;
                    }
                    cycles += self.data_access(ea, true, pc);
                    self.counts.loads += 1;
                    self.cpu.set_reg(rd, v);
                }
                Insn::Store {
                    width,
                    src,
                    rs1,
                    op2,
                } => {
                    let ea = self.cpu.reg(rs1).wrapping_add(self.cpu.operand(op2));
                    let len = width.bytes();
                    if !ea.is_multiple_of(len) {
                        return Err(MachineError::MisalignedAccess { pc, addr: ea, len });
                    }
                    if !self.mem.write(ea, len, self.cpu.reg(src)) {
                        return Err(MachineError::UnmappedAccess { pc, addr: ea });
                    }
                    cycles += self.data_access(ea, false, pc);
                    self.counts.stores += 1;
                }
                Insn::Branch {
                    cond,
                    annul,
                    pred_taken: _,
                    disp,
                } => {
                    let taken = self.cpu.flags.eval(cond);
                    if taken {
                        next_npc = pc.wrapping_add_signed(disp as i64 * 4);
                        // `ba,a`: the delay slot is annulled even when taken.
                        if annul && cond == Cond::A {
                            self.annul_next = true;
                        }
                    } else if annul {
                        self.annul_next = true;
                    }
                }
                Insn::Call { disp } => {
                    self.cpu.set_reg(Reg::O7, pc);
                    next_npc = pc.wrapping_add_signed(disp as i64 * 4);
                    self.cpu.callstack.push(pc);
                }
                Insn::Jmpl { rs1, op2, rd } => {
                    let target = self.cpu.reg(rs1).wrapping_add(self.cpu.operand(op2));
                    let is_ret = rs1 == Reg::O7 && rd.is_zero();
                    self.cpu.set_reg(rd, pc);
                    if is_ret {
                        self.cpu.callstack.pop();
                    } else if !rd.is_zero() {
                        // Indirect call.
                        self.cpu.callstack.push(pc);
                    }
                    next_npc = target;
                }
                Insn::Prefetch { rs1, op2 } => {
                    // Fill lines without stalling: a prefetch never adds
                    // wait cycles (it retires immediately and the fill
                    // proceeds in the background), but its address still
                    // walks the DTLB and, on a D$ miss, consumes an E$
                    // reference — the UltraSPARC counts those events for
                    // prefetches too, which is why ECRef/DTLB profiles of
                    // §3.3 prefetch-optimized code attribute samples to
                    // the prefetch instructions themselves.
                    let ea = self.cpu.reg(rs1).wrapping_add(self.cpu.operand(op2));
                    if ea < crate::TEXT_BASE {
                        let page_bytes = if SegmentKind::of_addr(ea) == SegmentKind::Heap {
                            self.config.heap_page_bytes
                        } else {
                            DEFAULT_PAGE_BYTES
                        };
                        if !self.tlb.access(ea, page_bytes) {
                            self.counts.dtlb_miss += 1;
                            self.count_event(CounterEvent::DTLBMiss, 1, pc, Some(ea));
                        }
                        if self.dcache.access(ea) == CacheOutcome::Miss {
                            self.counts.ec_ref += 1;
                            self.count_event(CounterEvent::ECRef, 1, pc, Some(ea));
                            self.ecache.access(ea);
                        }
                    }
                }
                Insn::Trap { num } => match num {
                    trap::EXIT => {
                        self.halted = Some(self.cpu.reg(Reg::O0) as i64);
                    }
                    n if n == trap::HOSTCALL_BASE => {
                        // print_long
                        let v = self.cpu.reg(Reg::O0) as i64;
                        self.output.push_str(&v.to_string());
                        self.output.push('\n');
                    }
                    n if n == trap::HOSTCALL_BASE + 1 => {
                        // print_char
                        self.output.push(self.cpu.reg(Reg::O0) as u8 as char);
                    }
                    n => return Err(MachineError::BadTrap { pc, num: n }),
                },
            };

            // Retire: advance PC, account cycles and instructions.
            self.cpu.pc = next_pc;
            self.cpu.npc = next_npc;
            self.counts.cycles += cycles;
            self.counts.insts += 1;
            self.count_event(CounterEvent::Cycles, cycles, pc, None);
            self.count_event(CounterEvent::Insts, 1, pc, None);

            // Trap delivery and clock ticks cost one compare each unless
            // a trap is pending or a sample is due.
            if self.pending != 0 {
                self.deliver_pending(hook);
            }
            if self.counts.cycles >= self.next_clock {
                self.clock_ticks(hook);
            }
        }
        // The program has halted, so a trap still counting down its
        // skid will never be delivered; account it as dropped to keep
        // delivered + dropped an exact overflow count.
        self.pending = 0;
        let dropped = std::array::from_fn(|s| {
            self.counters[s].as_mut().map_or(0, |c| {
                if c.pending.take().is_some() {
                    c.dropped += 1;
                }
                c.dropped
            })
        });
        Ok(RunOutcome {
            exit_code: self.halted.unwrap_or(0),
            output: std::mem::take(&mut self.output),
            counts: self.counts,
            dropped_overflows: dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DATA_BASE;

    /// Hand-assemble a tiny program: sum the 8-byte elements of an
    /// array at DATA_BASE into %o0 and exit.
    fn sum_array_image(n: i64) -> Image {
        use simsparc_isa::Insn as I;
        let text = vec![
            // %g1 = DATA_BASE (0x2000_0000) via sethi
            I::Sethi {
                imm21: (DATA_BASE >> 11) as u32,
                rd: Reg::G1,
            },
            // %g2 = n (loop counter)
            I::mov(Operand::Imm(n as i16), Reg::G2),
            // %o0 = 0
            I::mov(Operand::Imm(0), Reg::O0),
            // loop: ldx [%g1], %g3
            I::load_x(Reg::G1, Operand::Imm(0), Reg::G3),
            // add %o0, %g3, %o0
            I::alu(AluOp::Add, Reg::O0, Operand::Reg(Reg::G3), Reg::O0),
            // add %g1, 8, %g1
            I::alu(AluOp::Add, Reg::G1, Operand::Imm(8), Reg::G1),
            // subcc %g2, 1, %g2
            I::Alu {
                op: AluOp::Sub,
                cc: true,
                rs1: Reg::G2,
                op2: Operand::Imm(1),
                rd: Reg::G2,
            },
            // bne loop (disp = -4)
            I::Branch {
                cond: Cond::Ne,
                annul: false,
                pred_taken: true,
                disp: -4,
            },
            I::Nop, // delay slot
            I::Trap { num: trap::EXIT },
        ];
        let mut data = Vec::new();
        for i in 0..n {
            data.extend_from_slice(&(i + 1).to_le_bytes());
        }
        Image {
            text,
            data,
            bss_bytes: 0,
            entry: TEXT_BASE,
        }
    }

    #[test]
    fn sum_loop_computes_correctly() {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(100));
        let out = m.run(1_000_000, &mut NullHook).unwrap();
        assert_eq!(out.exit_code, 100 * 101 / 2);
        // 100 iterations x 6 insns + 3 setup + 1 trap + delay slots.
        assert!(out.counts.insts > 600 && out.counts.insts < 720);
        assert_eq!(out.counts.loads, 100);
    }

    #[test]
    fn cache_counts_for_sequential_scan() {
        let mut m = Machine::new(MachineConfig::default());
        let n = 512i64;
        m.load(&sum_array_image(n));
        let out = m.run(1_000_000, &mut NullHook).unwrap();
        // 512 * 8 bytes = 4096 bytes = 128 D$ lines (32 B), all cold.
        assert_eq!(out.counts.dc_read_miss, 128);
        assert_eq!(out.counts.ec_ref, 128);
        // 4096 bytes = 8 E$ lines (512 B), all cold.
        assert_eq!(out.counts.ec_read_miss, 8);
        // One 8 KB data page touched -> one DTLB miss.
        assert_eq!(out.counts.dtlb_miss, 1);
        let expected_stall = 8 * m.config.ec_miss_stall + (128 - 8) * m.config.ec_hit_stall;
        assert_eq!(out.counts.ec_stall_cycles, expected_stall);
    }

    #[test]
    fn exit_code_is_o0() {
        use simsparc_isa::Insn as I;
        let img = Image {
            text: vec![
                I::mov(Operand::Imm(42), Reg::O0),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert_eq!(m.run(100, &mut NullHook).unwrap().exit_code, 42);
    }

    #[test]
    fn insn_limit_enforced() {
        use simsparc_isa::Insn as I;
        // Infinite loop: ba 0
        let img = Image {
            text: vec![
                I::Branch {
                    cond: Cond::A,
                    annul: false,
                    pred_taken: true,
                    disp: 0,
                },
                I::Nop,
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert_eq!(
            m.run(1000, &mut NullHook).unwrap_err(),
            MachineError::InsnLimit { limit: 1000 }
        );
    }

    #[test]
    fn misaligned_access_faults() {
        use simsparc_isa::Insn as I;
        let img = Image {
            text: vec![
                I::Sethi {
                    imm21: (DATA_BASE >> 11) as u32,
                    rd: Reg::G1,
                },
                I::load_x(Reg::G1, Operand::Imm(3), Reg::G2),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![0; 64],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert!(matches!(
            m.run(100, &mut NullHook),
            Err(MachineError::MisalignedAccess { .. })
        ));
    }

    #[test]
    fn division_by_zero_faults() {
        use simsparc_isa::Insn as I;
        let img = Image {
            text: vec![
                I::alu(AluOp::Div, Reg::O1, Operand::Reg(Reg::G0), Reg::O0),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert!(matches!(
            m.run(100, &mut NullHook),
            Err(MachineError::DivisionByZero { .. })
        ));
    }

    /// Collects every overflow trap it sees.
    struct TrapRecorder {
        traps: Vec<OverflowTrap>,
        samples: Vec<u64>,
    }

    impl ProfileHook for TrapRecorder {
        fn on_overflow(&mut self, _cpu: &CpuState, trap: &OverflowTrap) {
            self.traps.push(*trap);
        }
        fn on_clock_sample(&mut self, _cpu: &CpuState, pc: u64) {
            self.samples.push(pc);
        }
    }

    #[test]
    fn counter_overflow_traps_are_delivered_with_skid() {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(200));
        m.program_counter(0, CounterEvent::Insts, 97).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(1_000_000, &mut rec).unwrap();
        let expected = out.counts.insts / 97;
        // Some traps may be dropped if skid overlaps the next overflow;
        // with interval 97 and max skid 6 that cannot happen.
        assert_eq!(rec.traps.len() as u64, expected);
        for t in &rec.traps {
            assert_eq!(t.event, CounterEvent::Insts);
            assert!(t.skid >= 1 && t.skid <= 6);
            assert!(t.delivered_pc >= TEXT_BASE);
            assert!(t.trigger_pc >= TEXT_BASE);
        }
    }

    #[test]
    fn dtlbm_traps_are_precise() {
        let mut m = Machine::new(MachineConfig::default());
        // Touch many pages: large array.
        m.load(&sum_array_image(4000)); // 32 KB = 4 pages
        m.program_counter(0, CounterEvent::DTLBMiss, 1).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(10_000_000, &mut rec).unwrap();
        assert_eq!(out.counts.dtlb_miss, 4);
        assert_eq!(rec.traps.len(), 4);
        for t in &rec.traps {
            // Precise: delivered at the very next instruction, and the
            // trigger is the load at loop offset 3.
            assert_eq!(t.skid, 1);
            assert_eq!(t.delivered_pc, t.trigger_pc + 4);
            assert_eq!(t.trigger_pc, TEXT_BASE + 3 * 4);
        }
        // Ground-truth EAs: one per touched page, page-aligned steps.
        let eas: Vec<u64> = rec.traps.iter().map(|t| t.trigger_ea.unwrap()).collect();
        for w in eas.windows(2) {
            assert_eq!(w[1] - w[0], 8192, "one miss per new 8 KB page");
        }
    }

    #[test]
    fn insts_traps_have_no_trigger_ea() {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(200));
        m.program_counter(0, CounterEvent::Insts, 97).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        m.run(1_000_000, &mut rec).unwrap();
        assert!(!rec.traps.is_empty());
        assert!(rec.traps.iter().all(|t| t.trigger_ea.is_none()));
    }

    #[test]
    fn prefetch_counts_reference_events_without_stalling() {
        use simsparc_isa::Insn as I;
        // A prefetch of a cold heap line walks the DTLB and consumes
        // an E$ reference — but adds zero stall cycles.
        let img = Image {
            text: vec![
                I::Sethi {
                    imm21: (crate::HEAP_BASE >> 11) as u32,
                    rd: Reg::G1,
                },
                I::Prefetch {
                    rs1: Reg::G1,
                    op2: Operand::Imm(0),
                },
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        m.program_counter(1, CounterEvent::ECRef, 1).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(100, &mut rec).unwrap();
        assert_eq!(out.counts.ec_ref, 1);
        assert_eq!(out.counts.dtlb_miss, 1);
        assert_eq!(out.counts.ec_stall_cycles, 0, "prefetch never stalls");
        let t = rec.traps.iter().find(|t| t.event == CounterEvent::ECRef);
        let t = t.expect("the prefetch's E$ reference overflows the counter");
        assert_eq!(t.trigger_pc, TEXT_BASE + 4, "trigger is the prefetch");
        assert_eq!(t.trigger_ea, Some(crate::HEAP_BASE));
    }

    #[test]
    fn pic_constraint_rejects_wrong_slot() {
        let mut m = Machine::new(MachineConfig::default());
        assert!(m
            .program_counter(0, CounterEvent::ECReadMiss, 1000)
            .is_err());
        assert!(m.program_counter(1, CounterEvent::ECReadMiss, 1000).is_ok());
        assert!(m
            .program_counter(0, CounterEvent::ECStallCycles, 1000)
            .is_ok());
    }

    #[test]
    fn clock_samples_arrive_at_period() {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(500));
        m.set_clock_sample_period(NonZeroU64::new(100));
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(1_000_000, &mut rec).unwrap();
        let expected = out.counts.cycles / 100;
        let got = rec.samples.len() as u64;
        assert!(
            got >= expected.saturating_sub(2) && got <= expected + 2,
            "expected ~{expected} samples, got {got}"
        );
        for pc in rec.samples {
            assert!(pc >= TEXT_BASE);
        }
    }

    #[test]
    fn estimates_match_ground_truth() {
        // The whole premise of counter profiling: overflows x interval
        // approximates the true count.
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(4000));
        m.program_counter(0, CounterEvent::Cycles, 211).unwrap();
        m.program_counter(1, CounterEvent::ECRef, 23).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(10_000_000, &mut rec).unwrap();
        let cyc_traps = rec
            .traps
            .iter()
            .filter(|t| t.event == CounterEvent::Cycles)
            .count() as u64;
        let ref_traps = rec
            .traps
            .iter()
            .filter(|t| t.event == CounterEvent::ECRef)
            .count() as u64;
        let cyc_est = (cyc_traps + out.dropped_overflows[0]) * 211;
        let ref_est = (ref_traps + out.dropped_overflows[1]) * 23;
        let within = |est: u64, truth: u64, tol_num: u64, tol_den: u64| {
            let diff = est.abs_diff(truth);
            diff * tol_den <= truth * tol_num
        };
        assert!(
            within(cyc_est, out.counts.cycles, 1, 100),
            "cycles est {cyc_est} vs {}",
            out.counts.cycles
        );
        assert!(
            within(ref_est, out.counts.ec_ref, 5, 100),
            "ecref est {ref_est} vs {}",
            out.counts.ec_ref
        );
    }

    #[test]
    fn callstack_tracks_call_and_ret() {
        use simsparc_isa::Insn as I;
        // main: call f; nop; ta 0    f: ret; nop
        let img = Image {
            text: vec![
                I::Call { disp: 3 },         // 0: call f (at index 3)
                I::Nop,                      // 1: delay
                I::Trap { num: trap::EXIT }, // 2
                I::ret(),                    // 3: f
                I::Nop,                      // 4: delay
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        let out = m.run(100, &mut NullHook).unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(m.cpu().callstack().is_empty());
    }
    #[test]
    fn annulled_delay_slot_skipped_when_untaken() {
        use simsparc_isa::Insn as I;
        // cmp %g1, 1 (g1 = 0, so NOT equal -> be untaken);
        // be,a taken_target; delay: mov 99 -> %o0 (must be ANNULLED);
        // mov 7 -> %o0; ta 0.
        let img = Image {
            text: vec![
                I::cmp(Reg::G1, Operand::Imm(1)),
                I::Branch {
                    cond: Cond::E,
                    annul: true,
                    pred_taken: false,
                    disp: 4,
                },
                I::mov(Operand::Imm(99), Reg::O0), // annulled slot
                I::mov(Operand::Imm(7), Reg::O0),
                I::Trap { num: trap::EXIT },
                I::mov(Operand::Imm(55), Reg::O0), // taken target (unused)
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert_eq!(m.run(100, &mut NullHook).unwrap().exit_code, 7);
    }

    #[test]
    fn annulled_slot_executes_when_taken() {
        use simsparc_isa::Insn as I;
        // g1 = 1 -> be,a TAKEN: the delay slot DOES execute.
        let img = Image {
            text: vec![
                I::mov(Operand::Imm(1), Reg::G1),
                I::cmp(Reg::G1, Operand::Imm(1)),
                I::Branch {
                    cond: Cond::E,
                    annul: true,
                    pred_taken: true,
                    disp: 3,
                },
                I::mov(Operand::Imm(40), Reg::O0), // delay slot: executes
                I::Trap { num: trap::EXIT },       // skipped
                // target: add 2 to whatever the slot produced
                I::alu(AluOp::Add, Reg::O0, Operand::Imm(2), Reg::O0),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert_eq!(m.run(100, &mut NullHook).unwrap().exit_code, 42);
    }

    #[test]
    fn ba_a_always_annuls_its_slot() {
        use simsparc_isa::Insn as I;
        let img = Image {
            text: vec![
                I::mov(Operand::Imm(1), Reg::O0),
                I::Branch {
                    cond: Cond::A,
                    annul: true,
                    pred_taken: true,
                    disp: 3,
                },
                I::mov(Operand::Imm(99), Reg::O0), // must be annulled
                I::Trap { num: trap::EXIT },
                I::alu(AluOp::Add, Reg::O0, Operand::Imm(10), Reg::O0),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert_eq!(m.run(100, &mut NullHook).unwrap().exit_code, 11);
    }

    #[test]
    fn store_buffer_hides_ec_stall_for_stores() {
        use simsparc_isa::Insn as I;
        // A store to a cold line consumes an E$ reference but adds no
        // E$ stall (the paper's Figure 4 shows ~0 stall on stx).
        let img = Image {
            text: vec![
                I::Sethi {
                    imm21: (crate::HEAP_BASE >> 11) as u32,
                    rd: Reg::G1,
                },
                I::store_x(Reg::G2, Reg::G1, Operand::Imm(0)),
                I::Trap { num: trap::EXIT },
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        let out = m.run(100, &mut NullHook).unwrap();
        assert_eq!(out.counts.ec_ref, 1);
        assert_eq!(out.counts.ec_read_miss, 0);
        assert_eq!(out.counts.ec_stall_cycles, 0);
        assert_eq!(out.counts.stores, 1);
        assert_eq!(out.counts.dtlb_miss, 1);
    }
    #[test]
    fn bad_trap_and_bad_pc_fault() {
        use simsparc_isa::Insn as I;
        let img = Image {
            text: vec![I::Trap { num: 9 }],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert!(matches!(
            m.run(10, &mut NullHook),
            Err(MachineError::BadTrap { num: 9, .. })
        ));

        // Indirect jump to a non-text address.
        let img = Image {
            text: vec![
                I::mov(Operand::Imm(64), Reg::G1),
                I::Jmpl {
                    rs1: Reg::G1,
                    op2: Operand::Imm(0),
                    rd: Reg::G0,
                },
                I::Nop,
            ],
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        assert!(matches!(
            m.run(10, &mut NullHook),
            Err(MachineError::BadPc { .. })
        ));
    }

    #[test]
    fn overflow_events_drop_when_interval_shorter_than_skid() {
        // Interval 1 on insts with skid up to 6: most overflows arrive
        // while the previous trap is still pending and are dropped —
        // but estimated totals (delivered + dropped) stay exact.
        let mut m = Machine::new(MachineConfig::default());
        m.load(&sum_array_image(500));
        m.program_counter(0, CounterEvent::Insts, 1).unwrap();
        let mut rec = TrapRecorder {
            traps: Vec::new(),
            samples: Vec::new(),
        };
        let out = m.run(1_000_000, &mut rec).unwrap();
        assert!(out.dropped_overflows[0] > 0, "expected drops");
        assert_eq!(
            rec.traps.len() as u64 + out.dropped_overflows[0],
            out.counts.insts,
            "delivered + dropped must equal the true count at interval 1"
        );
    }

    #[test]
    fn icache_misses_counted_per_new_line() {
        use simsparc_isa::Insn as I;
        // Straight-line code spanning several 32-byte I$ lines.
        let mut text = vec![I::Nop; 64];
        text.push(I::Trap { num: trap::EXIT });
        let img = Image {
            text,
            data: vec![],
            bss_bytes: 0,
            entry: TEXT_BASE,
        };
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img);
        let out = m.run(1000, &mut NullHook).unwrap();
        // 65 instructions x 4 bytes = 260 bytes = 9 lines, all cold.
        assert_eq!(out.counts.ic_miss, 9);
    }
}
