//! Golden pin of the machine's exact profiling-event sequence.
//!
//! A small hand-assembled loop runs with both counter registers armed
//! and clock profiling on. Every overflow trap, every clock-sample PC
//! (in delivery order), the ground-truth event counts and the dropped
//! overflows are rendered to text and compared byte-for-byte against
//! `tests/golden/delivery_sequence.txt`. The program is built so the
//! run covers each delivery corner case:
//!
//! * an overflow dropped while another trap is pending (the second of
//!   two back-to-back E$-missing loads);
//! * a burst of at least twice the interval (every E$ miss adds 170
//!   stall cycles to an `ecstall` counter with interval 67);
//! * a trap still pending at halt (the last load's `ecstall` trap
//!   skids past the exit trap);
//! * several clock ticks on one long E$ stall (period 50 cycles);
//! * an annulled delay slot (`bne,a` falling through at loop exit).
//!
//! Regenerate intentionally with:
//!
//! ```text
//! MEMPROF_UPDATE_GOLDEN=1 cargo test -p simsparc-machine --test delivery_sequence
//! ```

use std::fmt::Write as _;
use std::num::NonZeroU64;
use std::path::PathBuf;

use simsparc_isa::{trap, AluOp, Cond, Insn, Operand, Reg};
use simsparc_machine::{
    CounterEvent, CpuState, Image, Machine, MachineConfig, OverflowTrap, ProfileHook, DATA_BASE,
    TEXT_BASE,
};

const ITERATIONS: i16 = 40;
/// PC of the second load in the loop body: it always crosses the
/// `ecstall` threshold while the first load's trap is still pending.
const SECOND_LOAD_PC: u64 = TEXT_BASE + 4 * 4;
/// PC of the load right before the exit trap.
const TAIL_LOAD_PC: u64 = TEXT_BASE + 10 * 4;

fn program() -> Image {
    let text = vec![
        // 0: %g1 = DATA_BASE
        Insn::Sethi {
            imm21: (DATA_BASE >> 11) as u32,
            rd: Reg::G1,
        },
        // 1: %g2 = loop count
        Insn::mov(Operand::Imm(ITERATIONS), Reg::G2),
        // 2: %o0 = 0
        Insn::mov(Operand::Imm(0), Reg::O0),
        // 3: loop: two loads from fresh E$ lines, back to back
        Insn::load_x(Reg::G1, Operand::Imm(0), Reg::G3),
        // 4:
        Insn::load_x(Reg::G1, Operand::Imm(512), Reg::G4),
        // 5: %o0 += %g3
        Insn::alu(AluOp::Add, Reg::O0, Operand::Reg(Reg::G3), Reg::O0),
        // 6: %g1 += 1024
        Insn::alu(AluOp::Add, Reg::G1, Operand::Imm(1024), Reg::G1),
        // 7: subcc %g2, 1, %g2
        Insn::Alu {
            op: AluOp::Sub,
            cc: true,
            rs1: Reg::G2,
            op2: Operand::Imm(1),
            rd: Reg::G2,
        },
        // 8: bne,a loop
        Insn::Branch {
            cond: Cond::Ne,
            annul: true,
            pred_taken: true,
            disp: -5,
        },
        // 9: delay slot, annulled when the branch falls through
        Insn::alu(AluOp::Add, Reg::O0, Operand::Imm(1), Reg::O0),
        // 10: one more E$ miss right before exit
        Insn::load_x(Reg::G1, Operand::Imm(0), Reg::G3),
        // 11:
        Insn::Trap { num: trap::EXIT },
    ];
    // Word k * 1024 holds k + 1.
    let mut data = vec![0u8; (ITERATIONS as usize + 1) * 1024];
    for k in 0..ITERATIONS as usize {
        data[k * 1024..k * 1024 + 8].copy_from_slice(&(k as u64 + 1).to_le_bytes());
    }
    Image {
        text,
        data,
        bss_bytes: 0,
        entry: TEXT_BASE,
    }
}

/// Records every profiling event, in delivery order.
#[derive(Default)]
struct Transcript {
    lines: String,
    traps: Vec<OverflowTrap>,
    samples: Vec<u64>,
}

impl ProfileHook for Transcript {
    fn on_overflow(&mut self, _cpu: &CpuState, t: &OverflowTrap) {
        let ea = t
            .trigger_ea
            .map_or("-".to_string(), |ea| format!("{ea:#x}"));
        writeln!(
            self.lines,
            "trap slot={} event={} delivered={:#x} trigger={:#x} ea={ea} skid={}",
            t.slot, t.event, t.delivered_pc, t.trigger_pc, t.skid
        )
        .unwrap();
        self.traps.push(*t);
    }

    fn on_clock_sample(&mut self, _cpu: &CpuState, pc: u64) {
        writeln!(self.lines, "clock pc={pc:#x}").unwrap();
        self.samples.push(pc);
    }
}

fn check_golden(actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/delivery_sequence.txt");
    if std::env::var_os("MEMPROF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with MEMPROF_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "delivery sequence diverged from {}\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn delivery_sequence_matches_golden() {
    let mut config = MachineConfig::default();
    // A skid of at least 3 keeps the first load's `ecstall` trap
    // pending across the second load, and the tail load's trap
    // pending across the exit trap.
    config.skid.ranges[CounterEvent::ECStallCycles as usize] = (3, 5);
    let stall = config.ec_miss_stall;
    let mut m = Machine::new(config);
    m.load(&program());
    m.program_counter(0, CounterEvent::ECStallCycles, 67)
        .unwrap();
    m.program_counter(1, CounterEvent::Insts, 5).unwrap();
    m.set_clock_sample_period(NonZeroU64::new(50));

    let mut rec = Transcript::default();
    let out = m.run(100_000, &mut rec).unwrap();

    // Coverage of each corner case, independent of the golden text.
    assert_eq!(
        out.exit_code,
        (1..=ITERATIONS as i64).sum::<i64>() + ITERATIONS as i64 - 1,
        "the delay slot runs on every taken branch and is annulled at loop exit"
    );
    assert!(stall >= 2 * 67, "each E$ miss is a burst of >= 2 intervals");
    assert_eq!(out.counts.ec_read_miss, 2 * ITERATIONS as u64 + 1);
    let slot0 = |pc: u64| rec.traps.iter().any(|t| t.slot == 0 && t.trigger_pc == pc);
    assert!(
        !slot0(SECOND_LOAD_PC),
        "the second load's overflow is dropped while the first is pending"
    );
    assert!(
        !slot0(TAIL_LOAD_PC),
        "the tail load's trap is still pending at halt"
    );
    assert!(out.dropped_overflows.iter().all(|&d| d > 0));
    assert!(
        rec.samples.windows(3).any(|w| w[0] == w[1] && w[1] == w[2]),
        "one long stall receives several clock ticks"
    );

    let mut text = rec.lines;
    let c = out.counts;
    writeln!(
        text,
        "counts cycles={} insts={} ic_miss={} dc_read_miss={} dtlb_miss={} ec_ref={} \
         ec_read_miss={} ec_stall_cycles={} loads={} stores={}",
        c.cycles,
        c.insts,
        c.ic_miss,
        c.dc_read_miss,
        c.dtlb_miss,
        c.ec_ref,
        c.ec_read_miss,
        c.ec_stall_cycles,
        c.loads,
        c.stores
    )
    .unwrap();
    writeln!(text, "dropped {:?}", out.dropped_overflows).unwrap();
    writeln!(text, "exit {}", out.exit_code).unwrap();
    check_golden(&text);
}
