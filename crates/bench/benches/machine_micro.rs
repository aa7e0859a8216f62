//! Microbenchmarks of the simulator substrate: cache and TLB model
//! throughput (per 1024 accesses), and raw interpreter speed on a hot
//! loop (per million retired instructions). These bound how fast every
//! other experiment can run; `scripts/bench-trajectory.sh` gates them
//! against `BENCH_machine_micro.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use simsparc_isa::{AluOp, Cond, Insn, Operand, Reg};
use simsparc_machine::{
    CacheConfig, Image, Machine, MachineConfig, MachineError, NullHook, SetAssocCache, Tlb,
    TlbConfig, DATA_BASE, TEXT_BASE,
};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_micro");

    group.bench_function("dcache_hit_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        });
        // Warm a small set.
        for i in 0..64u64 {
            cache.access(i * 32);
        }
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..MODEL_ACCESSES {
                i = (i + 1) % 64;
                black_box(cache.access(i * 32));
            }
        })
    });

    group.bench_function("ecache_miss_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig {
            bytes: 128 * 1024,
            ways: 2,
            line_bytes: 512,
        });
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..MODEL_ACCESSES {
                addr = addr.wrapping_add(512 * 7919);
                black_box(cache.access(addr % (1 << 30)));
            }
        })
    });

    group.bench_function("tlb_mixed_pages", |b| {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            ways: 2,
        });
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..MODEL_ACCESSES {
                i = i.wrapping_add(0x3fb5);
                let heap = i.is_multiple_of(2);
                let page = if heap { 512 * 1024 } else { 8 * 1024 };
                black_box(tlb.access(0x4000_0000 + (i * 8192) % (1 << 26), page));
            }
        })
    });

    // Interpreter throughput: each iteration retires INTERP_INSNS
    // instructions of an endless loop on one machine, built (with its
    // page table) outside the timed closure, so the time is the
    // interpreter's alone. A tight ALU loop (no memory) first.
    group.bench_function("interp_alu_loop_1M", |b| {
        let text = vec![
            Insn::mov(Operand::Imm(0), Reg::O0),
            // loop: (%o0 reaches -1 only after 2^64 iterations)
            Insn::alu(AluOp::Add, Reg::O0, Operand::Imm(1), Reg::O0),
            Insn::cmp(Reg::O0, Operand::Imm(-1)),
            Insn::Branch {
                cond: Cond::Ne,
                annul: false,
                pred_taken: true,
                disp: -2,
            },
            Insn::Nop,
        ];
        let mut m = endless(text, vec![]);
        b.iter(|| retire(&mut m))
    });

    // Interpreter throughput with memory traffic: sweep a 4 KB array.
    group.bench_function("interp_mem_loop", |b| {
        let text = vec![
            Insn::Sethi {
                imm21: (DATA_BASE >> 11) as u32,
                rd: Reg::G1,
            },
            Insn::mov(Operand::Imm(0), Reg::O0),
            Insn::mov(Operand::Imm(0), Reg::G3),
            // loop: ldx [g1+g3], g2 ; add o0,g2,o0 ; g3 = (g3+8) & 4095 ; ba
            Insn::Load {
                width: simsparc_isa::MemWidth::X,
                signed: false,
                rs1: Reg::G1,
                op2: Operand::Reg(Reg::G3),
                rd: Reg::G2,
            },
            Insn::alu(AluOp::Add, Reg::O0, Operand::Reg(Reg::G2), Reg::O0),
            Insn::alu(AluOp::Add, Reg::G3, Operand::Imm(8), Reg::G3),
            Insn::alu(AluOp::And, Reg::G3, Operand::Imm(4095), Reg::G3),
            Insn::Branch {
                cond: Cond::A,
                annul: false,
                pred_taken: true,
                disp: -4,
            },
            Insn::Nop,
        ];
        let mut m = endless(text, vec![1u8; 4096]);
        b.iter(|| retire(&mut m))
    });

    group.finish();
}

/// Accesses each cache or TLB iteration makes, so that one timed
/// batch spans microseconds rather than a few nanoseconds.
const MODEL_ACCESSES: u64 = 1024;

/// Instructions each interpreter iteration retires.
const INTERP_INSNS: u64 = 1_000_000;

/// A machine loaded with a program that never exits.
fn endless(text: Vec<Insn>, data: Vec<u8>) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    m.load(&Image {
        text,
        data,
        bss_bytes: 0,
        entry: TEXT_BASE,
    });
    m
}

/// Retire exactly [`INTERP_INSNS`] more instructions.
fn retire(m: &mut Machine) -> u64 {
    let stopped = m.run(INTERP_INSNS, &mut NullHook).unwrap_err();
    assert_eq!(
        stopped,
        MachineError::InsnLimit {
            limit: INTERP_INSNS
        }
    );
    black_box(m.counts().insts)
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
