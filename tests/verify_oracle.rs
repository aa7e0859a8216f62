//! Differential oracle property test: for randomized straight-line
//! and branchy mini-C programs, compile with `-xhwcprof`, collect on
//! the simulated machine, and compare the profiler's backtracked
//! attribution of every event against the counter unit's ground
//! truth. Every mismatch must classify into the §3.2.5 taxonomy —
//! nothing may silently pass as exact, and no invalidated event may
//! smuggle a reconstructed address into the data views.

use proptest::prelude::*;

use memprof::machine::{Machine, MachineConfig, TlbConfig};
use memprof::minic::{compile_and_link, CompileOptions};
use memprof::profiler::verify::{
    check_counter_identities, classify, verify_experiment, Bucket, Verdict,
};
use memprof::profiler::{analyze::UnknownKind, collect, parse_counter_spec, CollectConfig};

const POOL: u64 = 16 * 1024;

/// Render one generated block. `kind` selects the control-flow shape:
/// straight-line strided walk, data-dependent branch, or nested loop.
fn block(idx: usize, kind: u8, stride: u64) -> String {
    let s = 1 + stride % 128;
    match kind % 3 {
        0 => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i; long acc = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       acc = acc + pool_a[(i * {s}) % {POOL}];\n\
             \x20   }}\n\
             \x20   return acc;\n}}\n"
        ),
        1 => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i; long acc = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       if (pool_a[(i * {s}) % {POOL}] % 2 == 1) {{\n\
             \x20           acc = acc + pool_b[(i * {s} + 3) % {POOL}];\n\
             \x20       }} else {{\n\
             \x20           acc = acc - pool_a[(i * 5) % {POOL}];\n\
             \x20       }}\n\
             \x20   }}\n\
             \x20   return acc;\n}}\n"
        ),
        _ => format!(
            "long blk{idx}(long trips) {{\n\
             \x20   long i; long j; long acc = 0;\n\
             \x20   for (i = 0; i < trips; i = i + 1) {{\n\
             \x20       for (j = 0; j < 3; j = j + 1) {{\n\
             \x20           pool_b[(i * {s} + j) % {POOL}] = acc % 7;\n\
             \x20       }}\n\
             \x20       acc = acc + pool_a[(i * {s}) % {POOL}];\n\
             \x20   }}\n\
             \x20   return acc;\n}}\n"
        ),
    }
}

fn program(shapes: &[(u8, u64)]) -> String {
    let mut src = format!("long pool_a[{POOL}];\nlong pool_b[{POOL}];\n");
    for (i, &(kind, stride)) in shapes.iter().enumerate() {
        src.push_str(&block(i, kind, stride));
    }
    src.push_str("long main() {\n    long i; long s = 0;\n");
    src.push_str(&format!(
        "    for (i = 0; i < {POOL}; i = i + 1) {{ pool_a[i] = i * 2654435761; pool_b[i] = i; }}\n"
    ));
    for i in 0..shapes.len() {
        src.push_str(&format!("    s = s + blk{i}(2500);\n"));
    }
    src.push_str("    print_long(s);\n    return 0;\n}\n");
    src
}

/// Small hierarchy so the 128 KB pools actually miss.
fn machine() -> Machine {
    let mut cfg = MachineConfig::default();
    cfg.dcache.bytes = 8 * 1024;
    cfg.ecache.bytes = 64 * 1024;
    cfg.tlb = TlbConfig {
        entries: 8,
        ways: 2,
    };
    Machine::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn oracle_classifies_every_event(
        shapes in proptest::collection::vec((0u8..3, 0u64..1024), 1..4),
    ) {
        let src = program(&shapes);
        let prog = compile_and_link(&[("gen.c", &src)], CompileOptions::profiling())
            .expect("generated program must compile");
        let mut m = machine();
        m.load(&prog.image);
        let config = CollectConfig {
            counters: parse_counter_spec("+dtlbm,53,+ecrm,101").unwrap(),
            ..CollectConfig::default()
        };
        let exp = collect(&mut m, &config).expect("collect");
        prop_assert!(!exp.hwc_events.is_empty(), "workload produced no events");
        // The run's counter readings are consistent with each other.
        if let Err(why) = check_counter_identities(&exp, &m.config) {
            prop_assert!(false, "counter identity fails: {}", why);
        }

        let report = verify_experiment(&exp, &prog.syms);
        let covered: u64 = report.counters.iter().map(|c| c.total).sum();
        prop_assert_eq!(covered, exp.hwc_events.len() as u64);

        for ev in &exp.hwc_events {
            let backtrack = exp.counters[ev.counter].backtrack;
            let (bucket, verdict) = classify(&prog.syms, ev, backtrack);

            // Exact means exactly that: the profiler's concrete claim
            // is the oracle's trigger, address included.
            if verdict == Verdict::Exact {
                prop_assert_eq!(ev.candidate_pc, Some(ev.truth_trigger_pc));
                if let (Some(got), Some(truth)) = (ev.ea, ev.truth_ea) {
                    prop_assert_eq!(got, truth);
                }
            }
            // A wrong-PC verdict must be a real mismatch.
            if verdict == Verdict::WrongPc {
                prop_assert_ne!(ev.candidate_pc, Some(ev.truth_trigger_pc));
            }
            // Invalidation verdicts only arise from (Unresolvable).
            if matches!(
                verdict,
                Verdict::CorrectlyInvalidated | Verdict::WronglyInvalidated
            ) {
                prop_assert_eq!(bucket, Bucket::Unknown(UnknownKind::Unresolvable));
            }
            // And an (Unresolvable) event never ships an address — the
            // collector dropped it when the window crossed a branch
            // target (or there was no candidate to reconstruct from).
            if bucket == Bucket::Unknown(UnknownKind::Unresolvable) {
                prop_assert!(
                    ev.ea.is_none(),
                    "Unresolvable event at {:#x} carries ea {:?}",
                    ev.delivered_pc,
                    ev.ea
                );
            }
        }
    }
}
