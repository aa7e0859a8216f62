//! `mp-opt` — the feedback-directed optimization driver.
//!
//! Closes the loop the paper's §3.3 walks by hand: profile the
//! workload under the simulated counters, derive concrete decisions
//! from the data-object views (structure member reordering/padding,
//! heap allocation alignment, heap page size, prefetch insertion),
//! recompile with `minic` under the grown feedback file, re-profile,
//! and iterate to a fixed point. Every round's profile is first gated
//! through `mp-verify`'s differential oracle so that no decision is
//! derived from corrupted attribution, and every candidate decision
//! must preserve program output bit-for-bit (MCF additionally
//! re-verifies against the min-cost-flow oracle).
//!
//! ```text
//! mp-opt mcf [--trips N] [--window N] [--seed N] [OPTIONS]
//! mp-opt FILE.c [OPTIONS]
//!
//!   --rounds N            max profile->decide->measure rounds (3)
//!   --min-gain PCT        cycle gain a decision must deliver (0.3)
//!   --precision PCT       verify-gate minimum backtracked precision (70)
//!   --spec SPEC[:clock]   counter spec for one profiled run; repeat
//!                         to replace the default E1/E2 pair
//!   --clock-period N      clock-profiling period in cycles, >= 1 (10007)
//!   --ecache-kb N         E$ capacity in KB (default: scaled paper config)
//!   --tlb-entries N       DTLB entries (default: scaled paper config)
//!   --feedback-out FILE   write the final feedback file
//!   --assert-decisions N  exit 1 unless at least N decisions were emitted
//!   --assert-no-regress   exit 1 if the final run is slower than baseline
//! ```

use std::process::exit;

use memprof::mcf::{paper_machine_config, Instance, InstanceParams};
use memprof::opt::{optimize, CSourceWorkload, McfWorkload, OptConfig, Workload};
use memprof::out;

fn usage(msg: &str) -> ! {
    eprintln!(
        "mp-opt: {msg}\n\
         usage: mp-opt mcf [--trips N] [--window N] [--seed N] [OPTIONS]\n\
         \x20      mp-opt FILE.c [OPTIONS]\n\
         options: --rounds N --min-gain PCT --precision PCT --spec SPEC[:clock]\n\
         \x20        --clock-period N --ecache-kb N --tlb-entries N --feedback-out FILE\n\
         \x20        --assert-decisions N --assert-no-regress"
    );
    exit(2)
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("bad number `{s}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut target: Option<String> = None;
    let mut trips = 220usize;
    let mut window = 40usize;
    let mut seed = 18u64;
    let mut rounds = 3usize;
    let mut min_gain_pct = 0.3f64;
    let mut precision = 70.0f64;
    let mut specs: Vec<(String, bool)> = Vec::new();
    let mut clock_period = 10007u64;
    let mut ecache_kb: Option<u64> = None;
    let mut tlb_entries: Option<u32> = None;
    let mut feedback_out: Option<String> = None;
    let mut assert_decisions: Option<usize> = None;
    let mut assert_no_regress = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut arg = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--trips" => trips = parse(&arg("--trips")),
            "--window" => window = parse(&arg("--window")),
            "--seed" => seed = parse(&arg("--seed")),
            "--rounds" => rounds = parse(&arg("--rounds")),
            "--min-gain" => min_gain_pct = parse(&arg("--min-gain")),
            "--precision" => precision = parse(&arg("--precision")),
            "--clock-period" => {
                clock_period = parse(&arg("--clock-period"));
                if clock_period == 0 {
                    usage("--clock-period must be at least 1 cycle");
                }
            }
            "--ecache-kb" => ecache_kb = Some(parse(&arg("--ecache-kb"))),
            "--tlb-entries" => tlb_entries = Some(parse(&arg("--tlb-entries"))),
            "--spec" => {
                let raw = arg("--spec");
                let (spec, clock) = match raw.strip_suffix(":clock") {
                    Some(s) => (s.to_string(), true),
                    None => (raw, false),
                };
                specs.push((spec, clock));
            }
            "--feedback-out" => feedback_out = Some(arg("--feedback-out")),
            "--assert-decisions" => assert_decisions = Some(parse(&arg("--assert-decisions"))),
            "--assert-no-regress" => assert_no_regress = true,
            _ if a.starts_with('-') => usage(&format!("unknown option {a}")),
            _ if target.is_some() => usage("more than one workload given"),
            _ => target = Some(a),
        }
    }
    let Some(target) = target else {
        usage("no workload given (mcf or FILE.c)")
    };

    let workload: Box<dyn Workload> = if target == "mcf" {
        Box::new(McfWorkload::new(Instance::generate(InstanceParams {
            n_trips: trips,
            window,
            seed,
            ..Default::default()
        })))
    } else {
        let source = std::fs::read_to_string(&target).unwrap_or_else(|e| {
            eprintln!("mp-opt: cannot read {target}: {e}");
            exit(1)
        });
        Box::new(CSourceWorkload::new(target.clone(), source))
    };

    let mut machine = paper_machine_config();
    if let Some(kb) = ecache_kb {
        machine.ecache.bytes = kb * 1024;
    }
    if let Some(entries) = tlb_entries {
        machine.tlb.entries = entries;
    }
    let mut cfg = OptConfig::for_machine(machine);
    cfg.max_rounds = rounds;
    cfg.min_gain = min_gain_pct / 100.0;
    cfg.verify_min_precision = precision;
    cfg.clock_period_cycles = clock_period;
    if !specs.is_empty() {
        cfg.counter_specs = specs;
    }

    let report = match optimize(workload.as_ref(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    };
    out!("{}", report.render());

    if let Some(path) = feedback_out {
        if let Err(e) = std::fs::write(&path, report.feedback.to_text()) {
            eprintln!("mp-opt: cannot write {path}: {e}");
            exit(1)
        }
    }

    let mut failed = false;
    if let Some(n) = assert_decisions {
        let emitted = report.candidates().count();
        if emitted < n {
            eprintln!("mp-opt: ASSERT: {emitted} decisions emitted, expected >= {n}");
            failed = true;
        }
    }
    if assert_no_regress && report.final_measurement.counts.cycles > report.baseline.counts.cycles {
        eprintln!(
            "mp-opt: ASSERT: final cycles {} regressed over baseline {}",
            report.final_measurement.counts.cycles, report.baseline.counts.cycles
        );
        failed = true;
    }
    if failed {
        exit(1);
    }
}
