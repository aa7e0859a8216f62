//! `mp-verify` — differential attribution validation against the
//! simulator's ground-truth oracle.
//!
//! Every overflow trap the simulated counter unit delivers is stamped
//! with the true trigger PC and effective address; `mp-collect`
//! records them alongside the backtracked candidate. This tool
//! replays each event through the analyzer's §2.3 validation and
//! classifies it as exact / wrong-pc / wrong-ea /
//! correctly-invalidated / wrongly-invalidated, reporting per-counter
//! precision and recall plus a confusion matrix over the §3.2.5
//! unknown taxonomy.
//!
//! ```text
//! mp-verify EXPDIR [EXPDIR2 ...] [--json] [--baseline FILE]
//! mp-verify --fuzz N [--seed S]
//!
//!   --json            machine-readable report (the baseline format)
//!   --baseline FILE   fail (exit 1) if any counter's exact-attribution
//!                     precision drops below the checked-in baseline;
//!                     MEMPROF_UPDATE_BASELINE=1 rewrites FILE instead
//!   --fuzz N          run N randomized minic codegen -> collect ->
//!                     verify cases (with shrinking) instead of
//!                     loading an experiment
//!   --seed S          fuzz seed (default 1)
//! ```

use std::path::PathBuf;
use std::process::exit;

use memprof::minic::SymbolTable;
use memprof::profiler::verify::{fuzz_attribution, verify_experiment, Verdict, VerifyReport};
use memprof::profiler::Experiment;
use memprof::{out, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: &str| -> ! {
        eprintln!(
            "mp-verify: {msg}\n\
             usage: mp-verify EXPDIR... [--json] [--baseline FILE]\n\
             \x20      mp-verify --fuzz N [--seed S]"
        );
        exit(2)
    };

    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut baseline: Option<PathBuf> = None;
    let mut fuzz: Option<u64> = None;
    let mut seed: u64 = 1;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--baseline needs a file")),
                ))
            }
            "--fuzz" => {
                let n = it.next().unwrap_or_else(|| usage("--fuzz needs a count"));
                fuzz = Some(n.parse().unwrap_or_else(|_| usage("bad --fuzz count")));
            }
            "--seed" => {
                let s = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = s.parse().unwrap_or_else(|_| usage("bad --seed value"));
            }
            _ if a.starts_with('-') => usage(&format!("unknown option {a}")),
            _ => dirs.push(PathBuf::from(a)),
        }
    }

    if let Some(cases) = fuzz {
        match fuzz_attribution(cases, seed) {
            Ok(stats) => {
                outln!("fuzz: {} cases, {} events clean", stats.cases, stats.events);
                for v in Verdict::ALL {
                    outln!("  {:<22} {}", v.label(), stats.verdicts[v as usize]);
                }
            }
            Err(fail) => {
                eprintln!(
                    "mp-verify: fuzz case (seed {:#x}) violated an invariant:\n  {}",
                    fail.case_seed, fail.message
                );
                if !fail.window.is_empty() {
                    eprintln!("offending instruction window:\n{}", fail.window);
                }
                eprintln!("shrunk program:\n{}", fail.source);
                exit(1);
            }
        }
        return;
    }

    if dirs.is_empty() {
        usage("no experiment directory given");
    }

    let mut failed = false;
    for dir in &dirs {
        let exp = Experiment::load(dir).unwrap_or_else(|e| {
            eprintln!("mp-verify: cannot load {}: {e}", dir.display());
            exit(1)
        });
        let syms = SymbolTable::load(&dir.join("syms.txt")).unwrap_or_else(|e| {
            eprintln!("mp-verify: cannot load symbols: {e}");
            exit(1)
        });
        let report = verify_experiment(&exp, &syms);
        if json {
            out!("{}", report.to_json());
        } else {
            if dirs.len() > 1 {
                outln!("== {} ==", dir.display());
            }
            out!("{}", report.render());
        }
        if let Some(path) = &baseline {
            if !check_baseline(path, &report) {
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// Compare per-counter exact-attribution precision against the
/// checked-in baseline JSON (the `to_json` format). Returns false on
/// regression. With `MEMPROF_UPDATE_BASELINE=1` the baseline is
/// rewritten instead.
fn check_baseline(path: &PathBuf, report: &VerifyReport) -> bool {
    if std::env::var("MEMPROF_UPDATE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("mp-verify: cannot write baseline {}: {e}", path.display());
            exit(1)
        });
        eprintln!("mp-verify: baseline updated: {}", path.display());
        return true;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("mp-verify: cannot read baseline {}: {e}", path.display());
        exit(1)
    });
    let mut ok = true;
    for c in &report.counters {
        let Some(want) = baseline_precision(&text, &c.title) else {
            eprintln!(
                "mp-verify: counter `{}` missing from baseline {}",
                c.title,
                path.display()
            );
            ok = false;
            continue;
        };
        let got = c.precision_pct();
        // Tolerate float-formatting noise but nothing real.
        if got + 1e-3 < want {
            eprintln!(
                "mp-verify: REGRESSION: `{}` exact precision {:.4}% < baseline {:.4}%",
                c.title, got, want
            );
            ok = false;
        }
    }
    ok
}

/// Extract `precision_pct` for a counter title from the deterministic
/// baseline JSON (one counter object per line; no JSON library in the
/// workspace, none needed for our own format).
fn baseline_precision(json: &str, title: &str) -> Option<f64> {
    let needle = format!("\"title\": \"{title}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let tail = line.split("\"precision_pct\": ").nth(1)?;
    tail.trim_end_matches(['}', ',', ' '])
        .split(',')
        .next()?
        .trim_end_matches('}')
        .parse()
        .ok()
}
