//! `mp-er-print` — the `er_print` command (§2.3): analyze one or more
//! experiment directories written by `mp-collect`.
//!
//! ```text
//! mp-er-print EXPDIR [EXPDIR2 ...] VIEW [ARGS]
//!
//! views:
//!   header                 collection parameters and run summary
//!   total                  Figure 1-style <Total> metrics
//!   functions [COL]        Figure 2-style function list
//!   pcs [COL] [N]          Figure 5-style PC ranking
//!   source FUNC            Figure 3-style annotated source
//!   disasm FUNC            Figure 4-style annotated disassembly
//!   data_objects [COL]     Figure 6-style data-object view
//!   struct NAME            Figure 7-style member expansion
//!   callers FUNC           §2.3 callers/callees view
//!   effectiveness          §3.2.5 backtracking effectiveness
//!   hot_lines [COL] [N]    hottest source lines program-wide
//!   segments               §4 memory-segment view
//!   lines [N]              §4 hottest E$ lines
//! ```
//!
//! COL is a counter name (`ecstall`, `ecrm`, `ecref`, `dtlbm`, ...);
//! the default is the first column.

use std::path::PathBuf;
use std::process::exit;

use memprof::machine::{CounterEvent, Image};
use memprof::minic::SymbolTable;
use memprof::profiler::analyze::{
    addr_rows, render_addr_rows, AddrBucket, Analysis, EC_LINE_BYTES,
};
use memprof::profiler::Experiment;
use memprof::{out, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: &str| -> ! {
        eprintln!("mp-er-print: {msg}\nusage: mp-er-print EXPDIR... VIEW [ARGS]");
        exit(2)
    };
    // Split: leading existing directories are experiments, the rest is
    // the view command.
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    for a in args {
        if rest.is_empty() && PathBuf::from(&a).is_dir() {
            dirs.push(PathBuf::from(a));
        } else {
            rest.push(a);
        }
    }
    if dirs.is_empty() {
        usage("no experiment directory given");
    }
    if rest.is_empty() {
        usage("no view given");
    }

    let experiments: Vec<Experiment> = dirs
        .iter()
        .map(|d| {
            Experiment::load(d).unwrap_or_else(|e| {
                eprintln!("mp-er-print: cannot load {}: {e}", d.display());
                exit(1)
            })
        })
        .collect();
    let syms = SymbolTable::load(&dirs[0].join("syms.txt")).unwrap_or_else(|e| {
        eprintln!("mp-er-print: cannot load symbols: {e}");
        exit(1)
    });
    let image = Image::load(&dirs[0].join("image.txt")).unwrap_or_else(|e| {
        eprintln!("mp-er-print: cannot load image: {e}");
        exit(1)
    });

    let refs: Vec<&Experiment> = experiments.iter().collect();
    let analysis = Analysis::new(&refs, &syms);

    let col_for = |name: Option<&String>| -> usize {
        match name {
            None => 0,
            Some(n) => match CounterEvent::parse(n) {
                Some(ev) => analysis
                    .col_by_event(ev)
                    .unwrap_or_else(|| usage(&format!("counter `{n}` not in these experiments"))),
                None if n == "cpu" => analysis
                    .user_cpu_col()
                    .unwrap_or_else(|| usage("no clock profiling in these experiments")),
                None => usage(&format!("unknown counter `{n}`")),
            },
        }
    };

    match rest[0].as_str() {
        "header" => {
            for (d, e) in dirs.iter().zip(&experiments) {
                outln!("experiment {}:", d.display());
                for line in &e.log {
                    outln!("  {line}");
                }
                outln!(
                    "  exit {}, {} hwc events, {} clock ticks, {} dropped",
                    e.run.exit_code,
                    e.hwc_events.len(),
                    e.clock_events.len(),
                    e.run.dropped.iter().sum::<u64>()
                );
            }
        }
        "total" => out!("{}", analysis.total_metrics().render()),
        "functions" => {
            let col = col_for(rest.get(1));
            out!("{}", analysis.render_function_list(col));
        }
        "pcs" => {
            let col = col_for(rest.get(1));
            let n = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);
            out!("{}", analysis.render_pc_list(col, n));
        }
        "source" => {
            let f = rest.get(1).unwrap_or_else(|| usage("source FUNC"));
            match analysis.render_annotated_source(f) {
                Some(s) => out!("{s}"),
                None => usage(&format!("unknown function `{f}`")),
            }
        }
        "disasm" => {
            let f = rest.get(1).unwrap_or_else(|| usage("disasm FUNC"));
            match analysis.render_annotated_disasm(f, &image.text) {
                Some(s) => out!("{s}"),
                None => usage(&format!("unknown function `{f}`")),
            }
        }
        "data_objects" => {
            let col = col_for(rest.get(1));
            out!("{}", analysis.render_data_objects(col));
        }
        "struct" => {
            let name = rest.get(1).unwrap_or_else(|| usage("struct NAME"));
            match analysis.render_struct_expansion(name) {
                Some(s) => out!("{s}"),
                None => usage(&format!("unknown struct `{name}`")),
            }
        }
        "callers" => {
            let f = rest.get(1).unwrap_or_else(|| usage("callers FUNC"));
            out!("{}", analysis.render_callers_callees(f));
        }
        "effectiveness" => {
            for e in analysis.effectiveness() {
                outln!(
                    "{:<18} {:>7} events  {:>5} unresolvable  {:>5} unascertainable  {:>6.1}% effective",
                    e.title, e.total, e.unresolvable, e.unascertainable, e.effectiveness_pct
                );
            }
        }
        "hot_lines" => {
            let col = col_for(rest.get(1));
            let n = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(15);
            for r in analysis.hot_lines(col, n) {
                outln!(
                    "{:>7}  {}:{}  {}",
                    r.samples[col],
                    r.function,
                    r.line_no,
                    r.text
                );
            }
        }
        "segments" => {
            let map = analysis.addr_map(AddrBucket::Segment);
            out!(
                "{}",
                render_addr_rows(AddrBucket::Segment, &addr_rows(map, usize::MAX))
            );
        }
        "lines" => {
            let n = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
            let bucket = AddrBucket::Block(EC_LINE_BYTES);
            let map = analysis.addr_map(bucket);
            out!("{}", render_addr_rows(bucket, &addr_rows(map, n)));
        }
        other => usage(&format!("unknown view `{other}`")),
    }
}
