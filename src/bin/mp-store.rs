//! `mp-store` — pack, merge, and compare experiments.
//!
//! ```text
//! mp-store pack EXPDIR OUT.mps      pack a text experiment directory
//! mp-store unpack STORE.mps OUTDIR  expand a packed store back to text
//! mp-store merge OUT.mps EXP...     fold same-recipe experiments into one store
//! mp-store diff EXP_A EXP_B         per-function sample movement between two runs
//! mp-store stat [--json] EXP...     aggregate summary
//! ```
//!
//! Aggregation folds on one thread; `diff` aggregates its two sides
//! concurrently when there is more than one core. Every command reads
//! each argument once.
//!
//! `EXP` arguments accept either representation — a text experiment
//! directory or a packed `.mps` file — distinguished by the store
//! magic. A merged store analyzes like any single experiment:
//! `mp-store unpack merged.mps dir && mp-er-print dir functions`.

use std::path::{Path, PathBuf};
use std::process::exit;

use memprof::store::{
    aggregate_streams, diff_streams, merge_streams, pack_dir, unpack_to_dir, ExperimentRef,
    StreamFile,
};

fn usage(msg: &str) -> ! {
    eprintln!(
        "mp-store: {msg}\n\
         usage: mp-store pack EXPDIR OUT.mps\n\
         \x20      mp-store unpack STORE.mps OUTDIR\n\
         \x20      mp-store merge OUT.mps EXP...\n\
         \x20      mp-store diff EXP_A EXP_B\n\
         \x20      mp-store stat [--json] EXP..."
    );
    exit(2)
}

fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("mp-store: {what}: {err}");
    exit(1)
}

/// Sniff an `EXP` argument and open it, once, as a stream: a text
/// directory is packed in memory. Fails as `what`. An `MPES` file that
/// is only a readable prefix — a collector stream cut short, or a
/// packed store with a damaged chunk — still contributes its intact
/// chunks, as everywhere else, but never silently: say so on stderr.
fn open_stream(arg: &str, what: &str) -> StreamFile {
    let f = sniff(arg).open_stream().unwrap_or_else(|e| fail(what, e));
    warn_if_prefix(arg, &f);
    f
}

fn sniff(arg: &str) -> ExperimentRef {
    ExperimentRef::open(Path::new(arg)).unwrap_or_else(|e| fail(&format!("cannot open {arg}"), e))
}

fn warn_if_prefix(arg: &str, f: &StreamFile) {
    if !f.is_complete() {
        let why = f.truncation().unwrap_or("no footer");
        eprintln!("mp-store: warning: {arg}: reading only a prefix ({why})");
    }
}

/// The symbol table a stream carries, if it parses; output is only
/// decorated with it, so a bad table reads as none.
fn stream_syms(f: &StreamFile) -> Option<minic::SymbolTable> {
    minic::SymbolTable::parse(f.attachment("syms.txt")?).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("no command given");
    };
    match cmd.as_str() {
        "pack" => {
            let [_, dir, out] = &args[..] else {
                usage("pack EXPDIR OUT.mps");
            };
            pack_dir(Path::new(dir), Path::new(out))
                .unwrap_or_else(|e| fail(&format!("cannot pack {dir}"), e));
            let size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!("packed {dir} -> {out} ({size} bytes)");
        }
        "unpack" => {
            let [_, file, dir] = &args[..] else {
                usage("unpack STORE.mps OUTDIR");
            };
            let what = format!("cannot unpack {file}");
            unpack_to_dir(&open_stream(file, &what), Path::new(dir))
                .unwrap_or_else(|e| fail(&what, e));
            println!("unpacked {file} -> {dir}");
        }
        "merge" => {
            if args.len() < 3 {
                usage("merge OUT.mps EXP...");
            }
            let out = PathBuf::from(&args[1]);
            let inputs: Vec<StreamFile> = args[2..]
                .iter()
                .map(|a| open_stream(a, "cannot merge"))
                .collect();
            // The merge checks recipes, framing, stack tables and
            // stack ids, and copies the other event columns undecoded:
            // check their content here, before anything is written.
            aggregate_streams(&inputs).unwrap_or_else(|e| fail("cannot merge", e));
            let merged = merge_streams(&inputs).unwrap_or_else(|e| fail("cannot merge", e));
            std::fs::write(&out, merged)
                .unwrap_or_else(|e| fail(&format!("cannot write {}", out.display()), e));
            println!(
                "merged {} experiments -> {} ({} hwc events, {} clock ticks)",
                inputs.len(),
                out.display(),
                inputs.iter().map(StreamFile::hwc_total).sum::<usize>(),
                inputs.iter().map(StreamFile::clock_count).sum::<usize>()
            );
        }
        "diff" => {
            let [_, a, b] = &args[..] else {
                usage("diff EXP_A EXP_B");
            };
            let (sa, sb) = (open_stream(a, "cannot diff"), open_stream(b, "cannot diff"));
            let diff = diff_streams(&sa, &sb).unwrap_or_else(|e| fail("cannot diff", e));
            // Function-level when either side carries symbols; raw
            // per-PC rows otherwise.
            match stream_syms(&sa).or_else(|| stream_syms(&sb)) {
                Some(syms) => print!("{}", diff.render_by_function(&syms)),
                None => print!("{}", diff.render()),
            }
        }
        "stat" => {
            let json = args.get(1).is_some_and(|a| a == "--json");
            let rest = &args[1 + usize::from(json)..];
            if rest.is_empty() {
                usage("stat [--json] EXP...");
            }
            // Each source is read once: the counts come from the chunk
            // index, and aggregation decodes no experiment.
            let streams: Vec<StreamFile> = rest
                .iter()
                .map(|a| open_stream(a, &format!("cannot load {a}")))
                .collect();
            if json {
                let agg =
                    aggregate_streams(&streams).unwrap_or_else(|e| fail("cannot aggregate", e));
                let syms = streams.iter().find_map(stream_syms);
                print!("{}", agg.stat_json(syms.as_ref()));
                return;
            }
            for (arg, s) in rest.iter().zip(&streams) {
                println!(
                    "{arg}: {} counters, {} hwc events, {} clock ticks, exit {}",
                    s.counters().len(),
                    s.hwc_total(),
                    s.clock_count(),
                    s.run().exit_code
                );
            }
            let agg = aggregate_streams(&streams).unwrap_or_else(|e| fail("cannot aggregate", e));
            println!("-- aggregate over {} experiments", streams.len());
            // Totals only; the per-PC table is for machine diffing.
            for line in agg.render().lines() {
                if line.starts_with(char::is_alphabetic) {
                    println!("{line}");
                }
            }
            println!("{} distinct PCs", agg.pc_samples.len());
        }
        other => usage(&format!("unknown command `{other}`")),
    }
}
