//! `mp-store` — pack, merge, and compare experiments.
//!
//! ```text
//! mp-store pack EXPDIR OUT.mps                 pack a text experiment directory
//! mp-store unpack STORE.mps OUTDIR             expand a packed store back to text
//! mp-store merge [--shards N] OUT.mps EXP...   fold same-recipe experiments into one store
//! mp-store diff [--shards N] EXP_A EXP_B       per-function sample movement between two runs
//! mp-store stat [--shards N] [--json] EXP..    aggregate summary
//! ```
//!
//! `--shards N` (alias `-j N`) bounds the parallelism of the
//! aggregation kernel and of merge input decoding; `0` (the default)
//! sizes it to the available cores.
//!
//! `EXP` arguments accept either representation — a text experiment
//! directory or a packed `.mps` file — distinguished by the store
//! magic. A merged store analyzes like any single experiment:
//! `mp-store unpack merged.mps dir && mp-er-print dir functions`.

use std::path::{Path, PathBuf};
use std::process::exit;

use memprof::store::{
    self, aggregate_streams, diff_experiments, pack_dir, pack_experiment, unpack_to_dir,
    EventStream, ExperimentRef, StreamFile,
};

fn usage(msg: &str) -> ! {
    eprintln!(
        "mp-store: {msg}\n\
         usage: mp-store pack EXPDIR OUT.mps\n\
         \x20      mp-store unpack STORE.mps OUTDIR\n\
         \x20      mp-store merge [--shards N] OUT.mps EXP...\n\
         \x20      mp-store diff [--shards N] EXP_A EXP_B\n\
         \x20      mp-store stat [--shards N] [--json] EXP..."
    );
    exit(2)
}

/// Strip a leading `--shards N` / `-j N` off `rest`. `0` means "size
/// to the available cores" and is the default everywhere.
fn take_shards(rest: &mut &[String]) -> Option<usize> {
    match rest.first().map(String::as_str) {
        Some("-j") | Some("--shards") => {
            let n = rest
                .get(1)
                .unwrap_or_else(|| usage("--shards needs a count"));
            let shards = n.parse().unwrap_or_else(|_| usage("bad shard count"));
            *rest = &rest[2..];
            Some(shards)
        }
        _ => None,
    }
}

fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("mp-store: {what}: {err}");
    exit(1)
}

/// Sniff an `EXP` argument. An `MPES` file that is only a readable
/// prefix — a collector stream cut short, or a packed store with a
/// damaged chunk — still contributes its intact chunks, as everywhere
/// else, but never silently: say so on stderr.
fn open_ref(arg: &str) -> ExperimentRef {
    let r = ExperimentRef::open(Path::new(arg))
        .unwrap_or_else(|e| fail(&format!("cannot open {arg}"), e));
    if let ExperimentRef::Packed(path) = &r {
        if let Some(f) = StreamFile::open(path).ok().filter(|f| !f.is_complete()) {
            let why = f.truncation().unwrap_or("no footer");
            eprintln!("mp-store: warning: {arg}: reading only a prefix ({why})");
        }
    }
    r
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
            open_ref(file);
            unpack_to_dir(Path::new(file), Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("cannot unpack {file}"), e));
            println!("unpacked {file} -> {dir}");
        }
        "merge" => {
            let mut rest = &args[1..];
            let shards = take_shards(&mut rest).unwrap_or(0);
            if rest.len() < 2 {
                usage("merge [--shards N] OUT.mps EXP...");
            }
            let out = PathBuf::from(&rest[0]);
            let refs: Vec<ExperimentRef> = rest[1..].iter().map(|a| open_ref(a)).collect();
            let merged = store::merge_experiments_with(Vec::new(), &refs, shards)
                .unwrap_or_else(|e| fail("cannot merge", e));
            let attachments = store::collect_attachments(&refs);
            std::fs::write(&out, pack_experiment(&merged, &attachments))
                .unwrap_or_else(|e| fail(&format!("cannot write {}", out.display()), e));
            println!(
                "merged {} experiments -> {} ({} hwc events, {} clock ticks)",
                refs.len(),
                out.display(),
                merged.hwc_events.len(),
                merged.clock_events.len()
            );
        }
        "diff" => {
            let mut rest = &args[1..];
            let shards = take_shards(&mut rest).unwrap_or(0);
            let [a, b] = rest else {
                usage("diff [--shards N] EXP_A EXP_B");
            };
            let ra = open_ref(a);
            let rb = open_ref(b);
            let diff =
                diff_experiments(&ra, &rb, shards).unwrap_or_else(|e| fail("cannot diff", e));
            // Function-level when either side carries symbols; raw
            // per-PC rows otherwise.
            match ra.load_syms().or_else(|| rb.load_syms()) {
                Some(syms) => print!("{}", diff.render_by_function(&syms)),
                None => print!("{}", diff.render()),
            }
        }
        "stat" => {
            let mut shards = 0usize;
            let mut json = false;
            let mut rest = &args[1..];
            loop {
                if let Some(n) = take_shards(&mut rest) {
                    shards = n;
                    continue;
                }
                match rest.first().map(String::as_str) {
                    Some("--json") => {
                        json = true;
                        rest = &rest[1..];
                    }
                    _ => break,
                }
            }
            if rest.is_empty() {
                usage("stat [--shards N] [--json] EXP...");
            }
            let refs: Vec<ExperimentRef> = rest.iter().map(|a| open_ref(a)).collect();
            // Open each source once as a stream: packed stores report
            // their counts from the segment index and aggregate
            // without materializing an experiment.
            let streams: Vec<EventStream> = refs
                .iter()
                .map(|r| {
                    EventStream::open(r)
                        .unwrap_or_else(|e| fail(&format!("cannot load {}", r.path().display()), e))
                })
                .collect();
            if json {
                let agg = aggregate_streams(&streams, shards)
                    .unwrap_or_else(|e| fail("cannot aggregate", e));
                let syms = refs.iter().find_map(|r| r.load_syms());
                print!("{}", agg.stat_json(syms.as_ref()));
                return;
            }
            for (r, s) in refs.iter().zip(&streams) {
                println!(
                    "{}: {} counters, {} hwc events, {} clock ticks, exit {}",
                    r.path().display(),
                    s.counters().len(),
                    s.hwc_total(),
                    s.clock_total(),
                    s.exit_code()
                );
            }
            let agg =
                aggregate_streams(&streams, shards).unwrap_or_else(|e| fail("cannot aggregate", e));
            let shard_desc = match shards {
                0 => "auto".to_string(),
                n => n.to_string(),
            };
            println!(
                "-- aggregate over {} experiments ({shard_desc} shards)",
                refs.len()
            );
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
