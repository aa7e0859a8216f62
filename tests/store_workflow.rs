//! Acceptance tests for the packed experiment store and the
//! multi-experiment aggregation engine, driven by real MCF profiles:
//!
//! * pack → unpack reproduces a collected experiment directory
//!   byte-for-byte;
//! * merging two experiments yields per-function and per-data-object
//!   totals equal to the element-wise sum of the individual analyses;
//! * the threaded merge decode and diff give byte-identical output to
//!   their serial oracles;
//! * the `mp-store` CLI round-trips and merges experiment bundles that
//!   `mp-er-print` can then analyze.

use std::collections::HashMap;
use std::process::Command;

use memprof::machine::Machine;
use memprof::mcf::{self, paper_machine_config, Instance, InstanceParams, Layout, McfParams};
use memprof::minic::CompileOptions;
use memprof::profiler::{
    analyze::Analysis, collect, parse_counter_spec, CollectConfig, Experiment,
};
use memprof::store::{
    aggregate, diff_aggregates, diff_streams, merge_experiments, merge_loaded, merge_streams,
    pack_dir, pack_experiment, unpack_to_dir, xxh64, ExperimentRef, StreamFile,
};

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mp_store_{}_{tag}", std::process::id()))
}

/// One small MCF profile with the paper's first collection recipe.
fn collect_mcf() -> (memprof::minic::Program, Experiment) {
    let inst = Instance::generate(InstanceParams {
        n_trips: 90,
        window: 30,
        seed: 7,
        ..Default::default()
    });
    let binary = mcf::compile_mcf(
        &inst,
        Layout::Baseline,
        &McfParams::default(),
        CompileOptions::profiling(),
    )
    .unwrap();
    let mut machine = Machine::new(paper_machine_config());
    machine.load(&binary.program.image);
    mcf::stage_instance(&mut machine, &binary.program, &inst);
    let config = CollectConfig {
        counters: parse_counter_spec("+ecstall,4001,+ecrm,101").unwrap(),
        clock_profiling: true,
        clock_period_cycles: 4001,
        max_insns: mcf::MAX_INSNS,
    };
    let exp = collect(&mut machine, &config).unwrap();
    (binary.program, exp)
}

/// A second experiment with the same recipe over the same binary: the
/// same profile with the tail of each event stream dropped, as if the
/// run had been sampled for a shorter window. Keeps the merge test
/// honest — the two inputs have different totals.
fn shortened(exp: &Experiment) -> Experiment {
    let mut e2 = exp.clone();
    e2.hwc_events.truncate(exp.hwc_events.len() * 2 / 3);
    e2.clock_events.truncate(exp.clock_events.len() * 2 / 3);
    e2
}

#[test]
fn pack_unpack_reproduces_the_experiment_directory() {
    let (program, exp) = collect_mcf();
    let dir = scratch("roundtrip_dir");
    let packed = scratch("roundtrip.mps");
    let back = scratch("roundtrip_back");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&back);

    exp.save(&dir).unwrap();
    program.image.save(&dir.join("image.txt")).unwrap();
    program.syms.save(&dir.join("syms.txt")).unwrap();

    pack_dir(&dir, &packed).unwrap();
    unpack_to_dir(&StreamFile::open(&packed).unwrap(), &back).unwrap();

    for file in [
        "log",
        "counters",
        "hwcdata",
        "clockdata",
        "run",
        "output",
        "image.txt",
        "syms.txt",
    ] {
        let a = std::fs::read(dir.join(file)).unwrap();
        let b = std::fs::read(back.join(file)).unwrap();
        assert_eq!(a, b, "{file} did not round-trip byte-for-byte");
    }

    // The packed file is the compact representation.
    let text_size: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let packed_size = std::fs::metadata(&packed).unwrap().len();
    assert!(
        packed_size * 2 < text_size,
        "packed {packed_size} should be well under half of text {text_size}"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&back).ok();
    std::fs::remove_file(&packed).ok();
}

/// Sum per-name totals from rows of (name, samples-per-column).
fn totals_by_name(rows: Vec<(String, Vec<u64>)>) -> HashMap<String, Vec<u64>> {
    let mut map = HashMap::new();
    for (name, samples) in rows {
        map.insert(name, samples);
    }
    map
}

fn add_into(dst: &mut HashMap<String, Vec<u64>>, src: HashMap<String, Vec<u64>>) {
    for (name, samples) in src {
        let slot = dst.entry(name).or_insert_with(|| vec![0; samples.len()]);
        for (d, s) in slot.iter_mut().zip(&samples) {
            *d += s;
        }
    }
}

#[test]
fn merged_analysis_equals_elementwise_sum_of_parts() {
    let (program, e1) = collect_mcf();
    let e2 = shortened(&e1);
    assert!(e2.hwc_events.len() < e1.hwc_events.len());
    let merged = merge_loaded(&[e1.clone(), e2.clone()]).unwrap();

    let a1 = Analysis::new(&[&e1], &program.syms);
    let a2 = Analysis::new(&[&e2], &program.syms);
    let am = Analysis::new(&[&merged], &program.syms);
    assert_eq!(am.columns.len(), a1.columns.len(), "same column set");
    let ncols = am.columns.len();

    // Per-function totals, every column at once.
    let fn_rows = |a: &Analysis| -> Vec<(String, Vec<u64>)> {
        a.function_list(0)
            .into_iter()
            .skip(1) // row 0 is <Total>
            .map(|r| (r.name, r.samples))
            .collect()
    };
    let mut expect = totals_by_name(fn_rows(&a1));
    add_into(&mut expect, totals_by_name(fn_rows(&a2)));
    let got = totals_by_name(fn_rows(&am));
    assert_eq!(got, expect, "per-function totals must sum element-wise");

    // Per-data-object totals for each data column.
    for col in 0..ncols {
        if !am.columns[col].is_data_column() {
            continue;
        }
        let obj_rows = |a: &Analysis| -> Vec<(String, Vec<u64>)> {
            a.data_objects(col)
                .into_iter()
                .skip(1) // row 0 is <Total>
                .map(|r| (r.name, r.samples))
                .collect()
        };
        let mut expect = totals_by_name(obj_rows(&a1));
        add_into(&mut expect, totals_by_name(obj_rows(&a2)));
        let got = totals_by_name(obj_rows(&am));
        assert_eq!(
            got, expect,
            "per-data-object totals must sum element-wise (column {col})"
        );
    }
}

/// The two places the store still runs threads, each against its
/// serial oracle: `merge_experiments` decodes its inputs one per core,
/// and `diff_streams` aggregates its two sides concurrently.
#[test]
fn parallel_aggregation_is_byte_identical_to_serial() {
    let (program, e1) = collect_mcf();
    let e2 = shortened(&e1);
    let packed1 = scratch("par_e1.mps");
    let dir2 = scratch("par_e2");
    let _ = std::fs::remove_dir_all(&dir2);
    std::fs::write(&packed1, pack_experiment(&e1, &[])).unwrap();
    e2.save(&dir2).unwrap();
    program.syms.save(&dir2.join("syms.txt")).unwrap();
    let refs = [
        ExperimentRef::open(&packed1).unwrap(),
        ExperimentRef::open(&dir2).unwrap(),
        ExperimentRef::open(&packed1).unwrap(),
    ];

    let loaded: Vec<Experiment> = refs.iter().map(|r| r.load().unwrap()).collect();
    let oracle = merge_loaded(&loaded).unwrap();
    let merged = merge_experiments(&refs).unwrap();
    assert_eq!(
        pack_experiment(&merged, &[]),
        pack_experiment(&oracle, &[]),
        "threaded merge must pack like the serial one"
    );
    let serial = aggregate(&[&oracle]).unwrap().render();
    assert!(!serial.is_empty());
    assert_eq!(aggregate(&[&merged]).unwrap().render(), serial);

    let (sa, sb) = (
        refs[0].open_stream().unwrap(),
        refs[1].open_stream().unwrap(),
    );
    let threaded = diff_streams(&sa, &sb).unwrap();
    let oracle = diff_aggregates(
        &aggregate(&[&loaded[0]]).unwrap(),
        &aggregate(&[&loaded[1]]).unwrap(),
    )
    .unwrap();
    assert!(!oracle.rows.is_empty());
    assert_eq!(threaded.render(), oracle.render());
    assert_eq!(
        threaded.render_by_function(&program.syms),
        oracle.render_by_function(&program.syms)
    );

    let _ = std::fs::remove_file(&packed1);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn mp_store_cli_packs_merges_and_feeds_er_print() {
    let (program, e1) = collect_mcf();
    let e2 = shortened(&e1);

    let dir1 = scratch("cli_e1");
    let dir2 = scratch("cli_e2");
    let merged_mps = scratch("cli_merged.mps");
    let merged_dir = scratch("cli_merged_dir");
    let packed1 = scratch("cli_e1.mps");
    for d in [&dir1, &dir2, &merged_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    for (dir, exp) in [(&dir1, &e1), (&dir2, &e2)] {
        exp.save(dir).unwrap();
        program.image.save(&dir.join("image.txt")).unwrap();
        program.syms.save(&dir.join("syms.txt")).unwrap();
    }

    let mp_store = env!("CARGO_BIN_EXE_mp-store");
    let run = |args: &[&str]| -> String {
        let out = Command::new(mp_store).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "mp-store {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    run(&["pack", dir1.to_str().unwrap(), packed1.to_str().unwrap()]);
    let stat = run(&["stat", packed1.to_str().unwrap()]);
    assert!(stat.contains("E$ Stall Cycles"), "{stat}");

    // A damaged chunk ends a readable prefix: the store still reads,
    // and mp-store says it is reading only part of it.
    let damaged = scratch("cli_damaged.mps");
    let mut bytes = std::fs::read(&packed1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&damaged, &bytes).unwrap();
    let out = Command::new(mp_store)
        .args(["stat", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("warning") && stderr.contains("reading only a prefix"),
        "{stderr}"
    );
    std::fs::remove_file(&damaged).ok();

    // Merge a packed store with a text directory — refs mix freely.
    run(&[
        "merge",
        merged_mps.to_str().unwrap(),
        packed1.to_str().unwrap(),
        dir2.to_str().unwrap(),
    ]);
    let store = StreamFile::open(&merged_mps).unwrap();
    assert_eq!(
        store.to_experiment().unwrap().hwc_events.len(),
        e1.hwc_events.len() + e2.hwc_events.len()
    );
    // It is the stream merge of its inputs, the text directory packed
    // in memory the way `stat` reads one.
    let inputs = [
        StreamFile::open(&packed1).unwrap(),
        memprof::store::ExperimentRef::open(&dir2)
            .unwrap()
            .open_stream()
            .unwrap(),
    ];
    assert_eq!(store.bytes(), merge_streams(&inputs).unwrap());

    // diff reports movement between the full and shortened runs.
    let diff = run(&["diff", dir1.to_str().unwrap(), dir2.to_str().unwrap()]);
    assert!(diff.contains("User CPU"), "{diff}");
    assert!(
        diff.contains("refresh_potential") || diff.contains("primal_bea_mpp"),
        "{diff}"
    );

    // The merged store unpacks into a directory er_print understands.
    run(&[
        "unpack",
        merged_mps.to_str().unwrap(),
        merged_dir.to_str().unwrap(),
    ]);
    let er_print = env!("CARGO_BIN_EXE_mp-er-print");
    let out = Command::new(er_print)
        .args([merged_dir.to_str().unwrap(), "functions"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "mp-er-print on merged store failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<Total>"), "{text}");

    for d in [&dir1, &dir2, &merged_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&merged_mps).ok();
    std::fs::remove_file(&packed1).ok();
}

/// `mp-store stat --json` and `diff` read a text directory by packing
/// it in memory. Their output must not tell the two representations
/// apart: text directories, their packed forms and a mixed list answer
/// byte-identically, and a damaged text directory fails naming itself.
#[test]
fn text_directories_answer_exactly_like_their_packed_form() {
    let (program, e1) = collect_mcf();
    let e2 = shortened(&e1);
    let dirs = [scratch("text_e1"), scratch("text_e2")];
    let packed = [scratch("text_e1.mps"), scratch("text_e2.mps")];
    let bad = scratch("text_bad");
    for d in dirs.iter().chain([&bad]) {
        let _ = std::fs::remove_dir_all(d);
    }
    for ((dir, out), exp) in dirs.iter().zip(&packed).zip([&e1, &e2]) {
        exp.save(dir).unwrap();
        program.image.save(&dir.join("image.txt")).unwrap();
        program.syms.save(&dir.join("syms.txt")).unwrap();
        pack_dir(dir, out).unwrap();
    }

    let mp_store = env!("CARGO_BIN_EXE_mp-store");
    let run = |args: &[&std::path::Path]| -> std::process::Output {
        Command::new(mp_store).args(args).output().unwrap()
    };
    let stdout = |args: &[&std::path::Path]| -> Vec<u8> {
        let out = run(args);
        assert!(
            out.status.success(),
            "mp-store {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let (stat, json, diff) = (
        std::path::Path::new("stat"),
        std::path::Path::new("--json"),
        std::path::Path::new("diff"),
    );
    let [d1, d2] = [dirs[0].as_path(), dirs[1].as_path()];
    let [p1, p2] = [packed[0].as_path(), packed[1].as_path()];

    let packed_stat = stdout(&[stat, json, p1, p2]);
    assert!(
        String::from_utf8_lossy(&packed_stat).contains("\"functions\""),
        "no per-function rows from the attached symbol table"
    );
    assert_eq!(stdout(&[stat, json, d1, d2]), packed_stat);
    assert_eq!(stdout(&[stat, json, d1, p2]), packed_stat);
    assert_eq!(stdout(&[stat, json, d1]), stdout(&[stat, json, p1]));

    let packed_diff = stdout(&[diff, p1, p2]);
    assert!(
        String::from_utf8_lossy(&packed_diff).contains("User CPU"),
        "{}",
        String::from_utf8_lossy(&packed_diff)
    );
    assert_eq!(stdout(&[diff, d1, d2]), packed_diff);
    assert_eq!(stdout(&[diff, d1, p2]), packed_diff);
    assert_eq!(stdout(&[diff, p1, d2]), packed_diff);

    // A damaged hwcdata line fails both commands, naming the directory.
    e1.save(&bad).unwrap();
    let hwcdata = std::fs::read_to_string(bad.join("hwcdata")).unwrap();
    std::fs::write(bad.join("hwcdata"), format!("not an event\n{hwcdata}")).unwrap();
    let name = bad.file_name().unwrap().to_str().unwrap();
    for args in [
        &[stat, json, bad.as_path()][..],
        &[stat, &bad],
        &[diff, &bad, d2],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "mp-store {args:?} succeeded");
        assert!(
            stderr.contains(name) && stderr.contains("bad hwcdata line"),
            "mp-store {args:?}: {stderr}"
        );
    }

    for d in dirs.iter().chain([&bad]) {
        std::fs::remove_dir_all(d).ok();
    }
    for p in &packed {
        std::fs::remove_file(p).ok();
    }
}

/// `image` with the payload of its first chunk of `kind` changed by
/// `edit`, resealed with a matching length and checksum so the damage
/// passes the framing and reaches the content checks.
fn resealed(image: &[u8], kind: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let len_at = |at: usize| u32::from_le_bytes(image[at + 1..at + 5].try_into().unwrap());
    let mut at = 5;
    while image[at] != kind {
        at += 13 + len_at(at) as usize;
    }
    let end = at + 13 + len_at(at) as usize;
    let mut payload = image[at + 13..end].to_vec();
    edit(&mut payload);
    let len = payload.len() as u32;
    let mut bytes = image[..at].to_vec();
    bytes.push(kind);
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&xxh64(&payload, u64::from(kind) | u64::from(len) << 8).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&image[end..]);
    bytes
}

/// `image` with its first HWC chunk's first event naming counter 7,
/// which the recipe lacks.
fn with_unknown_counter(image: &[u8]) -> Vec<u8> {
    resealed(image, 2, |payload| {
        // Past the event count and the tag column's length, both varints.
        let mut tag = 0;
        for _ in 0..2 {
            while payload[tag] & 0x80 != 0 {
                tag += 1;
            }
            tag += 1;
        }
        payload[tag] = 0x70 | (payload[tag] & 0x0f);
    })
}

/// `mp-store merge` copies every column but the stack ids without
/// decoding it, so it checks its inputs' content first: a store whose
/// event names a counter its header lacks, or whose stack table ends
/// in a stray byte, fails the merge, naming the store, before the
/// output is created.
#[test]
fn merge_refuses_bad_content_before_writing() {
    let (_, e1) = collect_mcf();
    let good = scratch("badcol_good.mpes");
    let bad = scratch("badcol_bad.mpes");
    let out = scratch("badcol_out.mps");
    let image = pack_experiment(&e1, &[]);
    std::fs::write(&good, &image).unwrap();
    for (damaged, why) in [
        (with_unknown_counter(&image), "unknown counter"),
        (
            resealed(&image, 1, |payload| payload.push(0)),
            "trailing bytes in chunk",
        ),
    ] {
        std::fs::write(&bad, damaged).unwrap();
        let _ = std::fs::remove_file(&out);
        let result = Command::new(env!("CARGO_BIN_EXE_mp-store"))
            .args(["merge"])
            .args([&out, &good, &bad])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{stderr}");
        let name = bad.file_name().unwrap().to_str().unwrap();
        assert!(stderr.contains(name) && stderr.contains(why), "{stderr}");
        assert!(!out.exists(), "merge wrote its output past bad content");
    }

    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();
}
