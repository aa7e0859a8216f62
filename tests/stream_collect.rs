//! Acceptance tests for the bounded-memory streaming collection path:
//!
//! * a streamed MCF run and a conventional in-memory run of the same
//!   seeded workload produce byte-identical analyzer views;
//! * any prefix of a stream file with an intact header stays readable
//!   (a crashed run loses at most the unflushed tail);
//! * the `mp-collect --stream` / `mp-store` CLIs round-trip a stream
//!   file into a bundle `mp-er-print` can analyze.

use std::process::Command;

use memprof::machine::Machine;
use memprof::mcf::{self, paper_machine_config, Instance, InstanceParams, Layout, McfParams};
use memprof::minic::CompileOptions;
use memprof::profiler::{
    analyze::Analysis, collect, collect_stream, parse_counter_spec, CollectConfig, StreamConfig,
};
use memprof::store::{aggregate, SegmentWriter, StreamFile};
use simsparc_machine::CounterEvent;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mp_stream_{}_{tag}", std::process::id()))
}

/// The paper's first collection recipe over a small MCF instance. The
/// machine is seeded and deterministic, so two fresh machines replay
/// the identical run.
fn mcf_setup() -> (mcf::McfBinary, Instance, CollectConfig) {
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
    let config = CollectConfig {
        counters: parse_counter_spec("+ecstall,4001,+ecrm,101").unwrap(),
        clock_profiling: true,
        clock_period_cycles: 4001,
        max_insns: mcf::MAX_INSNS,
    };
    (binary, inst, config)
}

fn fresh_machine(binary: &mcf::McfBinary, inst: &Instance) -> Machine {
    let mut machine = Machine::new(paper_machine_config());
    machine.load(&binary.program.image);
    mcf::stage_instance(&mut machine, &binary.program, inst);
    machine
}

#[test]
fn streamed_views_are_byte_identical_to_in_memory() {
    let (binary, inst, config) = mcf_setup();

    let exp_mem = collect(&mut fresh_machine(&binary, &inst), &config).unwrap();

    let path = scratch("golden.mpes");
    let mut writer = SegmentWriter::create(&path).unwrap();
    let spill = StreamConfig { spill_events: 512 };
    let stats = collect_stream(
        &mut fresh_machine(&binary, &inst),
        &config,
        &spill,
        &mut writer,
    )
    .unwrap();
    assert!(
        stats.segments_spilled > 1,
        "run must be large enough to spill mid-run (spilled {})",
        stats.segments_spilled
    );
    assert!(
        stats.peak_buffered_events <= 512,
        "peak buffering {} must stay within the spill threshold",
        stats.peak_buffered_events
    );

    let file = StreamFile::open(&path).unwrap();
    assert!(file.is_complete(), "fresh stream file must be complete");
    let exp_stream = file.to_experiment().unwrap();

    // The raw events agree exactly...
    assert_eq!(exp_stream.hwc_events, exp_mem.hwc_events);
    assert_eq!(exp_stream.clock_events, exp_mem.clock_events);
    assert_eq!(exp_stream.run, exp_mem.run);

    // ...and so does every rendered analyzer view, byte for byte.
    let syms = &binary.program.syms;
    let a_mem = Analysis::new(&[&exp_mem], syms);
    let a_str = Analysis::new(&[&exp_stream], syms);
    let user_cpu = a_mem.user_cpu_col().expect("clock profiling on");
    assert_eq!(
        a_str.render_function_list(user_cpu),
        a_mem.render_function_list(user_cpu)
    );
    let ecrm = a_mem
        .col_by_event(CounterEvent::ECReadMiss)
        .expect("ecrm collected");
    assert_eq!(
        a_str.render_pc_list(ecrm, 17),
        a_mem.render_pc_list(ecrm, 17)
    );
    let ecstall = a_mem
        .col_by_event(CounterEvent::ECStallCycles)
        .expect("ecstall collected");
    assert_eq!(
        a_str.render_data_objects(ecstall),
        a_mem.render_data_objects(ecstall)
    );
    assert_eq!(
        aggregate(&[&exp_stream]).unwrap().render(),
        aggregate(&[&exp_mem]).unwrap().render(),
        "store histograms must agree"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_stream_prefix_stays_readable() {
    let (binary, inst, config) = mcf_setup();
    let path = scratch("prefix.mpes");
    let mut writer = SegmentWriter::create(&path).unwrap();
    let spill = StreamConfig { spill_events: 256 };
    collect_stream(
        &mut fresh_machine(&binary, &inst),
        &config,
        &spill,
        &mut writer,
    )
    .unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let full = StreamFile::from_bytes(bytes.clone()).unwrap();

    // Chop the file as a crash mid-run would: everything before the
    // cut that was flushed as a whole chunk must still be readable.
    let cut = bytes.len() * 7 / 10;
    let file = StreamFile::from_bytes(bytes[..cut].to_vec()).unwrap();
    assert!(!file.is_complete(), "cut file cannot be complete");
    assert!(file.truncation().is_some(), "cut must be diagnosed");
    assert!(file.hwc_total() > 0, "flushed events survive the crash");
    assert!(file.hwc_total() <= full.hwc_total());

    // The prefix still rehydrates into an analyzable experiment with
    // a synthesized run summary and the truncation on record.
    let exp = file.to_experiment().unwrap();
    assert_eq!(exp.run.exit_code, -1, "interrupted run is marked failed");
    assert!(
        exp.log.iter().any(|l| l.contains("stream ended early")),
        "log must record the truncation: {:?}",
        exp.log
    );
    assert!(!Analysis::new(&[&exp], &binary.program.syms)
        .render_function_list(0)
        .is_empty());

    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_stream_collect_feeds_store_and_er_print() {
    let src_path = scratch("demo.c");
    std::fs::write(
        &src_path,
        r#"
        long work(long n) {
            long i; long s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
        long main() {
            long t; long k;
            t = 0;
            for (k = 0; k < 40; k = k + 1) { t = t + work(200); }
            return t % 256;
        }
        "#,
    )
    .unwrap();
    let out_mpes = scratch("cli.mpes");
    let out_dir = scratch("cli_unpacked");
    let _ = std::fs::remove_dir_all(&out_dir);

    let run = |bin: &str, args: &[&str]| -> (String, String) {
        let out = Command::new(bin).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{bin} {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    let (_, stderr) = run(
        env!("CARGO_BIN_EXE_mp-collect"),
        &[
            "--stream",
            out_mpes.to_str().unwrap(),
            "--spill",
            "256",
            "-h",
            "+ecrm,101",
            "--period",
            "1499",
            src_path.to_str().unwrap(),
        ],
    );
    assert!(stderr.contains("segments spilled"), "{stderr}");

    let mp_store = env!("CARGO_BIN_EXE_mp-store");
    let (stat, _) = run(mp_store, &["stat", out_mpes.to_str().unwrap()]);
    assert!(stat.contains("User CPU"), "{stat}");
    assert!(stat.contains("E$ Read Misses"), "{stat}");

    // Unpacking carries the attached image/symbols, so the bundle is
    // analyzable standalone.
    run(
        mp_store,
        &[
            "unpack",
            out_mpes.to_str().unwrap(),
            out_dir.to_str().unwrap(),
        ],
    );
    let (functions, _) = run(
        env!("CARGO_BIN_EXE_mp-er-print"),
        &[out_dir.to_str().unwrap(), "functions"],
    );
    assert!(functions.contains("<Total>"), "{functions}");
    assert!(functions.contains("work"), "{functions}");

    std::fs::remove_file(&src_path).ok();
    std::fs::remove_file(&out_mpes).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}
