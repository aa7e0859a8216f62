//! Golden snapshot tests for the rendered analyzer views, the store
//! aggregation/diff renders, and the bytes of the encoded experiments.
//!
//! The snapshots under `tests/golden/` were captured from the
//! pre-columnar-refactor analyzer at the paper's figure scale
//! (MCF n_trips=1200, window=60, seed=181) and pin the Figure 1–7
//! output plus the `mp-store` aggregate/merge/diff renders
//! byte-for-byte. Any aggregation change that alters a rendered view
//! fails here. `mpes_digests.txt` pins the length and XXH64 of the
//! `MPES` images `pack_experiment` writes for both runs and for a
//! merge, of the image `merge_streams` writes from the merge's two
//! packed inputs, and of every file `Experiment::save` writes for that
//! merge, so a change to how experiments are held in memory cannot
//! move a byte on disk.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! MEMPROF_UPDATE_GOLDEN=1 cargo test --test golden_views
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use mcf_bench::{run_paper_experiments, Scale};
use memprof_core::analyze::Analysis;
use memprof_store::{
    aggregate, diff_aggregates, merge_loaded, merge_streams, pack_experiment, xxh64, StreamFile,
};
use simsparc_machine::CounterEvent;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MEMPROF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden snapshot {name}; regenerate with MEMPROF_UPDATE_GOLDEN=1")
    });
    assert!(
        expected == actual,
        "golden mismatch for {name}\n--- expected ---\n{expected}\n--- actual ---\n{actual}\n\
         (regenerate intentionally with MEMPROF_UPDATE_GOLDEN=1)"
    );
}

#[test]
fn golden_views_and_store_renders() {
    let run = run_paper_experiments(Scale::paper());
    let a = Analysis::new(&[&run.exp1, &run.exp2], &run.program.syms);

    // Figure 1-7 views, exactly as the `figures` binary builds them.
    check("fig1_total_metrics.txt", &a.total_metrics().render());
    let user_cpu = a.user_cpu_col().expect("clock profiling on in exp1");
    check("fig2_function_list.txt", &a.render_function_list(user_cpu));
    check(
        "fig3_annotated_source.txt",
        &a.render_annotated_source("refresh_potential")
            .expect("refresh_potential must exist"),
    );
    check(
        "fig4_annotated_disasm.txt",
        &a.render_annotated_disasm("refresh_potential", &run.program.image.text)
            .expect("refresh_potential must exist"),
    );
    let ecrm = a
        .col_by_event(CounterEvent::ECReadMiss)
        .expect("ecrm collected");
    check("fig5_pc_list.txt", &a.render_pc_list(ecrm, 17));
    let ecstall = a
        .col_by_event(CounterEvent::ECStallCycles)
        .expect("ecstall collected");
    check("fig6_data_objects.txt", &a.render_data_objects(ecstall));
    check(
        "fig7_struct_node.txt",
        &a.render_struct_expansion("node")
            .expect("node struct known"),
    );

    // The store engine over the same experiments: the `mp-store stat`
    // histogram, a merge of two same-recipe runs, and a diff against
    // a truncated re-run (so both sides share a recipe but differ).
    let agg = aggregate(&[&run.exp1, &run.exp2]).expect("aggregate");
    check("store_aggregate.txt", &agg.render());

    let mut shorter = run.exp1.clone();
    shorter
        .hwc_events
        .truncate(shorter.hwc_events.len() * 2 / 3);
    shorter
        .clock_events
        .truncate(shorter.clock_events.len() * 2 / 3);

    let merged = merge_loaded(&[run.exp1.clone(), shorter.clone()]).expect("merge");
    check(
        "store_merge_aggregate.txt",
        &aggregate(&[&merged]).expect("aggregate merged").render(),
    );

    let agg_a = aggregate(&[&run.exp1]).expect("aggregate a");
    let agg_b = aggregate(&[&shorter]).expect("aggregate b");
    let diff = diff_aggregates(&agg_a, &agg_b).expect("diff");
    check("store_diff_raw.txt", &diff.render());
    check(
        "store_diff_by_function.txt",
        &diff.render_by_function(&run.program.syms),
    );

    // The encoded bytes of the same experiments: both runs and the
    // merge packed as `MPES`, and the merge saved as a text directory.
    let mut digests = String::new();
    let mut pin = |name: &str, bytes: &[u8]| {
        writeln!(digests, "{name} {} {:016x}", bytes.len(), xxh64(bytes, 0)).unwrap();
    };
    pin("pack exp1", &pack_experiment(&run.exp1, &[]));
    pin("pack exp2", &pack_experiment(&run.exp2, &[]));
    pin("pack merge", &pack_experiment(&merged, &[]));
    let inputs = [&run.exp1, &shorter]
        .map(|exp| StreamFile::from_bytes(pack_experiment(exp, &[])).expect("open packed run"));
    pin(
        "merge_streams exp1 shorter",
        &merge_streams(&inputs).expect("merge packed runs"),
    );
    let dir = std::env::temp_dir().join(format!("memprof_golden_save_{}", std::process::id()));
    merged.save(&dir).expect("save merge");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("list saved merge")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        pin(
            &format!("save merge/{name}"),
            &std::fs::read(&path).unwrap(),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    check("mpes_digests.txt", &digests);
}
