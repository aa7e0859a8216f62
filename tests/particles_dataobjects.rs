//! Wire the `workloads/particles.c` workload through the library API:
//! compile with minic, collect with a backtracking counter, and check
//! the data-object view attributes stall to the particle array — the
//! §3.2.5 workflow on a workload other than MCF. The same profile is
//! then pushed through the packed store to show the view survives a
//! pack → unpack round trip.

use memprof::machine::{CounterEvent, Machine};
use memprof::mcf::paper_machine_config;
use memprof::minic::{compile_and_link, CompileOptions};
use memprof::profiler::{analyze::Analysis, collect, parse_counter_spec, CollectConfig};
use memprof::store::{pack_experiment, StreamFile};

#[test]
fn particles_data_object_view_is_populated() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads/particles.c"),
    )
    .unwrap()
    // Trim the sweep for test speed; the access pattern is unchanged.
    .replace("long n = 250000;", "long n = 60000;");
    let program = compile_and_link(
        &[("particles.c", src.as_str())],
        CompileOptions::profiling(),
    )
    .unwrap();

    let mut machine = Machine::new(paper_machine_config());
    machine.load(&program.image);
    let config = CollectConfig {
        counters: parse_counter_spec("+ecstall,4001,+ecrm,101").unwrap(),
        clock_profiling: true,
        clock_period_cycles: 4001,
        max_insns: 2_000_000_000,
    };
    let exp = collect(&mut machine, &config).unwrap();
    assert_eq!(exp.run.exit_code, 0, "workload must run to completion");
    assert!(!exp.hwc_events.is_empty(), "no counter events collected");

    let analysis = Analysis::new(&[&exp], &program.syms);
    let stall = analysis.col_by_event(CounterEvent::ECStallCycles).unwrap();
    let objects = analysis.data_objects(stall);
    // Row 0 is <Total>; a populated view has attributed rows below it.
    assert!(objects.len() > 1, "data-object view is empty");
    assert!(objects[0].samples[stall] > 0, "no stall samples at all");
    let particle = objects
        .iter()
        .find(|r| r.name == "{structure:particle -}")
        .expect("particle struct missing from data-object view");
    assert!(
        particle.samples[stall] * 2 > objects[0].samples[stall],
        "the particle array should carry most of the stall: {} of {}",
        particle.samples[stall],
        objects[0].samples[stall]
    );

    // The same view, via the packed store round trip.
    let store = StreamFile::from_bytes(pack_experiment(&exp, &[])).unwrap();
    let unpacked = store.to_experiment().unwrap();
    let analysis2 = Analysis::new(&[&unpacked], &program.syms);
    let objects2 = analysis2.data_objects(stall);
    assert_eq!(objects.len(), objects2.len());
    for (a, b) in objects.iter().zip(&objects2) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.samples, b.samples);
    }
}
