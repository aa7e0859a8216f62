//! Robustness of the on-disk experiment format: corrupt or truncated
//! files must produce clean errors, never panics or garbage data.

use memprof_core::Experiment;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("memprof_fmt_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn minimal_valid(dir: &Path) {
    std::fs::write(dir.join("log"), "0 collect start\n").unwrap();
    std::fs::write(dir.join("counters"), "ecrm 1 101\n").unwrap();
    std::fs::write(
        dir.join("hwcdata"),
        "0 0x100000010 0x10000000c 0x40000000 0x10000000c 1 [0x100000004]\n",
    )
    .unwrap();
    std::fs::write(dir.join("clockdata"), "0x100000010 []\n").unwrap();
    std::fs::write(
        dir.join("run"),
        "exit 0\nclock_hz 900000000\nperiod 1000\ndropped 0\ncycles 10\ninsts 5\nicm 0\ndcrm 0\ndtlbm 0\necref 1\necrm 1\necstall 0\nloads 1\nstores 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("output"), "").unwrap();
}

#[test]
fn minimal_experiment_loads() {
    let d = scratch("ok");
    minimal_valid(&d);
    let exp = Experiment::load(&d).unwrap();
    assert_eq!(exp.counters.len(), 1);
    assert_eq!(exp.hwc_events.len(), 1);
    assert_eq!(exp.hwc_events[0].ea, Some(0x4000_0000));
    assert_eq!(exp.clock_events.len(), 1);
    assert_eq!(exp.clock_period, Some(1000));
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn missing_files_error_cleanly() {
    let d = scratch("missing");
    assert!(Experiment::load(&d).is_err());
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn corrupt_lines_error_cleanly() {
    for (file, content) in [
        ("counters", "whatisthis\n"),
        ("counters", "nosuchcounter 1 101\n"),
        ("counters", "ecrm 1 notanumber\n"),
        ("hwcdata", "0 nothex - - 0x0 1 []\n"),
        ("hwcdata", "too few fields\n"),
        ("clockdata", "justonefield\n"),
        ("hwcdata", "0 0x10 - - 0x0 1 missingbrackets\n"),
        // Content the MPES decoder rejects: an event naming a counter
        // the recipe does not list, and a backtrack flag that is
        // neither 0 nor 1.
        (
            "hwcdata",
            "1 0x100000010 0x10000000c 0x40000000 0x10000000c 1 [0x100000004]\n",
        ),
        ("counters", "ecstall 2 4001\n"),
    ] {
        let d = scratch("corrupt");
        minimal_valid(&d);
        std::fs::write(d.join(file), content).unwrap();
        let res = Experiment::load(&d);
        assert!(res.is_err(), "{file} with {content:?} should fail");
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn empty_callstacks_and_missing_ea_round_trip() {
    let d = scratch("edge");
    minimal_valid(&d);
    std::fs::write(d.join("hwcdata"), "0 0x100000010 - - 0x10000000c 3 []\n").unwrap();
    let exp = Experiment::load(&d).unwrap();
    assert_eq!(exp.hwc_events[0].candidate_pc, None);
    assert_eq!(exp.hwc_events[0].ea, None);
    assert!(exp.stacks[exp.hwc_events[0].stack as usize].is_empty());
    assert_eq!(exp.hwc_events[0].truth_skid, 3);
    std::fs::remove_dir_all(&d).ok();
}
