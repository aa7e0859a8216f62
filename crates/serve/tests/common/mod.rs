//! Helpers shared by the serve integration tests: a scratch dir per
//! test, a deterministic synthetic collector run, and its local
//! (offline) byte rendition for parity assertions.

#![allow(dead_code)] // each test binary uses its own subset

use std::path::PathBuf;
use std::time::{Duration, Instant};

use memprof_core::{CollectSink, CounterRequest, PackedClockEvent, PackedHwcEvent, RunInfo};
use memprof_store::SegmentWriter;
use simsparc_machine::CounterEvent;

pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "memprof_serve_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal valid symbol table covering the synthetic PCs, so the
/// function-level views have something to resolve.
pub const SYMS: &str =
    "simsparc-syms text_base=0x10000\nMODULE 1 1 m m.c\nFUNC 0x10000 0x20000 0 1 func\n";

/// [`SYMS`] with a data-object descriptor for each of the first 96
/// PCs — two members of one structure and a scalar, in turn — so
/// Figure 6 over the synthetic runs has rows whose shares move with the
/// sessions a window holds (the runs' candidate PCs start 31 × seed
/// instructions past the text base).
pub fn object_syms() -> String {
    let mut out = SYMS.to_string();
    for i in 0..96 {
        out.push_str(match i % 3 {
            0 => "PC 1 0 M particle x long 0\n",
            1 => "PC 1 0 M particle y long 8\n",
            _ => "PC 1 0 S long count\n",
        });
    }
    out
}

pub fn counters() -> Vec<CounterRequest> {
    vec![CounterRequest {
        event: CounterEvent::ECStallCycles,
        backtrack: true,
        interval: 4001,
    }]
}

/// Replay a deterministic synthetic run into any sink. `seed` varies
/// the PCs so different collectors contribute distinguishable events.
pub fn drive(sink: &mut impl CollectSink, seed: u64, segments: usize) {
    sink.begin(&counters(), Some(10007), 900_000_000).unwrap();
    sink.stacks(&[vec![0x1_0000], vec![0x1_0000, 0x1_0400]])
        .unwrap();
    for seg in 0..segments {
        let events: Vec<PackedHwcEvent> = (0..16)
            .map(|i| {
                let pc = 0x1_0000 + 4 * (seed * 31 + seg as u64 * 7 + i);
                PackedHwcEvent {
                    counter: 0,
                    delivered_pc: pc + 8,
                    candidate_pc: Some(pc),
                    ea: Some(0x4000_0000 + 64 * i),
                    stack: (i % 2) as u32,
                    truth_trigger_pc: pc,
                    truth_ea: Some(0x4000_0000 + 64 * i),
                    truth_skid: 2,
                }
            })
            .collect();
        sink.hwc_segment(&events).unwrap();
        let ticks: Vec<PackedClockEvent> = (0..4)
            .map(|i| PackedClockEvent {
                pc: 0x1_0000 + 4 * (seed + i),
                stack: 0,
            })
            .collect();
        sink.clock_segment(&ticks).unwrap();
    }
    let run = RunInfo {
        exit_code: 0,
        output: format!("run {seed}\n"),
        clock_hz: 900_000_000,
        dropped: vec![0],
        ..Default::default()
    };
    sink.finish(&run, &[format!("{seed} collect start")])
        .unwrap();
}

/// The same run rendered to local bytes with a plain [`SegmentWriter`].
pub fn local_bytes(seed: u64, segments: usize) -> Vec<u8> {
    local_bytes_with(seed, segments, SYMS)
}

/// [`local_bytes`] carrying `syms` as its symbol table.
pub fn local_bytes_with(seed: u64, segments: usize, syms: &str) -> Vec<u8> {
    let mut writer = SegmentWriter::new(Vec::new());
    writer.attach("syms.txt", syms);
    drive(&mut writer, seed, segments);
    writer.into_inner()
}

pub fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}
