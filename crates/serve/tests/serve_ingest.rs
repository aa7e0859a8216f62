//! In-process daemon tests: multi-collector ingest parity with the
//! offline toolchain, and hostile-client robustness.
//!
//! The parity invariant under test is the serve crate's design rule:
//! everything the daemon lands or compacts must be byte-identical to
//! what the offline tools produce from the same inputs. Each test
//! collector therefore writes the *same* event sequence twice — once
//! through a [`SocketSink`] into the daemon and once through a local
//! [`SegmentWriter`] — and the assertions compare bytes.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;

use memprof_core::{CollectSink as _, PackedHwcEvent, RunInfo};
use memprof_serve::wire::{
    hello_payload, read_frame, write_frame, TAG_CHUNK, TAG_HELLO, TAG_HELLO_OK,
};
use memprof_serve::{
    self as serve, CompactCache, RetentionPolicy, Server, ServerConfig, SocketSink, StoreDirs,
    WindowRegistry,
};
use memprof_store::{
    collect_attachments, merge_experiments, pack_experiment, ExperimentRef, StreamFile,
};

mod common;
use common::{drive, local_bytes, scratch, wait_for, SYMS};

#[test]
fn parallel_collectors_compact_to_the_offline_merge() {
    let data = scratch("parallel");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // Three concurrent collectors stream the same windows' worth of
    // data; each reports the session id the daemon assigned it.
    let handles: Vec<_> = (0..3)
        .map(|seed| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut sink = SocketSink::connect(&addr, &format!("run{seed}"), "w1").unwrap();
                sink.attach("syms.txt", SYMS);
                drive(&mut sink, seed, 3);
                (sink.session().to_string(), seed)
            })
        })
        .collect();
    let mut sessions: Vec<(String, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every landed raw segment is byte-identical to the local
    // SegmentWriter rendition of the same run.
    let dirs = StoreDirs::create(&data).unwrap();
    for (session, seed) in &sessions {
        let landed = std::fs::read(dirs.raw_path("w1", session)).unwrap();
        assert_eq!(
            landed,
            local_bytes(*seed, 3),
            "raw segment differs for {session}"
        );
    }

    // Compact through the query interface, then compare the packed
    // tier against an offline merge of the same segments in the same
    // (sorted session id) order.
    let offline = scratch("parallel_offline");
    sessions.sort();
    let mut offline_files = Vec::new();
    for (session, seed) in &sessions {
        let path = offline.join(format!("{session}.mpes"));
        std::fs::write(&path, local_bytes(*seed, 3)).unwrap();
        offline_files.push(path);
    }
    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("compacted w1: 3 raw segments"), "{report}");

    let refs: Vec<ExperimentRef> = offline_files
        .iter()
        .map(|p| ExperimentRef::open(p).unwrap())
        .collect();
    let merged = merge_experiments(&refs).unwrap();
    let expected = pack_experiment(&merged, &collect_attachments(&refs));
    let packed = std::fs::read(dirs.packed_path("w1")).unwrap();
    assert_eq!(
        packed, expected,
        "compacted store differs from offline merge"
    );

    // Raw segments are consumed; the summary answers for the window.
    assert!(dirs.raw_segments("w1").unwrap().is_empty());
    assert!(dirs.summary_path("w1").exists());

    server.shutdown();
}

/// Incremental compaction must be invisible in the artifacts: a
/// second pass that seeds from the daemon's in-memory cache has to
/// produce exactly the bytes a cold-cache daemon (restarted between
/// passes, so it re-reads the packed store) and the offline toolchain
/// produce from the same inputs.
#[test]
fn incremental_compaction_matches_cold_cache_and_offline() {
    // Run the same two-round ingest+compact sequence; `restart`
    // decides whether round 2 sees a warm cache (same daemon) or a
    // cold one (fresh boot).
    let run = |tag: &str, restart: bool| -> (Vec<u8>, Vec<u8>, String) {
        let data = scratch(tag);
        let mut server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
        let mut addr = server.addr().to_string();
        for seed in [1u64, 2] {
            let mut sink = SocketSink::connect(&addr, &format!("run{seed}"), "w1").unwrap();
            sink.attach("syms.txt", SYMS);
            drive(&mut sink, seed, 2);
        }
        let report = serve::query(&addr, "compact").unwrap();
        assert!(report.contains("compacted w1: 2 raw segments"), "{report}");
        let dirs = StoreDirs::create(&data).unwrap();
        let round1 = std::fs::read(dirs.packed_path("w1")).unwrap();
        if restart {
            server.shutdown();
            server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
            addr = server.addr().to_string();
        }
        let mut sink = SocketSink::connect(&addr, "run3", "w1").unwrap();
        sink.attach("syms.txt", SYMS);
        drive(&mut sink, 3, 2);
        let report = serve::query(&addr, "compact").unwrap();
        assert!(report.contains("compacted w1: 1 raw segments"), "{report}");
        let round2 = std::fs::read(dirs.packed_path("w1")).unwrap();
        let stat = serve::query(&addr, "stat w1").unwrap();
        server.shutdown();
        (round1, round2, stat)
    };

    let (warm1, warm2, warm_stat) = run("incr_warm", false);
    let (cold1, cold2, cold_stat) = run("incr_cold", true);
    assert_eq!(warm1, cold1, "first passes diverge before any cache use");
    assert_eq!(
        warm2, cold2,
        "seeded compaction differs from re-read compaction"
    );
    assert_eq!(warm_stat, cold_stat);

    // And both equal the offline toolchain replaying the same rounds:
    // merge round 1's segments, pack, then merge that store with
    // round 2's segment.
    let offline = scratch("incr_offline");
    let mut files = Vec::new();
    for (i, seed) in [1u64, 2].iter().enumerate() {
        let path = offline.join(format!("000000000{}-run{seed}.mpes", i + 1));
        std::fs::write(&path, local_bytes(*seed, 2)).unwrap();
        files.push(path);
    }
    let refs: Vec<ExperimentRef> = files
        .iter()
        .map(|p| ExperimentRef::open(p).unwrap())
        .collect();
    let packed1_path = offline.join("w1.mps");
    std::fs::write(
        &packed1_path,
        pack_experiment(
            &merge_experiments(&refs).unwrap(),
            &collect_attachments(&refs),
        ),
    )
    .unwrap();
    assert_eq!(std::fs::read(&packed1_path).unwrap(), warm1);
    let round2_path = offline.join("0000000003-run3.mpes");
    std::fs::write(&round2_path, local_bytes(3, 2)).unwrap();
    let refs2 = vec![
        ExperimentRef::open(&packed1_path).unwrap(),
        ExperimentRef::open(&round2_path).unwrap(),
    ];
    let expected2 = pack_experiment(
        &merge_experiments(&refs2).unwrap(),
        &collect_attachments(&refs2),
    );
    assert_eq!(
        warm2, expected2,
        "compacted store differs from offline merge"
    );
}

#[test]
fn mid_chunk_disconnect_keeps_prefix_and_second_collector_unaffected() {
    let data = scratch("hostile");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let dirs = StoreDirs::create(&data).unwrap();

    // Hostile collector: handshake, ship most of a valid stream, then
    // die mid-frame — the frame header promises more bytes than ever
    // arrive.
    let full = local_bytes(7, 4);
    let cut = full.len() - 9; // mid-way through the final chunk
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, TAG_HELLO, &hello_payload("dying", "w1")).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(reply.tag, TAG_HELLO_OK);
    let session = String::from_utf8(reply.payload).unwrap();
    let mut head = vec![TAG_CHUNK];
    head.extend_from_slice(&(full.len() as u32).to_le_bytes());
    stream.write_all(&head).unwrap();
    stream.write_all(&full[..cut]).unwrap();
    drop(stream);

    // The prefix lands as a sealed raw segment whose damaged tail the
    // stream format detects; everything before it reads back.
    let raw = wait_for("hostile session to seal", || {
        let p = dirs.raw_path("w1", &session);
        p.exists().then(|| std::fs::read(&p).unwrap())
    });
    assert_eq!(raw, full[..cut].to_vec());
    let parsed = StreamFile::from_bytes(raw).unwrap();
    assert!(!parsed.is_complete());
    assert!(parsed.truncation().is_some());
    let partial_events = parsed.to_experiment().unwrap().hwc_events.len();
    assert!(partial_events > 0, "readable prefix lost its events");

    // A second collector on the same daemon is unaffected: its
    // segment lands complete and byte-identical to a local run.
    let mut sink = SocketSink::connect(&addr, "healthy", "w2").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 8, 2);
    let healthy = std::fs::read(dirs.raw_path("w2", sink.session())).unwrap();
    assert_eq!(healthy, local_bytes(8, 2));
    assert!(StreamFile::from_bytes(healthy).unwrap().is_complete());

    // Compaction folds the damaged prefix like any crash-truncated
    // local stream: the window still compacts, with the partial
    // events included.
    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("compacted w1: 1 raw segments"), "{report}");
    assert!(report.contains("compacted w2: 1 raw segments"), "{report}");

    server.shutdown();
}

#[test]
fn disconnect_before_any_chunk_discards_the_session() {
    let data = scratch("nothing");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr();
    let dirs = StoreDirs::create(&data).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, TAG_HELLO, &hello_payload("ghost", "w1")).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(reply.tag, TAG_HELLO_OK);
    drop(stream);

    // The empty staging file is discarded, not sealed into tier 0.
    wait_for("staging file cleanup", || {
        let ingest = dirs.root.join("ingest");
        let empty = std::fs::read_dir(ingest).unwrap().next().is_none();
        empty.then_some(())
    });
    assert!(dirs.raw_segments("w1").unwrap().is_empty());

    server.shutdown();
}

#[test]
fn bad_window_labels_are_rejected_at_handshake() {
    let data = scratch("badlabel");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let err = match SocketSink::connect(&addr, "run", "../escape") {
        Ok(_) => panic!("handshake with a bad window label succeeded"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("bad window label"), "{err}");

    server.shutdown();
}

#[test]
fn queries_answer_from_tiers_and_match_offline_aggregation() {
    let data = scratch("query");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let dirs = StoreDirs::create(&data).unwrap();

    for (window, seed) in [("wa", 1u64), ("wb", 2u64)] {
        let mut sink = SocketSink::connect(&addr, "run", window).unwrap();
        sink.attach("syms.txt", SYMS);
        drive(&mut sink, seed, 2);
    }
    serve::query(&addr, "compact").unwrap();

    // functions: byte-identical to the offline JSON aggregate of the
    // compacted store.
    let functions = serve::query(&addr, "functions wa").unwrap();
    let packed = ExperimentRef::open(&dirs.packed_path("wa")).unwrap();
    let offline = memprof_store::aggregate_refs(&[packed], 1).unwrap();
    let syms = ExperimentRef::open(&dirs.packed_path("wa"))
        .unwrap()
        .load_syms();
    assert_eq!(functions, offline.stat_json(syms.as_ref()));

    // diff: byte-identical to diffing the two packed stores offline.
    let diff = serve::query(&addr, "diff wa wb").unwrap();
    let ra = ExperimentRef::open(&dirs.packed_path("wa")).unwrap();
    let rb = ExperimentRef::open(&dirs.packed_path("wb")).unwrap();
    let offline_diff = memprof_store::diff_experiments(&ra, &rb, 0).unwrap();
    let offline_text = match ra.load_syms().or_else(|| rb.load_syms()) {
        Some(syms) => offline_diff.render_by_function(&syms),
        None => offline_diff.render(),
    };
    assert_eq!(diff, offline_text);

    // windows reflects tier state; unknown queries error.
    let windows = serve::query(&addr, "windows").unwrap();
    assert!(windows.contains("wa: 0 raw segments, packed=yes, summary=yes"));
    assert!(serve::query(&addr, "frobnicate").is_err());

    // Analyzer views answer over the compacted window.
    let segments = serve::query(&addr, "segments wa").unwrap();
    assert!(segments.contains("events"), "{segments}");
    let lines = serve::query(&addr, "lines wa 3").unwrap();
    assert!(lines.contains("events"), "{lines}");

    server.shutdown();
}

#[test]
fn shutdown_query_stops_the_daemon() {
    let data = scratch("shutdown");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    assert_eq!(serve::query(&addr, "shutdown").unwrap(), "shutting down\n");
    // run() returns once the accept loop notices the stop flag.
    server.run();
    assert!(
        TcpStream::connect(&addr).is_err() || {
            // A race can leave one last accept; the daemon must not
            // answer queries on it.
            serve::query(&addr, "windows").is_err()
        }
    );
}

/// A restarted daemon must never hand out a session id an earlier
/// boot already used: tier-0 file names embed the id, so a collision
/// would rename the new session over sealed data.
#[test]
fn restart_seeds_session_ids_past_earlier_boots() {
    let data = scratch("restart");

    let first = {
        let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
        let mut sink = SocketSink::connect(&server.addr().to_string(), "run", "w1").unwrap();
        sink.attach("syms.txt", SYMS);
        drive(&mut sink, 1, 2);
        let session = sink.session().to_string();
        server.shutdown();
        session
    };

    // Same data dir, same collector name: the id must differ and both
    // segments must survive intact.
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut sink = SocketSink::connect(&addr, "run", "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 2, 2);
    let second = sink.session().to_string();
    assert_ne!(first, second, "daemon restart reused a session id");

    let dirs = StoreDirs::create(&data).unwrap();
    assert_eq!(
        std::fs::read(dirs.raw_path("w1", &first)).unwrap(),
        local_bytes(1, 2),
        "first boot's segment was clobbered"
    );
    assert_eq!(
        std::fs::read(dirs.raw_path("w1", &second)).unwrap(),
        local_bytes(2, 2)
    );

    // After compaction the consumed ids live only in the manifest; a
    // third boot must still seed past them, or its first session
    // would be mistaken for an already-folded leftover.
    serve::query(&addr, "compact").unwrap();
    server.shutdown();

    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let mut sink = SocketSink::connect(&server.addr().to_string(), "run", "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 3, 2);
    let third = sink.session().to_string();
    let tier = dirs.live_raw_segments("w1").unwrap();
    assert_eq!(
        tier.fresh,
        vec![dirs.raw_path("w1", &third)],
        "post-compaction boot produced a session misclassified as stale"
    );
    assert!(tier.stale.is_empty());
    server.shutdown();
}

/// A compaction that crashed after publishing the packed store but
/// before deleting its inputs leaves already-folded raw segments on
/// disk. Queries must skip them and the next pass must delete — not
/// re-merge — them, or every sample in the window double-counts.
#[test]
fn interrupted_compaction_leftovers_are_not_double_counted() {
    let data = scratch("leftover");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let dirs = StoreDirs::create(&data).unwrap();

    let mut sink = SocketSink::connect(&addr, "run", "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 5, 2);
    let session = sink.session().to_string();
    let raw_path = dirs.raw_path("w1", &session);
    let raw_bytes = std::fs::read(&raw_path).unwrap();

    serve::query(&addr, "compact").unwrap();
    let packed_bytes = std::fs::read(dirs.packed_path("w1")).unwrap();
    let stat = serve::query(&addr, "stat w1").unwrap();

    // Simulate the crash window: the consumed segment reappears while
    // the manifest that names it is still valid.
    std::fs::write(&raw_path, &raw_bytes).unwrap();

    // Queries skip the leftover instead of double-counting it.
    assert_eq!(serve::query(&addr, "stat w1").unwrap(), stat);

    // The next pass deletes it; the packed store is untouched.
    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("nothing to compact"), "{report}");
    assert!(!raw_path.exists(), "stale leftover survived compaction");
    assert_eq!(std::fs::read(dirs.packed_path("w1")).unwrap(), packed_bytes);
    assert_eq!(serve::query(&addr, "stat w1").unwrap(), stat);

    server.shutdown();
}

/// A pass that crashes after renaming its packed store into place but
/// before writing that store's summary leaves the previous pass's
/// summary on disk. The consumed segment its hash-valid manifest still
/// names flags that state: queries read the packed store instead of
/// the old summary, and the next pass regenerates the summary before
/// it deletes the leftover.
#[test]
fn a_summary_older_than_the_packed_store_is_not_served() {
    let data = scratch("old_summary");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let dirs = StoreDirs::create(&data).unwrap();

    land(&server, "first", 1);
    serve::query(&addr, "compact").unwrap();
    let old_summary = std::fs::read(dirs.summary_path("w1")).unwrap();

    let mut sink = SocketSink::connect(&addr, "second", "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 2, 2);
    let raw_path = dirs.raw_path("w1", sink.session());
    let raw_bytes = std::fs::read(&raw_path).unwrap();
    serve::query(&addr, "compact").unwrap();
    let stat = serve::query(&addr, "stat w1").unwrap();
    let functions = serve::query(&addr, "functions w1").unwrap();
    let summary = std::fs::read(dirs.summary_path("w1")).unwrap();
    assert_ne!(summary, old_summary);

    // The crash state: the second pass's manifest and packed store
    // landed, its summary and the deletion of its input did not.
    std::fs::write(dirs.summary_path("w1"), &old_summary).unwrap();
    std::fs::write(&raw_path, &raw_bytes).unwrap();
    assert_eq!(serve::query(&addr, "stat w1").unwrap(), stat);
    assert_eq!(serve::query(&addr, "functions w1").unwrap(), functions);

    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("nothing to compact"), "{report}");
    assert!(!raw_path.exists(), "stale leftover survived compaction");
    assert_eq!(std::fs::read(dirs.summary_path("w1")).unwrap(), summary);
    assert_eq!(serve::query(&addr, "stat w1").unwrap(), stat);

    server.shutdown();
}

/// A query the daemon cannot parse, or one naming a window it does not
/// have, is answered with what is wrong and nothing else; only a real
/// recipe mismatch reports incompatible experiments.
#[test]
fn query_usage_errors_are_not_reported_as_incompatible_experiments() {
    let data = scratch("usage_errors");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "run", 1);
    let error = |query: &str| serve::query(&addr, query).unwrap_err().to_string();

    assert_eq!(error("functions nosuch"), "unknown window `nosuch`");
    let unknown = error("frobnicate");
    assert!(
        unknown.starts_with("unknown query `frobnicate` (try: windows, functions,"),
        "{unknown}"
    );
    assert_eq!(error("pages w1 x"), "bad limit `x`");

    let mut odd = SocketSink::connect(&addr, "odd", "w2").unwrap();
    let mut recipe = common::counters();
    recipe[0].interval += 1;
    odd.begin(&recipe, Some(10007), 900_000_000).unwrap();
    let run = RunInfo {
        clock_hz: 900_000_000,
        dropped: vec![0],
        ..Default::default()
    };
    odd.finish(&run, &[]).unwrap();
    let mismatch = error("diff w1 w2");
    assert!(
        mismatch.starts_with("incompatible experiments: column sets differ"),
        "{mismatch}"
    );

    server.shutdown();
}

/// Staging files left by a crashed boot are swept at startup: a
/// readable prefix seals into its window (named in the staging file),
/// junk is discarded, and the session counter seeds past them.
#[test]
fn stale_staging_files_recover_on_startup() {
    let data = scratch("recover");
    let dirs = StoreDirs::create(&data).unwrap();
    std::fs::write(dirs.ingest_path("w1", "0000000007-left"), local_bytes(3, 2)).unwrap();
    std::fs::write(data.join("ingest").join("garbage.part"), b"junk").unwrap();

    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();

    let sealed = dirs.raw_path("w1", "0000000007-left");
    assert_eq!(std::fs::read(&sealed).unwrap(), local_bytes(3, 2));
    assert!(
        std::fs::read_dir(data.join("ingest"))
            .unwrap()
            .next()
            .is_none(),
        "staging area not swept"
    );

    // New sessions start above the recovered sequence number.
    let mut sink = SocketSink::connect(&server.addr().to_string(), "next", "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, 4, 1);
    assert!(
        sink.session().starts_with("0000000008-"),
        "session counter not seeded past recovered segment: {}",
        sink.session()
    );

    server.shutdown();
}

/// Path context satellite: opening a missing or corrupt store names
/// the offending file in the error.
#[test]
fn open_errors_carry_the_file_path() {
    let dir = scratch("patherr");
    let missing = dir.join("nope.mps");
    let err = ExperimentRef::open(&missing).unwrap_err();
    assert!(
        err.to_string().contains("nope.mps"),
        "error lacks path: {err}"
    );

    let corrupt = dir.join("bad.mps");
    std::fs::write(&corrupt, b"MPS\x00garbage").unwrap();
    let err = match open_as_stream(&corrupt) {
        Ok(_) => panic!("corrupt store opened"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("bad.mps"),
        "error lacks path: {err}"
    );
}

fn open_as_stream(path: &Path) -> Result<memprof_store::EventStream, memprof_store::StoreError> {
    let r = ExperimentRef::open(path)?;
    memprof_store::EventStream::open(&r)
}

/// LRU cap satellite: a capped cache evicts the least recently
/// compacted window, and an evicted window's next pass — forced onto
/// the re-read-from-disk path — produces byte-identical packed stores
/// and summaries to both an uncapped (always-seeded) cache and a
/// disabled one (always re-read).
#[test]
fn lru_eviction_falls_back_to_disk_path_byte_identically() {
    use memprof_serve::compact_window;

    const WINDOWS: [&str; 3] = ["w1", "w2", "w3"];

    // Drive two rounds of segment-landing + compaction over three
    // windows through one cache. With cap 1, each round's passes
    // evict each other in turn, so round 2 finds w1 and w2 evicted
    // (disk path) and only w3 still seeded.
    let run = |tag: &str, cache: &std::sync::Mutex<CompactCache>| -> Vec<(Vec<u8>, Vec<u8>)> {
        let data = scratch(tag);
        let dirs = StoreDirs::create(&data).unwrap();
        for round in 0u64..2 {
            for (i, window) in WINDOWS.iter().enumerate() {
                std::fs::create_dir_all(dirs.raw_dir(window)).unwrap();
                let session = format!("{:010}-r{round}", round * 10 + i as u64 + 1);
                let seed = round * 10 + i as u64 + 1;
                std::fs::write(dirs.raw_path(window, &session), local_bytes(seed, 2)).unwrap();
                assert_eq!(compact_window(&dirs, window, cache).unwrap(), 1);
            }
        }
        WINDOWS
            .iter()
            .map(|w| {
                (
                    std::fs::read(dirs.packed_path(w)).unwrap(),
                    std::fs::read(dirs.summary_path(w)).unwrap(),
                )
            })
            .collect()
    };

    let capped = std::sync::Mutex::new(CompactCache::with_cap(1));
    let capped_tiers = run("lru_capped", &capped);
    assert_eq!(
        capped.lock().unwrap().len(),
        1,
        "cap 1 holds exactly one window"
    );

    let uncapped = std::sync::Mutex::new(CompactCache::with_cap(usize::MAX));
    let uncapped_tiers = run("lru_uncapped", &uncapped);
    assert_eq!(uncapped.lock().unwrap().len(), WINDOWS.len());

    let disabled = std::sync::Mutex::new(CompactCache::with_cap(0));
    let disabled_tiers = run("lru_disabled", &disabled);
    assert!(disabled.lock().unwrap().is_empty(), "cap 0 caches nothing");

    for (i, w) in WINDOWS.iter().enumerate() {
        assert_eq!(
            capped_tiers[i], uncapped_tiers[i],
            "{w}: evicted (re-read) pass diverged from seeded pass"
        );
        assert_eq!(
            capped_tiers[i], disabled_tiers[i],
            "{w}: capped pass diverged from cache-disabled pass"
        );
    }
}

/// Copy a daemon data directory (tiers, manifests, summaries) so a
/// second daemon can serve the very same store.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).unwrap();
        }
    }
}

const VIEWS: [&str; 5] = [
    "objects w1",
    "objects w1 cpu",
    "segments w1",
    "pages w1 5",
    "lines w1 5",
];

fn view_counts(server: &Server) -> (u64, u64) {
    let cache = server.compact_cache().lock().unwrap();
    (cache.view_hits(), cache.view_misses())
}

/// Answer every view query, asserting how many came from the cache.
fn answer_views(server: &Server, hits: u64, misses: u64) -> Vec<String> {
    let addr = server.addr().to_string();
    let before = view_counts(server);
    let answers = VIEWS
        .iter()
        .map(|q| serve::query(&addr, q).unwrap())
        .collect();
    let after = view_counts(server);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (hits, misses),
        "(hits, misses) over {} view queries",
        VIEWS.len()
    );
    answers
}

fn land(server: &Server, name: &str, seed: u64) {
    let mut sink = SocketSink::connect(&server.addr().to_string(), name, "w1").unwrap();
    sink.attach("syms.txt", SYMS);
    drive(&mut sink, seed, 2);
}

/// Analyzer views on a compacted window answer from the compaction
/// cache's merged experiment, byte-identically to a cache-less daemon
/// decoding the same store; fresh raw segments force the disk path;
/// and a compaction after cached answers still seeds from the cache
/// and lands the offline merge.
#[test]
fn cached_view_answers_match_the_disk_path() {
    let data = scratch("views_cached");
    let cached = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    for seed in [1u64, 2, 3] {
        land(&cached, &format!("run{seed}"), seed);
    }
    serve::query(&cached.addr().to_string(), "compact").unwrap();

    let copy = scratch("views_disk");
    copy_dir(&data, &copy);
    let no_cache = ServerConfig {
        cache_windows: Some(0),
        ..ServerConfig::default()
    };
    let disk = Server::start("127.0.0.1:0", &copy, no_cache).unwrap();

    let n = VIEWS.len() as u64;
    let from_cache = answer_views(&cached, n, 0);
    assert_eq!(from_cache, answer_views(&disk, 0, n));
    assert!(from_cache[0].contains("<Total>"), "{}", from_cache[0]);

    // A fresh raw segment means the cached merge is no longer the
    // whole window: both daemons decode from disk and still agree.
    let dirs = StoreDirs::create(&data).unwrap();
    let round1 = std::fs::read(dirs.packed_path("w1")).unwrap();
    land(&cached, "run4", 4);
    land(&disk, "run4", 4);
    let with_fresh = answer_views(&cached, 0, n);
    assert_eq!(with_fresh, answer_views(&disk, 0, n));
    assert_ne!(with_fresh, from_cache, "the fourth session is missing");

    // Compaction after those view queries still seeds from the cache,
    // and lands exactly the offline merge of [round-1 store, segment].
    let seeded = |s: &Server| s.compact_cache().lock().unwrap().seeded_passes();
    let seeded_before = seeded(&cached);
    serve::query(&cached.addr().to_string(), "compact").unwrap();
    serve::query(&disk.addr().to_string(), "compact").unwrap();
    assert_eq!(seeded(&cached), seeded_before + 1, "pass did not seed");
    assert_eq!(seeded(&disk), 0);

    let offline = scratch("views_offline");
    let packed1 = offline.join("w1.mps");
    std::fs::write(&packed1, &round1).unwrap();
    let raw4 = offline.join("0000000004-run4.mpes");
    std::fs::write(&raw4, local_bytes(4, 2)).unwrap();
    let refs = vec![
        ExperimentRef::open(&packed1).unwrap(),
        ExperimentRef::open(&raw4).unwrap(),
    ];
    let expected = pack_experiment(
        &merge_experiments(&refs).unwrap(),
        &collect_attachments(&refs),
    );
    let packed2 = std::fs::read(dirs.packed_path("w1")).unwrap();
    assert_eq!(
        packed2, expected,
        "compacted store differs from offline merge"
    );
    let copy_dirs = StoreDirs::create(&copy).unwrap();
    assert_eq!(
        std::fs::read(copy_dirs.packed_path("w1")).unwrap(),
        expected
    );

    // And the new merge answers from memory again.
    let round2 = answer_views(&cached, n, 0);
    assert_eq!(round2, with_fresh);
    assert_eq!(round2, answer_views(&disk, 0, n));

    cached.shutdown();
    disk.shutdown();
}

/// A packed store replaced behind the daemon's back no longer hashes
/// to the cached fingerprint: views must follow the bytes on disk.
#[test]
fn cached_views_follow_a_store_replaced_on_disk() {
    let data = scratch("views_replaced");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    for seed in [1u64, 2, 3] {
        land(&server, &format!("run{seed}"), seed);
    }
    serve::query(&addr, "compact").unwrap();
    let n = VIEWS.len() as u64;
    let all_three = answer_views(&server, n, 0);

    // Offline merge of only the first two sessions, swapped in.
    let offline = scratch("views_replaced_offline");
    let files: Vec<_> = [1u64, 2]
        .iter()
        .enumerate()
        .map(|(i, seed)| {
            let path = offline.join(format!("000000000{}-run{seed}.mpes", i + 1));
            std::fs::write(&path, local_bytes(*seed, 2)).unwrap();
            path
        })
        .collect();
    let refs: Vec<ExperimentRef> = files
        .iter()
        .map(|p| ExperimentRef::open(p).unwrap())
        .collect();
    let subset = pack_experiment(
        &merge_experiments(&refs).unwrap(),
        &collect_attachments(&refs),
    );
    let dirs = StoreDirs::create(&data).unwrap();
    std::fs::write(dirs.packed_path("w1"), &subset).unwrap();

    let replaced = answer_views(&server, 0, n);
    assert_ne!(replaced, all_three, "views still answer the cached merge");

    // The reference: a cache-less daemon over the replaced store.
    let copy = scratch("views_replaced_copy");
    copy_dir(&data, &copy);
    let no_cache = ServerConfig {
        cache_windows: Some(0),
        ..ServerConfig::default()
    };
    let disk = Server::start("127.0.0.1:0", &copy, no_cache).unwrap();
    assert_eq!(replaced, answer_views(&disk, 0, n));

    server.shutdown();
    disk.shutdown();
}

/// A corrupt packed store under a still-valid summary must fail the
/// `functions` query rather than silently drop its per-function
/// section.
#[test]
fn functions_on_a_corrupt_packed_store_is_an_error() {
    let data = scratch("corrupt_syms");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "run", 1);
    serve::query(&addr, "compact").unwrap();
    assert!(serve::query(&addr, "functions w1").is_ok());

    let dirs = StoreDirs::create(&data).unwrap();
    let packed = dirs.packed_path("w1");
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&packed, &bytes).unwrap();
    assert!(dirs.summary_path("w1").exists());

    let err = serve::query(&addr, "functions w1").unwrap_err();
    assert!(
        err.to_string().contains("w1.mps"),
        "error lacks path: {err}"
    );

    server.shutdown();
}

/// A session whose chunk passes its checksum but carries bad content
/// (an event naming a stack id no STACKS chunk defined) has intact
/// framing, so it seals like any other. Every call that decodes the
/// chunk then fails: compaction reports an error for that window only,
/// the way an incompatible recipe is reported, other windows still
/// compact, and queries on the window return a typed error naming the
/// segment.
#[test]
fn a_session_with_bad_chunk_content_fails_only_its_window() {
    let data = scratch("bad_content");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let run = RunInfo {
        clock_hz: 900_000_000,
        dropped: vec![0],
        ..Default::default()
    };
    land(&server, "healthy", 1);

    let mut bad = SocketSink::connect(&addr, "bad", "w2").unwrap();
    bad.attach("syms.txt", SYMS);
    bad.begin(&common::counters(), Some(10007), 900_000_000)
        .unwrap();
    bad.hwc_segment(&[PackedHwcEvent {
        counter: 0,
        delivered_pc: 0x1_0008,
        candidate_pc: Some(0x1_0000),
        ea: None,
        stack: 5,
        truth_trigger_pc: 0x1_0000,
        truth_ea: None,
        truth_skid: 2,
    }])
    .unwrap();
    bad.finish(&run, &[]).unwrap();

    // An incompatible recipe, for comparison: w3 holds one session
    // collected at a different interval from the other.
    let mut odd = SocketSink::connect(&addr, "odd", "w3").unwrap();
    let mut recipe = common::counters();
    recipe[0].interval += 1;
    odd.begin(&recipe, Some(10007), 900_000_000).unwrap();
    odd.finish(&run, &[]).unwrap();
    let mut same = SocketSink::connect(&addr, "same", "w3").unwrap();
    drive(&mut same, 2, 1);

    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("compacted w1: 1 raw segments"), "{report}");
    assert!(
        report.contains("compact w2 failed: ") && report.contains("undefined stack id"),
        "{report}"
    );
    assert!(
        report.contains("compact w3 failed: incompatible experiments"),
        "{report}"
    );
    let dirs = StoreDirs::create(&data).unwrap();
    assert!(dirs.packed_path("w1").exists());
    assert!(!dirs.packed_path("w2").exists());
    assert_eq!(dirs.raw_segments("w2").unwrap().len(), 1);

    for query in ["functions w2", "objects w2"] {
        let err = serve::query(&addr, query).unwrap_err().to_string();
        assert!(
            err.contains("corrupt store: event references undefined stack id")
                && err.contains(".mpes"),
            "{query}: {err}"
        );
    }
    assert!(serve::query(&addr, "functions w1").is_ok());

    // The segment poisons more than its own window's queries: an
    // aggregate over every window decodes it and fails the same way.
    for query in ["stat", "functions"] {
        let err = serve::query(&addr, query).unwrap_err().to_string();
        assert!(err.contains("undefined stack id"), "{query}: {err}");
    }
    server.shutdown();

    // Retention ages a raw tier out by compacting it, so the window's
    // forced compaction fails on every sweep and its raw tier stays.
    // Only removing the segment by hand clears the window.
    let sweep = || {
        serve::enforce_retention(
            &dirs,
            &WindowRegistry::new(),
            &Mutex::new(CompactCache::default()),
            &RetentionPolicy {
                raw_windows: Some(1),
                age_secs: None,
            },
        )
        .unwrap()
    };
    for _ in 0..2 {
        let report = sweep();
        assert!(
            report
                .errors
                .iter()
                .any(|(w, e)| w == "w2" && e.contains("undefined stack id")),
            "{report:?}"
        );
        assert_eq!(dirs.raw_segments("w2").unwrap().len(), 1);
    }
    std::fs::remove_dir_all(dirs.raw_dir("w2")).unwrap();
    assert!(sweep().errors.iter().all(|(w, _)| w != "w2"));
}

/// A packed tier damaged on disk is refused, never read as a prefix:
/// merging what is left and writing a whole store over it would lose
/// every chunk after the damage, and the tier's run counts, for good.
/// Compaction reports the window's error and leaves the damaged store
/// and the fresh segment as they were; the other readers of the tier
/// fail with the store's path.
#[test]
fn compaction_refuses_a_damaged_packed_store() {
    let data = scratch("damaged_packed");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "first", 1);
    serve::query(&addr, "compact").unwrap();

    let dirs = StoreDirs::create(&data).unwrap();
    let packed = dirs.packed_path("w1");
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&packed, &bytes).unwrap();

    land(&server, "second", 2);
    let report = serve::query(&addr, "compact").unwrap();
    assert!(
        report.contains("compact w1 failed: ") && report.contains("w1.mps: corrupt store"),
        "{report}"
    );
    assert_eq!(std::fs::read(&packed).unwrap(), bytes);
    assert_eq!(dirs.live_raw_segments("w1").unwrap().fresh.len(), 1);

    // Without a summary, aggregates fall back to the packed tier, and
    // the recovery path that regenerates the summary reads it too.
    std::fs::remove_file(dirs.summary_path("w1")).unwrap();
    for query in ["functions w1", "stat w1", "objects w1"] {
        let err = serve::query(&addr, query).unwrap_err().to_string();
        assert!(err.contains("w1.mps: corrupt store"), "{query}: {err}");
    }
    for raw in dirs.raw_segments("w1").unwrap() {
        std::fs::remove_file(raw).unwrap();
    }
    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("compact w1 failed: "), "{report}");
    assert_eq!(std::fs::read(&packed).unwrap(), bytes);
    assert!(!dirs.summary_path("w1").exists());

    server.shutdown();
}
