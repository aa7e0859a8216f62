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
use std::path::{Path, PathBuf};

use memprof_core::{CollectSink as _, PackedHwcEvent, RunInfo};
use memprof_serve::wire::{
    hello_payload, read_frame, write_frame, PROTO_VERSION, TAG_CHUNK, TAG_END, TAG_END_OK,
    TAG_ERROR, TAG_HELLO, TAG_HELLO_OK,
};
use memprof_serve::{
    self as serve, RetentionPolicy, Server, ServerConfig, SocketSink, StoreDirs, WindowRegistry,
};
use memprof_store::{merge_streams, xxh64, ExperimentRef, StreamFile};

mod common;
use common::{drive, local_bytes, local_bytes_with, object_syms, scratch, wait_for, SYMS};

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

    let expected = offline_merge(&offline_files);
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

/// `mp-store merge` over `files`, in that order: each opened once and
/// folded with [`merge_streams`].
fn offline_merge(files: &[PathBuf]) -> Vec<u8> {
    let inputs: Vec<StreamFile> = files.iter().map(|p| StreamFile::open(p).unwrap()).collect();
    merge_streams(&inputs).unwrap()
}

/// Incremental compaction is invisible in the artifacts: a second
/// pass on the same daemon and one on a daemon restarted between the
/// passes write the same bytes, and both are the offline merge of the
/// previous store and the new segment — and, the merge being
/// associative, one flat offline merge of all three sessions.
#[test]
fn incremental_compaction_matches_cold_cache_and_offline() {
    // Run the same two-round ingest+compact sequence; `restart`
    // decides whether round 2 runs on the same daemon or a fresh boot.
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
    assert_eq!(warm1, cold1, "first passes diverge");
    assert_eq!(warm2, cold2, "second passes diverge across a restart");
    assert_eq!(warm_stat, cold_stat);

    // Both equal the offline toolchain replaying the same rounds —
    // merge round 1's segments, then that store with round 2's — and
    // one merge of all three sessions.
    let offline = scratch("incr_offline");
    let files: Vec<PathBuf> = [1u64, 2, 3]
        .iter()
        .map(|&seed| {
            let path = offline.join(format!("000000000{seed}-run{seed}.mpes"));
            std::fs::write(&path, local_bytes(seed, 2)).unwrap();
            path
        })
        .collect();
    assert_eq!(offline_merge(&files[..2]), warm1);
    let packed1_path = offline.join("w1.mps");
    std::fs::write(&packed1_path, &warm1).unwrap();
    assert_eq!(
        offline_merge(&[packed1_path, files[2].clone()]),
        warm2,
        "compacted store differs from the offline merge of its rounds"
    );
    assert_eq!(
        offline_merge(&files),
        warm2,
        "two passes differ from one flat merge of the three sessions"
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

/// Nothing of a session is left in `ingest/` or `raw/W/`.
fn nothing_landed(dirs: &StoreDirs, window: &str) {
    wait_for("staging file cleanup", || {
        let ingest = dirs.root.join("ingest");
        std::fs::read_dir(ingest)
            .unwrap()
            .next()
            .is_none()
            .then_some(())
    });
    assert!(dirs.raw_segments(window).unwrap().is_empty());
}

/// A collector built against protocol version 1, whose CHUNK payloads
/// were MPES v2, is refused at HELLO with an ERROR naming both
/// versions, before it streams anything.
#[test]
fn an_older_protocol_version_is_refused_at_hello() {
    let data = scratch("oldproto");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let dirs = StoreDirs::create(&data).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut hello = hello_payload("old", "w1");
    hello[0] = 1;
    write_frame(&mut stream, TAG_HELLO, &hello).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(reply.tag, TAG_ERROR);
    let msg = String::from_utf8(reply.payload).unwrap();
    assert!(
        msg.contains("protocol version 1") && msg.contains(&format!("speaks {PROTO_VERSION}")),
        "{msg}"
    );
    nothing_landed(&dirs, "w1");

    server.shutdown();
}

/// A clean END after bytes with no readable MPES prefix is answered:
/// the collector hears that its session was discarded instead of
/// seeing the connection close without a reply.
#[test]
fn a_clean_end_with_no_readable_prefix_gets_an_error() {
    let data = scratch("junk");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let dirs = StoreDirs::create(&data).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, TAG_HELLO, &hello_payload("junk", "w1")).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(reply.tag, TAG_HELLO_OK);
    write_frame(&mut stream, TAG_CHUNK, b"junk bytes, not an MPES stream").unwrap();
    write_frame(&mut stream, TAG_END, b"").unwrap();
    let reply = read_frame(&mut stream).expect("an answer to END");
    assert_eq!(reply.tag, TAG_ERROR);
    let msg = String::from_utf8(reply.payload).unwrap();
    assert!(msg.contains("discarded"), "{msg}");
    nothing_landed(&dirs, "w1");

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

/// The symbol table reaches the daemon as a footer attachment from any
/// collector that connects. A FIELD type with a 300,000-link typedef
/// chain must parse like any other table: the window answers, and the
/// daemon stays up for the next query.
#[test]
fn a_hostile_symbol_table_does_not_take_the_daemon_down() {
    let data = scratch("hostile_syms");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let hostile = format!(
        "{SYMS}STRUCT evil 8 8 1\nFIELD a 0 {}\n",
        "=".repeat(300_000)
    );
    let mut sink = SocketSink::connect(&addr, "run", "w1").unwrap();
    sink.attach("syms.txt", &hostile);
    drive(&mut sink, 1, 2);

    let functions = serve::query(&addr, "functions w1").unwrap();
    assert!(functions.contains("\"name\": \"func\""), "{functions}");
    let windows = serve::query(&addr, "windows").unwrap();
    assert!(windows.contains("w1: 1 raw segment,"), "{windows}");
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
    let err = match ExperimentRef::open(&corrupt).and_then(|r| r.open_stream()) {
        Ok(_) => panic!("corrupt store opened"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("bad.mps"),
        "error lacks path: {err}"
    );
}

/// A pass adds the fresh segments' histogram to the window's summary.
/// When that summary is missing, does not parse, or is the previous
/// build's `MPSUM 2`, the pass starts from the fold of the packed store
/// instead, so it writes the summary a pass over an intact one writes.
#[test]
fn a_missing_or_damaged_summary_is_rebuilt_from_the_packed_store() {
    // Two passes of one session each; `damage` acts on the summary the
    // first pass wrote.
    let run = |tag: &str, damage: &dyn Fn(&Path)| -> (Vec<u8>, Vec<u8>) {
        let dirs = StoreDirs::create(&scratch(tag)).unwrap();
        std::fs::create_dir_all(dirs.raw_dir("w1")).unwrap();
        for seed in [1u64, 2] {
            let session = format!("{seed:010}-run{seed}");
            std::fs::write(dirs.raw_path("w1", &session), local_bytes(seed, 2)).unwrap();
            assert_eq!(serve::compact_window(&dirs, "w1").unwrap(), 1);
            if seed == 1 {
                damage(&dirs.summary_path("w1"));
            }
        }
        (
            std::fs::read(dirs.packed_path("w1")).unwrap(),
            std::fs::read(dirs.summary_path("w1")).unwrap(),
        )
    };
    let intact = run("summary_intact", &|_| {});
    let missing = run("summary_missing", &|p| std::fs::remove_file(p).unwrap());
    assert_eq!(missing, intact);
    let damaged = run("summary_damaged", &|p| {
        std::fs::write(p, "MPSUM 3\ngarbage\n").unwrap()
    });
    assert_eq!(damaged, intact);
    let previous = run("summary_previous", &|p| {
        std::fs::write(p, "MPSUM 2\ngarbage\n").unwrap()
    });
    assert_eq!(previous, intact);
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

const VIEWS: [&str; 6] = [
    "objects w1",
    "objects w1 cpu",
    "objects w1 ecstall",
    "segments w1",
    "pages w1 5",
    "lines w1 5",
];

/// Every view query's answer.
fn answer_views(server: &Server) -> Vec<String> {
    let addr = server.addr().to_string();
    VIEWS
        .iter()
        .map(|q| serve::query(&addr, q).unwrap())
        .collect()
}

/// Land run `seed` in window `w1`, carrying [`object_syms`].
fn land(server: &Server, name: &str, seed: u64) {
    let mut sink = SocketSink::connect(&server.addr().to_string(), name, "w1").unwrap();
    sink.attach("syms.txt", &object_syms());
    drive(&mut sink, seed, 2);
}

/// `objects` answers from the summary (plus the fold of any fresh raw
/// segments) and the address views fold the window's files. Every
/// view answers byte-identically to a daemon over a copy of the store
/// whose summary was deleted, which answers `objects` from the packed
/// store: on a compacted window, after a fresh raw segment lands, and
/// after the compaction that folds it in — which lands the offline
/// merge, and the summary a pass over the missing one writes too. The
/// served figure is the analyzer's over the decoded packed store.
#[test]
fn views_match_a_daemon_without_summaries() {
    let data = scratch("views");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    for seed in [1u64, 2, 3] {
        land(&server, &format!("run{seed}"), seed);
    }
    serve::query(&server.addr().to_string(), "compact").unwrap();

    let dirs = StoreDirs::create(&data).unwrap();
    let copy = scratch("views_copy");
    copy_dir(&data, &copy);
    let copy_dirs = StoreDirs::create(&copy).unwrap();
    std::fs::remove_file(copy_dirs.summary_path("w1")).unwrap();
    let disk = Server::start("127.0.0.1:0", &copy, ServerConfig::default()).unwrap();

    let compacted = answer_views(&server);
    assert_eq!(compacted, answer_views(&disk));
    assert!(
        compacted[0].contains("{structure:particle -}") && compacted[0].contains("<Scalars>"),
        "{}",
        compacted[0]
    );
    let store = StreamFile::open(&dirs.packed_path("w1")).unwrap();
    let exp = store.to_experiment().unwrap();
    let syms = minic::SymbolTable::parse(&object_syms()).unwrap();
    let analysis = memprof_core::analyze::Analysis::new(&[&exp], &syms);
    assert_eq!(compacted[0], analysis.render_data_objects(0));
    assert_eq!(compacted[1], analysis.render_data_objects(0));
    assert_eq!(compacted[2], analysis.render_data_objects(1));

    // A fresh raw segment: `objects` adds its fold to the summary, the
    // address views fold it beside the packed store.
    let round1 = std::fs::read(dirs.packed_path("w1")).unwrap();
    land(&server, "run4", 4);
    land(&disk, "run4", 4);
    let with_fresh = answer_views(&server);
    assert_eq!(with_fresh, answer_views(&disk));
    assert_ne!(with_fresh, compacted, "the fourth session is missing");

    // Compaction lands exactly the offline merge of [round-1 store,
    // segment], which is one merge of all four sessions, and the
    // copy's pass rebuilds the summary the original's pass extends.
    serve::query(&server.addr().to_string(), "compact").unwrap();
    serve::query(&disk.addr().to_string(), "compact").unwrap();
    let offline = scratch("views_offline");
    let packed1 = offline.join("w1.mps");
    std::fs::write(&packed1, &round1).unwrap();
    let raw4 = offline.join("0000000004-run4.mpes");
    std::fs::write(&raw4, local_bytes(4, 2)).unwrap();
    let expected = offline_merge(&[packed1, raw4]);
    let packed2 = std::fs::read(dirs.packed_path("w1")).unwrap();
    assert_eq!(
        packed2, expected,
        "compacted store differs from offline merge"
    );
    assert_eq!(
        std::fs::read(copy_dirs.packed_path("w1")).unwrap(),
        expected
    );
    assert_eq!(
        std::fs::read(copy_dirs.summary_path("w1")).unwrap(),
        std::fs::read(dirs.summary_path("w1")).unwrap()
    );
    std::fs::remove_file(copy_dirs.summary_path("w1")).unwrap();
    let round2 = answer_views(&server);
    assert_eq!(round2, with_fresh);
    assert_eq!(round2, answer_views(&disk));

    server.shutdown();
    disk.shutdown();
}

/// A packed store replaced behind the daemon's back: `objects` and
/// `functions` keep answering from the summary, which still describes
/// the store the last pass wrote, until the next pass; `segments`,
/// `pages` and `lines` follow the bytes on disk.
#[test]
fn views_follow_a_store_replaced_on_disk() {
    let data = scratch("views_replaced");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    for seed in [1u64, 2, 3] {
        land(&server, &format!("run{seed}"), seed);
    }
    serve::query(&addr, "compact").unwrap();
    let all_three = answer_views(&server);
    let functions = serve::query(&addr, "functions w1").unwrap();

    // Offline merge of only the first two sessions, swapped in.
    let offline = scratch("views_replaced_offline");
    let files: Vec<PathBuf> = [1u64, 2]
        .iter()
        .enumerate()
        .map(|(i, seed)| {
            let path = offline.join(format!("000000000{}-run{seed}.mpes", i + 1));
            std::fs::write(&path, local_bytes_with(*seed, 2, &object_syms())).unwrap();
            path
        })
        .collect();
    let dirs = StoreDirs::create(&data).unwrap();
    std::fs::write(dirs.packed_path("w1"), offline_merge(&files)).unwrap();

    let replaced = answer_views(&server);
    assert_eq!(serve::query(&addr, "functions w1").unwrap(), functions);
    // The reference for the disk side: a daemon over a copy of the
    // replaced store with no summary, which reads every view from it.
    let copy = scratch("views_replaced_copy");
    copy_dir(&data, &copy);
    std::fs::remove_file(StoreDirs::create(&copy).unwrap().summary_path("w1")).unwrap();
    let disk = Server::start("127.0.0.1:0", &copy, ServerConfig::default()).unwrap();
    let on_disk = answer_views(&disk);
    for (i, query) in VIEWS.iter().enumerate() {
        if query.starts_with("objects") {
            assert_eq!(replaced[i], all_three[i], "{query} left the summary");
            assert_ne!(replaced[i], on_disk[i], "{query}");
        } else {
            assert_eq!(replaced[i], on_disk[i], "{query} missed the new store");
            assert_ne!(replaced[i], all_three[i], "{query}");
        }
    }

    server.shutdown();
    disk.shutdown();
}

/// A pass adds the fresh segments' aggregate to the current summary
/// only while that summary describes the store on disk. After the
/// store is replaced behind the daemon, the next pass summarizes the
/// store itself, so `functions` answers what `mp-store stat --json` on
/// the compacted store does.
#[test]
fn compaction_after_a_replaced_store_summarizes_the_store_on_disk() {
    let data = scratch("summary_replaced");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    for seed in [1u64, 2, 3] {
        land(&server, &format!("run{seed}"), seed);
    }
    serve::query(&addr, "compact").unwrap();

    // The first session alone, merged offline and swapped in.
    let offline = scratch("summary_replaced_offline");
    let first = offline.join("0000000001-run1.mpes");
    std::fs::write(&first, local_bytes(1, 2)).unwrap();
    let dirs = StoreDirs::create(&data).unwrap();
    let packed = dirs.packed_path("w1");
    std::fs::write(&packed, offline_merge(&[first])).unwrap();

    land(&server, "run4", 4);
    serve::query(&addr, "compact").unwrap();
    assert!(dirs.live_raw_segments("w1").unwrap().fresh.is_empty());
    let store = ExperimentRef::open(&packed).unwrap();
    let stat_json = memprof_store::aggregate_refs(&[store], 1)
        .unwrap()
        .stat_json(ExperimentRef::open(&packed).unwrap().load_syms().as_ref());
    assert_eq!(serve::query(&addr, "functions w1").unwrap(), stat_json);

    server.shutdown();
}

/// `functions` and `objects` on a compacted window answer from the
/// summary alone, which carries the packed store's symbol table. So a
/// store damaged under an intact summary leaves those answers as they
/// were, as it leaves `stat`'s — while every reader of the store itself
/// still refuses it: the address-keyed views and the next compaction
/// fail naming the store.
#[test]
fn functions_on_a_corrupt_packed_store_answers_from_the_summary() {
    let data = scratch("corrupt_syms");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "run", 1);
    serve::query(&addr, "compact").unwrap();
    let functions = serve::query(&addr, "functions w1").unwrap();
    assert!(
        functions.contains("\"func\""),
        "no per-function rows: {functions}"
    );
    let objects = serve::query(&addr, "objects w1").unwrap();

    let dirs = StoreDirs::create(&data).unwrap();
    let packed = dirs.packed_path("w1");
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&packed, &bytes).unwrap();
    assert!(dirs.summary_path("w1").exists());

    assert_eq!(serve::query(&addr, "functions w1").unwrap(), functions);
    assert_eq!(serve::query(&addr, "objects w1").unwrap(), objects);
    for query in ["pages w1", "segments w1"] {
        let err = serve::query(&addr, query).unwrap_err();
        assert!(err.to_string().contains("w1.mps"), "{query}: {err}");
    }
    land(&server, "second", 2);
    let report = serve::query(&addr, "compact").unwrap();
    assert!(
        report.contains("compact w1 failed: ") && report.contains("w1.mps"),
        "{report}"
    );
    assert_eq!(std::fs::read(&packed).unwrap(), bytes);

    server.shutdown();
}

/// The summary's symbol section is as much a part of the `functions`
/// answer as its counts: damage there fails the query naming the
/// summary, never answers without the per-function section.
#[test]
fn a_damaged_summary_symbol_table_fails_functions() {
    let data = scratch("damaged_summary_syms");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "run", 1);
    serve::query(&addr, "compact").unwrap();
    let functions = serve::query(&addr, "functions w1").unwrap();

    let dirs = StoreDirs::create(&data).unwrap();
    let path = dirs.summary_path("w1");
    let whole = std::fs::read_to_string(&path).unwrap();
    assert!(
        whole.ends_with(&object_syms()),
        "summary does not end with the table"
    );
    let at = whole.rfind("\nsyms ").unwrap() + 1;
    let (body, table) = (&whole[..at], &whole[at..]);
    let (_, text) = table.split_once('\n').unwrap();
    let len = text.len();
    let garbled = "not a symbol table\n";
    for damaged in [
        // A length past the end of the file.
        format!("{body}syms {}\n{text}", len + 1),
        // A table cut short.
        whole[..whole.len() - 10].to_string(),
        // Framing intact, table unreadable.
        format!("{body}syms {}\n{garbled}", garbled.len()),
    ] {
        std::fs::write(&path, &damaged).unwrap();
        let err = serve::query(&addr, "functions w1").unwrap_err().to_string();
        assert!(err.contains("w1.sum"), "{damaged:?}: {err}");
    }

    std::fs::write(&path, &whole).unwrap();
    assert_eq!(serve::query(&addr, "functions w1").unwrap(), functions);
    server.shutdown();
}

/// A window whose sessions carry no symbol table answers `functions`
/// without its per-function section, but Figure 6 and the address
/// views need the table: they fail saying so, from the raw tier and
/// from the summary alike.
#[test]
fn a_window_without_a_symbol_table_fails_the_views() {
    let data = scratch("no_syms");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut sink = SocketSink::connect(&addr, "bare", "w1").unwrap();
    drive(&mut sink, 1, 2);
    for round in ["raw", "compacted"] {
        let functions = serve::query(&addr, "functions w1").unwrap();
        assert!(!functions.contains("\"functions\""), "{round}: {functions}");
        for query in ["objects w1", "pages w1"] {
            let err = serve::query(&addr, query).unwrap_err().to_string();
            assert_eq!(err, "window has no symbol table", "{round}: {query}");
        }
        serve::query(&addr, "compact").unwrap();
    }
    server.shutdown();
}

/// `agg` and `syms` in the previous build's `MPSUM 2` grammar: the
/// per-PC histogram, then the symbol section.
fn mpsum2(agg: &memprof_store::Aggregate, syms: &str) -> String {
    let mut out = String::from("MPSUM 2\n");
    for (spec, total) in agg.columns.iter().zip(&agg.totals) {
        out.push_str(&match spec {
            memprof_store::ColSpec::Clock { period } => format!("column clock {period} {total}\n"),
            memprof_store::ColSpec::Hwc {
                event,
                backtrack,
                interval,
            } => format!(
                "column hwc {} {} {interval} {total}\n",
                event.name(),
                u8::from(*backtrack)
            ),
        });
    }
    for (pc, samples) in &agg.pc_samples {
        let samples: Vec<String> = samples.iter().map(u64::to_string).collect();
        out.push_str(&format!("pc {pc} {}\n", samples.join(" ")));
    }
    out.push_str(&format!("syms {}\n{syms}", syms.len()));
    out
}

/// A window compacted by the previous build holds an `MPSUM 2`
/// summary. It reads as no summary: `functions`, `stat` and `objects`
/// answer from the packed store, byte-identically to a copy of the
/// window whose summary was deleted, and the next pass — with nothing
/// to fold — rewrites it as the `MPSUM 3` summary this build writes,
/// with the answers unchanged.
#[test]
fn a_previous_format_summary_reads_as_none_and_is_rewritten() {
    const QUERIES: [&str; 3] = ["functions w1", "stat w1", "objects w1"];
    let data = scratch("previous_summary");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "first", 1);
    land(&server, "second", 2);
    serve::query(&addr, "compact").unwrap();
    let answers: Vec<String> = QUERIES
        .iter()
        .map(|q| serve::query(&addr, q).unwrap())
        .collect();

    let dirs = StoreDirs::create(&data).unwrap();
    let path = dirs.summary_path("w1");
    let current = std::fs::read_to_string(&path).unwrap();
    assert!(current.starts_with("MPSUM 3\n"), "{current}");
    let store = ExperimentRef::open(&dirs.packed_path("w1")).unwrap();
    let agg = memprof_store::aggregate_refs(&[store], 0).unwrap();
    std::fs::write(&path, mpsum2(&agg, &object_syms())).unwrap();

    let copy = scratch("previous_summary_copy");
    copy_dir(&data, &copy);
    std::fs::remove_file(StoreDirs::create(&copy).unwrap().summary_path("w1")).unwrap();
    let bare = Server::start("127.0.0.1:0", &copy, ServerConfig::default()).unwrap();
    let bare_addr = bare.addr().to_string();
    for (query, answer) in QUERIES.iter().zip(&answers) {
        let previous = serve::query(&addr, query).unwrap();
        assert_eq!(&previous, answer, "{query}");
        assert_eq!(
            previous,
            serve::query(&bare_addr, query).unwrap(),
            "{query}"
        );
    }

    let report = serve::query(&addr, "compact").unwrap();
    assert!(report.contains("nothing to compact"), "{report}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), current);
    for (query, answer) in QUERIES.iter().zip(&answers) {
        assert_eq!(&serve::query(&addr, query).unwrap(), answer, "{query}");
    }
    server.shutdown();
    bare.shutdown();
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
/// which no test recipe declares.
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

/// Seal `bad` as a session into a compacted window. Its next pass must
/// fail with `why`, naming the segment, and leave every tier file as
/// it was; each of `failing` must fail with `why` too, and each of
/// `answering` must answer.
fn bad_session_fails_compaction_before_any_write(
    name: &str,
    bad: Vec<u8>,
    why: &str,
    failing: &[&str],
    answering: &[&str],
) {
    let data = scratch(name);
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    land(&server, "first", 1);
    serve::query(&addr, "compact").unwrap();

    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, TAG_HELLO, &hello_payload("bad", "w1")).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().tag, TAG_HELLO_OK);
    write_frame(&mut stream, TAG_CHUNK, &bad).unwrap();
    write_frame(&mut stream, TAG_END, b"").unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().tag, TAG_END_OK);

    let dirs = StoreDirs::create(&data).unwrap();
    let tiers = || -> Vec<Vec<u8>> {
        let mut files = vec![
            dirs.packed_path("w1"),
            dirs.summary_path("w1"),
            dirs.manifest_path("w1"),
        ];
        files.extend(dirs.raw_segments("w1").unwrap());
        files.iter().map(|p| std::fs::read(p).unwrap()).collect()
    };
    let before = tiers();
    assert_eq!(before.len(), 4, "one sealed raw segment beside the tiers");
    assert_eq!(before[3], bad);

    let report = serve::query(&addr, "compact").unwrap();
    assert!(
        report.contains("compact w1 failed: ") && report.contains(why),
        "{report}"
    );
    assert_eq!(tiers(), before);
    for query in failing {
        let err = serve::query(&addr, query).unwrap_err().to_string();
        assert!(err.contains(why), "{query}: {err}");
    }
    for query in answering {
        let answer = serve::query(&addr, query).unwrap();
        assert!(answer.contains(" events\n"), "{query}: {answer}");
    }

    server.shutdown();
}

/// The merge copies every column but the stack ids without decoding
/// it, so compaction checks the fresh segments' content before it
/// writes anything. A session sealed into a compacted window with an
/// event naming a counter its header lacks fails the window's next
/// pass, naming the segment, and every tier file stays as it was. The
/// window's queries fail naming the segment too.
#[test]
fn bad_content_in_a_copied_column_fails_compaction_before_any_write() {
    bad_session_fails_compaction_before_any_write(
        "bad_column",
        with_unknown_counter(&local_bytes(2, 2)),
        ".mpes: corrupt store: event references unknown counter",
        &["functions w1", "objects w1", "pages w1"],
        &[],
    );
}

/// The merge copies STACKS chunks whole, so it decodes each one first:
/// a session whose stack table ends in a stray byte under a valid
/// checksum fails the window's next pass the same way, instead of
/// landing in the packed store. No query reads a stack table: the
/// address-keyed views answer from the same chunk walk as the
/// aggregates.
#[test]
fn bad_stack_table_fails_compaction_before_any_write() {
    bad_session_fails_compaction_before_any_write(
        "bad_stacks",
        resealed(&local_bytes(2, 2), 1, |payload| payload.push(0)),
        ".mpes: corrupt store: trailing bytes in chunk",
        &[],
        &["pages w1", "segments w1", "lines w1"],
    );
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
