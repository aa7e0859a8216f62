//! Concurrent stress test: several collectors streaming into distinct
//! windows while a compaction loop folds tiers and query clients
//! hammer the daemon — ending with the strongest check the design
//! makes available: every window's final packed store is
//! byte-identical to one offline merge of all its sessions, in
//! session-id order. However the compaction passes happened to batch
//! the sessions, the merge is associative, so that one merge is the
//! whole oracle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use memprof_serve::{self as serve, Server, ServerConfig, SocketSink, StoreDirs};
use memprof_store::{aggregate_streams, merge_streams, StreamFile};

mod common;
use common::{drive, local_bytes, scratch, wait_for, SYMS};

const WINDOWS: [&str; 3] = ["sw0", "sw1", "sw2"];
const SESSIONS_PER_WINDOW: u64 = 4;
const SEGS: usize = 2;

/// Seeds are globally unique, so every session's events differ.
fn seed_of(window_idx: u64, session_idx: u64) -> u64 {
    window_idx * 100 + session_idx + 1
}

#[test]
fn concurrent_ingest_compaction_and_queries_replay_offline() {
    let data = scratch("stress");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let dirs = StoreDirs::create(&data).unwrap();

    let done = Arc::new(AtomicBool::new(false));

    // Collectors: one thread per window, each streaming several
    // sessions back to back and reporting the session ids the daemon
    // assigned them.
    let collectors: Vec<_> = (0..WINDOWS.len() as u64)
        .map(|wi| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                (0..SESSIONS_PER_WINDOW)
                    .map(|si| {
                        let seed = seed_of(wi, si);
                        let mut sink =
                            SocketSink::connect(&addr, &format!("s{seed}"), WINDOWS[wi as usize])
                                .unwrap();
                        sink.attach("syms.txt", SYMS);
                        drive(&mut sink, seed, SEGS);
                        (sink.session().to_string(), seed)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // Query clients hammer the daemon throughout; errors are fine
    // early on (a window may not exist yet), panics and hangs are not.
    let query_clients: Vec<_> = (0..2)
        .map(|qi| {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let line = match qi {
                        0 => format!("stat {}", WINDOWS[(answered % 3) as usize]),
                        _ => "windows".to_string(),
                    };
                    if serve::query(&addr, &line).is_ok() {
                        answered += 1;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                answered
            })
        })
        .collect();

    // A watch client follows the first window; every pushed frame's
    // event total must be ≥ the one before it.
    let watch_total = Arc::new(AtomicU64::new(0));
    let watch_thread = {
        let addr = addr.clone();
        let watch_total = Arc::clone(&watch_total);
        std::thread::spawn(move || {
            let mut client = serve::watch(&addr, WINDOWS[0]).unwrap();
            let mut last = 0u64;
            let mut frames = 0u64;
            while let Ok(Some(frame)) = client.next_frame() {
                let total: u64 = frame
                    .lines()
                    .next()
                    .and_then(|h| h.rsplit(' ').next())
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| panic!("bad watch header in: {frame}"));
                assert!(
                    total >= last,
                    "watch total went backwards: {last} -> {total}"
                );
                last = total;
                frames += 1;
                watch_total.store(total, Ordering::SeqCst);
            }
            frames
        })
    };

    // Compaction loop, racing the collectors: each pass folds
    // whatever sealed since the last one.
    while !collectors.iter().all(|c| c.is_finished()) {
        serve::query(&addr, "compact").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let sessions: Vec<Vec<(String, u64)>> =
        collectors.into_iter().map(|c| c.join().unwrap()).collect();
    // A final pass folds whatever sealed after the last loop iteration.
    serve::query(&addr, "compact").unwrap();

    done.store(true, Ordering::SeqCst);
    for q in query_clients {
        assert!(q.join().unwrap() > 0, "query client never got an answer");
    }

    // Each window's packed store is one offline merge of its sessions'
    // bytes, regenerated from their seeds, in session-id order.
    let mut expected_total = 0;
    for (wi, window) in WINDOWS.iter().enumerate() {
        assert!(
            dirs.raw_segments(window).unwrap().is_empty(),
            "{window}: raw segments left after the final pass"
        );
        let mut ordered = sessions[wi].clone();
        ordered.sort();
        let inputs: Vec<StreamFile> = ordered
            .iter()
            .map(|(_, seed)| StreamFile::from_bytes(local_bytes(*seed, SEGS)).unwrap())
            .collect();
        let expected = merge_streams(&inputs).unwrap();
        assert_eq!(
            std::fs::read(dirs.packed_path(window)).unwrap(),
            expected,
            "{window}: daemon pack differs from the offline merge of its sessions"
        );
        if wi == 0 {
            let agg = aggregate_streams(&[StreamFile::from_bytes(expected).unwrap()]).unwrap();
            expected_total = agg.totals.iter().sum();
        }
    }

    // The watch client must converge on the true event total of its
    // window before shutdown (its last frame follows the final fold).
    assert!(expected_total > 0);
    wait_for("watch to observe the final event total", || {
        (watch_total.load(Ordering::SeqCst) == expected_total).then_some(())
    });

    server.shutdown();
    let frames = watch_thread.join().unwrap();
    assert!(frames >= 2, "watch saw only {frames} frames");
}
