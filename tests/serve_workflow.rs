//! End-to-end test of the always-on service binaries: an `mp-serve`
//! daemon on loopback, two concurrent `mp-collect --connect` runs
//! streaming into different windows, an on-demand compaction, and the
//! acceptance criterion of the service — query answers byte-identical
//! to the offline `mp-store` toolchain run on the compacted stores.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use memprof::minic::SymbolTable;
use memprof::profiler::analyze::{
    addr_rows, render_addr_rows, AddrBucket, Analysis, EC_LINE_BYTES, PAGE_BYTES,
};
use memprof::profiler::Experiment;
use memprof::store::{merge_streams, StreamFile};

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mp-serve")
}

fn collect_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mp-collect")
}

fn store_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mp-store")
}

fn workload_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads/particles.c")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mp_serve_wf_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A smaller workload for test speed; `n` varies per collector so the
/// two windows hold different profiles.
fn small_workload(dir: &std::path::Path, tag: &str, n: u64) -> std::path::PathBuf {
    let src = std::fs::read_to_string(workload_path())
        .unwrap()
        .replace("long n = 250000;", &format!("long n = {n};"));
    let p = dir.join(format!("particles_{tag}.c"));
    std::fs::write(&p, src).unwrap();
    p
}

/// Kills the daemon when the test ends, pass or fail.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_daemon(data: &std::path::Path) -> (DaemonGuard, String) {
    start_daemon_with(data, &[])
}

fn start_daemon_with(data: &std::path::Path, extra: &[&str]) -> (DaemonGuard, String) {
    let port_file = data.join("port");
    let child = Command::new(serve_bin())
        .args([
            "daemon",
            "--listen",
            "127.0.0.1:0",
            "--data",
            data.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mp-serve");
    let guard = DaemonGuard(child);
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if text.ends_with('\n') {
                break text.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (guard, addr)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn tool");
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tool output is UTF-8")
}

fn query(addr: &str, q: &[&str]) -> String {
    let mut cmd = Command::new(serve_bin());
    cmd.arg("query").arg(addr).args(q);
    run_ok(&mut cmd)
}

#[test]
fn daemon_serves_two_concurrent_collectors_and_matches_offline_tools() {
    let data = scratch("daemon");
    let (_daemon, addr) = start_daemon(&data);

    // Two collectors stream concurrently into different windows.
    let collectors: Vec<_> = [("wa", 60_000u64), ("wb", 40_000u64)]
        .into_iter()
        .map(|(window, n)| {
            let src = small_workload(&data, window, n);
            let addr = addr.clone();
            let window = window.to_string();
            std::thread::spawn(move || {
                let out = Command::new(collect_bin())
                    .args([
                        "--connect",
                        &addr,
                        "--window",
                        &window,
                        "-h",
                        "+ecstall,4001,+ecrm,101",
                        "-p",
                        "on",
                        "--period",
                        "4001",
                    ])
                    .arg(&src)
                    .output()
                    .expect("run mp-collect");
                assert!(
                    out.status.success(),
                    "mp-collect --connect failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            })
        })
        .collect();
    for c in collectors {
        c.join().unwrap();
    }

    // Both sessions landed as complete raw segments.
    let raw_count = |w: &str| {
        std::fs::read_dir(data.join("raw").join(w))
            .map(|d| d.count())
            .unwrap_or(0)
    };
    assert_eq!(raw_count("wa"), 1);
    assert_eq!(raw_count("wb"), 1);

    // Force compaction; both windows fold into packed stores.
    let report = query(&addr, &["compact"]);
    assert!(report.contains("compacted wa: 1 raw segments"), "{report}");
    assert!(report.contains("compacted wb: 1 raw segments"), "{report}");
    let packed_wa = data.join("packed").join("wa.mps");
    let packed_wb = data.join("packed").join("wb.mps");
    assert!(packed_wa.exists() && packed_wb.exists());

    // Acceptance criterion 1: the functions-view query is
    // byte-identical to offline `mp-store stat --json` on the
    // compacted store.
    let served = query(&addr, &["functions", "wa"]);
    let offline =
        run_ok(Command::new(store_bin()).args(["stat", "--json", packed_wa.to_str().unwrap()]));
    assert_eq!(served, offline, "functions query != mp-store stat --json");
    assert!(served.contains("\"functions\""), "no symbols resolved");

    // Acceptance criterion 2: the windowed diff matches `mp-store
    // diff` on the packed stores.
    let served_diff = query(&addr, &["diff", "wa", "wb"]);
    let offline_diff = run_ok(Command::new(store_bin()).args([
        "diff",
        packed_wa.to_str().unwrap(),
        packed_wb.to_str().unwrap(),
    ]));
    assert_eq!(served_diff, offline_diff, "diff query != mp-store diff");

    // The analyzer views answer over the compacted windows exactly
    // like `mp-er-print` over the unpacked store.
    let unpacked = data.join("wa-unpacked");
    run_ok(Command::new(store_bin()).args([
        "unpack",
        packed_wa.to_str().unwrap(),
        unpacked.to_str().unwrap(),
    ]));
    for (served_view, offline_view) in [
        ("objects", "data_objects"),
        ("segments", "segments"),
        ("lines", "lines"),
    ] {
        let served = query(&addr, &[served_view, "wa"]);
        let offline = run_ok(
            Command::new(env!("CARGO_BIN_EXE_mp-er-print"))
                .arg(&unpacked)
                .arg(offline_view),
        );
        assert_eq!(served, offline, "{served_view} query != mp-er-print");
        assert!(!served.trim().is_empty(), "empty {served_view} view");
    }

    // A second compaction pass has nothing to do.
    let report = query(&addr, &["compact"]);
    assert!(report.contains("nothing to compact"), "{report}");

    // Clean daemon shutdown through the protocol.
    assert_eq!(query(&addr, &["shutdown"]), "shutting down\n");
}

/// `mp-serve watch` follows a window live: one frame on subscribe
/// (empty window), another once a collector's session seals, clean
/// exit when the daemon shuts down. The daemon runs with the
/// connection-hygiene flags to prove they parse and serve.
#[test]
fn watch_subcommand_streams_frames_until_shutdown() {
    use std::io::BufRead as _;

    let data = scratch("watch");
    let (_daemon, addr) = start_daemon_with(&data, &["--max-conns", "64", "--idle-secs", "30"]);

    let mut watch = Command::new(serve_bin())
        .args(["watch", &addr, "wa"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mp-serve watch");
    let mut lines = std::io::BufReader::new(watch.stdout.take().unwrap()).lines();

    // First frame arrives before any data: the empty-window form.
    let mut first = String::new();
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line == "---" {
            break;
        }
        first.push_str(&line);
        first.push('\n');
    }
    assert!(
        first.contains("window wa generation") && first.contains("events 0"),
        "unexpected first frame: {first}"
    );

    // A collector session seals into the window; the next frame
    // carries its profile.
    let src = small_workload(&data, "wa", 40_000);
    let out = Command::new(collect_bin())
        .args([
            "--connect",
            &addr,
            "--window",
            "wa",
            "-h",
            "+ecstall,4001",
            "--period",
            "4001",
        ])
        .arg(&src)
        .output()
        .expect("run mp-collect");
    assert!(
        out.status.success(),
        "mp-collect --connect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut second = String::new();
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line == "---" {
            break;
        }
        second.push_str(&line);
        second.push('\n');
    }
    assert!(
        second.contains("window wa generation") && !second.contains("events 0"),
        "frame after seal still empty: {second}"
    );

    // Daemon shutdown ends the stream and the watch exits cleanly.
    assert_eq!(query(&addr, &["shutdown"]), "shutting down\n");
    let status = watch.wait().expect("wait for mp-serve watch");
    assert!(status.success(), "watch exited with {status}");
}

/// A recipe may name one counter twice (`cycles,1009,cycles,1009`).
/// The store's histograms fold identical counters into one column, and
/// the summary keeps those deduplicated columns, while the analyzer
/// keeps one column per counter. Served `objects` — with the default
/// and a named sort column — still equals `mp-er-print data_objects` on
/// the unpacked store, and `functions` equals `mp-store stat --json`.
#[test]
fn a_recipe_with_two_identical_counters_answers_like_the_offline_tools() {
    let data = scratch("twin_counters");
    let (_daemon, addr) = start_daemon(&data);
    let src = small_workload(&data, "wd", 40_000);
    run_ok(
        Command::new(collect_bin())
            .args([
                "--connect",
                &addr,
                "--window",
                "wd",
                "-h",
                "cycles,1009,cycles,1009",
                "-p",
                "on",
                "--period",
                "4001",
            ])
            .arg(&src),
    );
    let report = query(&addr, &["compact"]);
    assert!(report.contains("compacted wd: 1 raw segments"), "{report}");

    let packed = data.join("packed").join("wd.mps");
    let served = query(&addr, &["functions", "wd"]);
    let offline =
        run_ok(Command::new(store_bin()).args(["stat", "--json", packed.to_str().unwrap()]));
    assert_eq!(served, offline, "functions query != mp-store stat --json");
    assert_eq!(served.matches("\"title\": \"CPU Cycles\"").count(), 1);

    let unpacked = data.join("wd-unpacked");
    run_ok(Command::new(store_bin()).args([
        "unpack",
        packed.to_str().unwrap(),
        unpacked.to_str().unwrap(),
    ]));
    for sort in [None, Some("cycles"), Some("cpu")] {
        let mut served_query = vec!["objects", "wd"];
        let mut offline_cmd = Command::new(env!("CARGO_BIN_EXE_mp-er-print"));
        offline_cmd.arg(&unpacked).arg("data_objects");
        if let Some(col) = sort {
            served_query.push(col);
            offline_cmd.arg(col);
        }
        assert_eq!(
            query(&addr, &served_query),
            run_ok(&mut offline_cmd),
            "objects {sort:?}"
        );
    }
    assert_eq!(query(&addr, &["shutdown"]), "shutting down\n");
}

/// Windows collected with different recipes answer the cross-window
/// aggregate queries in the union of their columns, as the offline
/// tools do: `functions` over several windows (or all of them) equals
/// `mp-store stat --json` over their packed stores in window order,
/// and `stat` equals the `stat` text of `aggregate_streams` over those
/// stores. A window whose summary and fresh raw segment differ in
/// recipe answers their union too.
#[test]
fn windows_with_different_recipes_answer_like_the_offline_tools() {
    use memprof::serve::query::stat_text;
    use memprof::store::aggregate_streams;

    let data = scratch("mixed_recipes");
    let (_daemon, addr) = start_daemon(&data);
    let session = |window: &str, n: u64, recipe: &[&str]| {
        let src = small_workload(&data, &format!("{window}{n}"), n);
        run_ok(
            Command::new(collect_bin())
                .args(["--connect", &addr, "--window", window])
                .args(recipe)
                .arg(&src),
        );
    };
    let stall = [
        "-h",
        "+ecstall,4001,+ecrm,101",
        "-p",
        "on",
        "--period",
        "10007",
    ];
    let refs = ["-h", "+ecref,2003,+dtlbm,97", "-p", "off"];
    session("wa", 40_000, &stall);
    session("wb", 30_000, &refs);
    let report = query(&addr, &["compact"]);
    assert!(report.contains("compacted wa: 1 raw segments"), "{report}");
    assert!(report.contains("compacted wb: 1 raw segments"), "{report}");

    let packed = |w: &str| data.join("packed").join(format!("{w}.mps"));
    let offline_stat = |paths: &[std::path::PathBuf]| {
        run_ok(
            Command::new(store_bin())
                .args(["stat", "--json"])
                .args(paths),
        )
    };
    let both = [packed("wa"), packed("wb")];
    let offline = offline_stat(&both);
    assert_eq!(offline.matches("\"title\"").count(), 5, "{offline}");
    assert_eq!(query(&addr, &["functions", "wa", "wb"]), offline);
    assert_eq!(query(&addr, &["functions"]), offline);
    let streams: Vec<StreamFile> = both.iter().map(|p| StreamFile::open(p).unwrap()).collect();
    assert_eq!(
        query(&addr, &["stat", "wa", "wb"]),
        stat_text(&aggregate_streams(&streams).unwrap())
    );

    // A fresh session of the other recipe, not yet compacted: the
    // window answers its summary merged with the session's fold.
    session("wa", 30_000, &refs);
    let fresh: Vec<std::path::PathBuf> = std::fs::read_dir(data.join("raw").join("wa"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(fresh.len(), 1);
    assert_eq!(
        query(&addr, &["functions", "wa"]),
        offline_stat(&[packed("wa"), fresh[0].clone()])
    );

    // The address views fold both tiers into the union of their
    // columns too, where the merge compaction writes refuses two
    // recipes: each bucket holds the analyzer's events over both
    // experiments.
    let tiers = [packed("wa"), fresh[0].clone()];
    let exps: Vec<Experiment> = tiers
        .iter()
        .map(|p| StreamFile::open(p).unwrap().to_experiment().unwrap())
        .collect();
    let syms = window_syms(&tiers);
    let analysis = Analysis::new(&[&exps[0], &exps[1]], &syms);
    for (view, bucket, limit) in address_views("wa") {
        let rows = addr_rows(analysis.addr_map(bucket), limit);
        assert_eq!(
            query(&addr, &view),
            render_addr_rows(bucket, &rows),
            "{view:?}"
        );
    }
    let report = query(&addr, &["compact"]);
    assert!(
        report.contains("compact wa failed: incompatible experiments"),
        "{report}"
    );
    assert_eq!(query(&addr, &["shutdown"]), "shutting down\n");
}

/// The address-keyed queries on `window`, each with its bucket and row
/// limit: the default limit and the ones given.
fn address_views(window: &str) -> Vec<(Vec<&str>, AddrBucket, usize)> {
    let page = AddrBucket::Block(PAGE_BYTES);
    let line = AddrBucket::Block(EC_LINE_BYTES);
    vec![
        (vec!["segments", window], AddrBucket::Segment, usize::MAX),
        (vec!["pages", window], page, 10),
        (vec!["pages", window, "7"], page, 7),
        (vec!["lines", window], line, 10),
        (vec!["lines", window, "100000"], line, 100_000),
    ]
}

/// The symbol table of the first of `paths` that carries one.
fn window_syms(paths: &[std::path::PathBuf]) -> SymbolTable {
    let text = paths
        .iter()
        .find_map(|p| {
            let file = StreamFile::open(p).unwrap();
            file.attachment("syms.txt").map(str::to_string)
        })
        .expect("no tier carries a symbol table");
    SymbolTable::parse(&text).unwrap()
}

/// Window `window`'s address view the way the daemon once computed
/// it: decode the merge compaction writes — the packed store, then
/// the raw segments in file-name order — analyze it with the first
/// symbol table those files carry, and render the rows.
fn decoded_view(data: &std::path::Path, window: &str, bucket: AddrBucket, limit: usize) -> String {
    let packed = data.join("packed").join(format!("{window}.mps"));
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(data.join("raw").join(window))
        .map(|dir| dir.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    paths.retain(|p| p.extension().is_some_and(|x| x == "mpes"));
    paths.sort();
    if packed.exists() {
        paths.insert(0, packed);
    }
    let inputs: Vec<StreamFile> = paths.iter().map(|p| StreamFile::open(p).unwrap()).collect();
    let merged = StreamFile::from_bytes(merge_streams(&inputs).unwrap()).unwrap();
    let exp = merged.to_experiment().unwrap();
    let syms = window_syms(&paths);
    let analysis = Analysis::new(&[&exp], &syms);
    render_addr_rows(bucket, &addr_rows(analysis.addr_map(bucket), limit))
}

/// Served `segments`, `pages N` and `lines N` fold the window's tier
/// files without decoding them into an experiment. On a window with
/// raw segments only, one with a packed store only, and one with a
/// packed store and a fresh raw segment, each answers byte for byte
/// what analyzing the decoded merge of those files renders.
#[test]
fn address_views_answer_like_the_decoded_merge() {
    let data = scratch("address_views");
    let (_daemon, addr) = start_daemon(&data);
    let session = |n: u64| {
        let src = small_workload(&data, &format!("wv{n}"), n);
        run_ok(
            Command::new(collect_bin())
                .args(["--connect", &addr, "--window", "wv"])
                .args(["-h", "+ecstall,997,+ecref,211", "-p", "on"])
                .args(["--period", "4001"])
                .arg(&src),
        );
    };
    let check = |stage: &str| {
        for (view, bucket, limit) in address_views("wv") {
            let served = query(&addr, &view);
            assert_eq!(
                served,
                decoded_view(&data, "wv", bucket, limit),
                "{stage}: {view:?}"
            );
            assert!(
                served.lines().count() > 1 || view[0] == "segments",
                "{stage}: {view:?}"
            );
        }
    };
    session(40_000);
    session(30_000);
    check("raw segments only");
    let report = query(&addr, &["compact"]);
    assert!(report.contains("compacted wv: 2 raw segments"), "{report}");
    check("packed store only");
    session(20_000);
    check("packed store and a fresh raw segment");
    assert_eq!(query(&addr, &["shutdown"]), "shutting down\n");
}
