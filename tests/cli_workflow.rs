//! End-to-end test of the command-line tools: `mp-collect` writes an
//! experiment bundle, `mp-er-print` analyzes it standalone — the
//! paper's two-command user model.

use std::process::Command;

fn collect_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mp-collect")
}

fn er_print_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mp-er-print")
}

fn workload_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads/particles.c")
}

fn temp_exp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mp_cli_{}_{tag}", std::process::id()))
}

/// A smaller workload for test speed.
fn small_workload(dir: &std::path::Path) -> std::path::PathBuf {
    let src = std::fs::read_to_string(workload_path())
        .unwrap()
        .replace("long n = 250000;", "long n = 60000;");
    let p = dir.join("particles_small.c");
    std::fs::write(&p, src).unwrap();
    p
}

#[test]
fn collect_then_er_print() {
    let exp = temp_exp_dir("main");
    let _ = std::fs::remove_dir_all(&exp);
    std::fs::create_dir_all(&exp).unwrap();
    let src = small_workload(&exp);

    // mp-collect
    let out = Command::new(collect_bin())
        .args([
            "-o",
            exp.to_str().unwrap(),
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
        "mp-collect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in [
        "log",
        "counters",
        "hwcdata",
        "clockdata",
        "run",
        "image.txt",
        "syms.txt",
    ] {
        assert!(exp.join(file).exists(), "missing {file}");
    }

    // mp-er-print views.
    let run_view = |args: &[&str]| -> String {
        let out = Command::new(er_print_bin())
            .arg(exp.to_str().unwrap())
            .args(args)
            .output()
            .expect("run mp-er-print");
        assert!(
            out.status.success(),
            "mp-er-print {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let functions = run_view(&["functions", "cpu"]);
    assert!(functions.contains("<Total>"), "{functions}");
    assert!(functions.contains("main"), "{functions}");

    let objects = run_view(&["data_objects", "ecstall"]);
    assert!(objects.contains("{structure:particle -}"), "{objects}");

    let expansion = run_view(&["struct", "particle"]);
    assert!(expansion.contains("+16 {long vx}"), "{expansion}");

    let disasm = run_view(&["disasm", "main"]);
    assert!(disasm.contains("ldx"), "{disasm}");
    assert!(disasm.contains("{structure:particle -}"), "{disasm}");

    let source = run_view(&["source", "main"]);
    assert!(source.contains("p->x = p->x + p->vx;"), "{source}");

    let eff = run_view(&["effectiveness"]);
    assert!(eff.contains("% effective"), "{eff}");

    let header = run_view(&["header"]);
    assert!(header.contains("collect start"), "{header}");

    let segments = run_view(&["segments"]);
    assert!(segments.contains("heap"), "{segments}");

    std::fs::remove_dir_all(&exp).ok();
}

#[test]
fn collect_with_no_args_lists_counters() {
    let out = Command::new(collect_bin()).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["ecstall", "ecrm", "ecref", "dtlbm", "cycles"] {
        assert!(text.contains(name), "missing counter {name} in: {text}");
    }
}

/// Run `cmd` to completion, failing the test if it is still running
/// after `limit`.
fn exit_within(mut cmd: Command, limit: std::time::Duration) -> std::process::Output {
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let start = std::time::Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            child.wait().ok();
            panic!("{cmd:?} still running after {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn zero_clock_period_is_a_usage_error() {
    let dir = temp_exp_dir("zero_period");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stream = dir.join("run.mpes");
    let limit = std::time::Duration::from_secs(10);

    let mut collect = Command::new(collect_bin());
    collect
        .args([
            "--stream",
            stream.to_str().unwrap(),
            "-p",
            "on",
            "--period",
            "0",
        ])
        .arg(workload_path());
    let out = exit_within(collect, limit);
    assert_eq!(out.status.code(), Some(2), "usage error expected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--period"));
    assert!(!stream.exists(), "no stream may be written");

    let mut opt = Command::new(env!("CARGO_BIN_EXE_mp-opt"));
    opt.arg(workload_path()).args(["--clock-period", "0"]);
    let out = exit_within(opt, limit);
    assert_eq!(out.status.code(), Some(2), "usage error expected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--clock-period"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn er_print_rejects_bad_input() {
    let out = Command::new(er_print_bin())
        .args(["functions"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "must fail without an experiment dir");

    let exp = temp_exp_dir("bad");
    let _ = std::fs::remove_dir_all(&exp);
    std::fs::create_dir_all(&exp).unwrap();
    let out = Command::new(er_print_bin())
        .args([exp.to_str().unwrap(), "functions"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "must fail on an empty experiment dir"
    );
    std::fs::remove_dir_all(&exp).ok();
}

/// A reader that stops early (`mp-er-print DIR lines N | head -1`)
/// ends the tool quietly: exit status 0 and no panic on stderr. The
/// view is larger than a pipe buffer, so the tool is still writing
/// when the pipe closes and always meets the broken pipe.
#[test]
fn a_reader_that_stops_early_ends_the_tool_quietly() {
    use std::io::BufRead as _;
    use std::process::Stdio;

    let exp = temp_exp_dir("pipe");
    let _ = std::fs::remove_dir_all(&exp);
    std::fs::create_dir_all(&exp).unwrap();
    let src = small_workload(&exp);
    let out = Command::new(collect_bin())
        .args(["-o", exp.to_str().unwrap(), "-h", "+ecref,11"])
        .arg(&src)
        .output()
        .expect("run mp-collect");
    assert!(
        out.status.success(),
        "mp-collect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let whole = Command::new(er_print_bin())
        .arg(&exp)
        .args(["lines", "100000"])
        .output()
        .expect("run mp-er-print");
    assert!(whole.stdout.len() > 128 * 1024, "{}", whole.stdout.len());

    let mut child = Command::new(er_print_bin())
        .arg(&exp)
        .args(["lines", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mp-er-print");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.ends_with(" events\n"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    let _ = std::fs::remove_dir_all(&exp);
}
