//! `bench_gate` — compare a fresh `CRITERION_JSON` emission against a
//! checked-in baseline and fail on perf regressions.
//!
//! ```text
//! bench_gate BASELINE.json CURRENT.json [--threshold X]
//! ```
//!
//! Each file is a JSON array of `{"name", "mean_ns", ...}` records as
//! written by the vendored criterion harness. For every benchmark
//! present in both files, the gate computes `current / baseline` on
//! the mean and fails (exit 1) if any ratio exceeds the threshold.
//! The default threshold of 4.0 is deliberately generous: CI machines
//! differ wildly from the machine that recorded the baseline, so the
//! gate exists to catch algorithmic regressions (an accidental
//! O(n^2)), not percent-level noise. Benchmarks present on only one
//! side are reported but don't fail the gate — the bench set is
//! allowed to grow.

use std::process::exit;

/// One `(name, mean_ns)` record from a results file.
type Record = (String, f64);

/// Parse the harness's emission format: an array of flat objects with
/// string and number fields. Tolerates whitespace differences but not
/// nested structure — which the emitter never produces.
fn parse_results(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, chunk) in text.split('{').skip(1).enumerate() {
        let body = chunk
            .split('}')
            .next()
            .ok_or_else(|| format!("record {i}: unterminated object"))?;
        let name = field_str(body, "name").ok_or_else(|| format!("record {i}: no name"))?;
        let mean = field_num(body, "mean_ns").ok_or_else(|| format!("record {i}: no mean_ns"))?;
        records.push((name, mean));
    }
    if records.is_empty() {
        return Err("no benchmark records found".to_string());
    }
    Ok(records)
}

fn field_str(body: &str, key: &str) -> Option<String> {
    let tail = body.split(&format!("\"{key}\"")).nth(1)?;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let tail = tail.strip_prefix('"')?;
    // Names are escaped with backslashes only for quote/backslash.
    let mut out = String::new();
    let mut chars = tail.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

fn field_num(body: &str, key: &str) -> Option<f64> {
    let tail = body.split(&format!("\"{key}\"")).nth(1)?;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn load(path: &str) -> Vec<Record> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        exit(1)
    });
    parse_results(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path}: {e}");
        exit(1)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 4.0f64;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            threshold = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|t: &f64| *t > 1.0)
                .unwrap_or_else(|| {
                    eprintln!("bench_gate: --threshold needs a value > 1");
                    exit(2)
                });
        } else {
            files.push(a.clone());
        }
    }
    let [baseline_path, current_path] = &files[..] else {
        eprintln!("usage: bench_gate BASELINE.json CURRENT.json [--threshold X]");
        exit(2)
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (name, base_mean) in &baseline {
        let Some((_, cur_mean)) = current.iter().find(|(n, _)| n == name) else {
            println!("  gone     {name} (in baseline only)");
            continue;
        };
        compared += 1;
        let ratio = cur_mean / base_mean;
        let verdict = if ratio > threshold {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {verdict:<9} {name}: {base_mean:.0} ns -> {cur_mean:.0} ns ({ratio:.2}x)");
    }
    for (name, _) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("  new      {name} (no baseline yet)");
        }
    }
    println!(
        "bench_gate: {compared} compared, {regressions} regressed (threshold {threshold:.1}x)"
    );
    if regressions > 0 {
        exit(1);
    }
}
