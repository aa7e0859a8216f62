//! `mp-collect` — the `collect` command (§2.2) for mini-C programs.
//!
//! ```text
//! mp-collect -o EXPDIR [options] SOURCE.c [SOURCE2.c ...]
//! mp-collect --stream OUT.mpes [options] SOURCE.c [SOURCE2.c ...]
//! mp-collect --connect ADDR [options] SOURCE.c [SOURCE2.c ...]
//!
//!   -o DIR            experiment directory to write
//!   --stream FILE     stream events into a packed store file instead
//!                     of buffering the run in memory (exactly one of
//!                     -o / --stream / --connect is required)
//!   --connect ADDR    stream events into a live mp-serve daemon at
//!                     host:port instead of a local file
//!   --session NAME    session label sent to the daemon (default:
//!                     first source file's stem)
//!   --window LABEL    time window the daemon lands the run in
//!                     (default "default")
//!   --spill N         streaming spill threshold in buffered events
//!                     (default 8192)
//!   -h SPEC           counters, e.g. "+ecstall,lo,+ecrm,on" or
//!                     "+ecrm,101" (up to two, '+' = backtracking)
//!   -p on|off         clock profiling (default on)
//!   --period N        clock period in cycles, at least 1 (default 100003)
//!   --machine paper|default
//!                     memory-hierarchy config (default: default)
//!   --max-insns N     instruction budget (default 2e9)
//! ```
//!
//! Like the real tool run with no `-h`, `mp-collect` with no
//! arguments prints the available counters.
//!
//! The experiment directory additionally receives `image.txt` and
//! `syms.txt` (the executable and its symbol tables) so `mp-er-print`
//! can analyze it standalone.

use std::path::PathBuf;
use std::process::exit;

use memprof::machine::{CounterEvent, Machine, MachineConfig};
use memprof::minic::{compile_and_link, CompileOptions};
use memprof::outln;
use memprof::profiler::{collect, collect_stream, parse_counter_spec, CollectConfig, StreamConfig};
use memprof::serve::SocketSink;
use memprof::store::SegmentWriter;

fn print_counters() {
    outln!("Available counters (prefix with `+` for apropos backtracking):");
    for e in CounterEvent::ALL {
        outln!(
            "  {:<9} {:<24} registers {:?}{}",
            e.name(),
            e.title(),
            e.allowed_slots(),
            if e.is_memory_event() {
                "  [memory]"
            } else {
                ""
            }
        );
    }
    outln!("Intervals: hi | on | lo | <number>  (e.g. -h +ecstall,lo,+ecrm,on)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_counters();
        return;
    }

    let mut out_dir: Option<PathBuf> = None;
    let mut stream_out: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut session: Option<String> = None;
    let mut window = "default".to_string();
    let mut spill_events = StreamConfig::default().spill_events;
    let mut spec = String::new();
    let mut clock = true;
    let mut period = 100_003u64;
    let mut machine_kind = "default".to_string();
    let mut max_insns = 2_000_000_000u64;
    let mut sources: Vec<PathBuf> = Vec::new();

    let mut i = 0;
    let usage = |msg: &str| -> ! {
        eprintln!("mp-collect: {msg}\nrun with no arguments for counter help");
        exit(2)
    };
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage("-o needs a value")),
                ));
            }
            "--stream" => {
                i += 1;
                stream_out = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| usage("--stream needs a value")),
                ));
            }
            "--connect" => {
                i += 1;
                connect = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--connect needs a value"))
                        .clone(),
                );
            }
            "--session" => {
                i += 1;
                session = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--session needs a value"))
                        .clone(),
                );
            }
            "--window" => {
                i += 1;
                window = args
                    .get(i)
                    .unwrap_or_else(|| usage("--window needs a value"))
                    .clone();
            }
            "--spill" => {
                i += 1;
                spill_events = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage("bad --spill"));
            }
            "-h" => {
                i += 1;
                spec = args
                    .get(i)
                    .unwrap_or_else(|| usage("-h needs a value"))
                    .clone();
            }
            "-p" => {
                i += 1;
                clock = match args.get(i).map(String::as_str) {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage("-p takes on|off"),
                };
            }
            "--period" => {
                i += 1;
                period = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| usage("bad --period (cycles, at least 1)"));
            }
            "--machine" => {
                i += 1;
                machine_kind = args
                    .get(i)
                    .unwrap_or_else(|| usage("--machine needs a value"))
                    .clone();
            }
            "--max-insns" => {
                i += 1;
                max_insns = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --max-insns"));
            }
            other if other.starts_with('-') => usage(&format!("unknown option {other}")),
            src => sources.push(PathBuf::from(src)),
        }
        i += 1;
    }
    let sinks = [out_dir.is_some(), stream_out.is_some(), connect.is_some()];
    if sinks.iter().filter(|&&b| b).count() != 1 {
        usage("exactly one of -o EXPDIR / --stream FILE / --connect ADDR is required");
    }
    if sources.is_empty() {
        usage("no source files given");
    }

    // Compile with -xhwcprof -xdebugformat=dwarf.
    let mut named: Vec<(String, String)> = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("mp-collect: cannot read {}: {e}", path.display());
            exit(1)
        });
        named.push((
            path.file_name().unwrap().to_string_lossy().to_string(),
            text,
        ));
    }
    let refs: Vec<(&str, &str)> = named
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let program = compile_and_link(&refs, CompileOptions::profiling()).unwrap_or_else(|e| {
        eprintln!("mp-collect: {e}");
        exit(1)
    });

    // Collect.
    let counters = if spec.is_empty() {
        vec![]
    } else {
        parse_counter_spec(&spec).unwrap_or_else(|e| {
            eprintln!("mp-collect: {e}");
            exit(1)
        })
    };
    let config = CollectConfig {
        counters,
        clock_profiling: clock,
        clock_period_cycles: period,
        max_insns,
    };
    let machine_config = match machine_kind.as_str() {
        "paper" => memprof::mcf::paper_machine_config(),
        "default" => MachineConfig::default(),
        other => usage(&format!("unknown machine `{other}`")),
    };
    let mut machine = Machine::new(machine_config);
    machine.load(&program.image);

    if let Some(addr) = connect {
        // Network mode: the run streams into a live mp-serve daemon.
        // Same spill behavior as --stream; each spilled chunk ships
        // as one wire frame.
        let session = session.unwrap_or_else(|| {
            sources[0]
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| "session".to_string())
        });
        let mut sink = SocketSink::connect(&addr, &session, &window).unwrap_or_else(|e| {
            eprintln!("mp-collect: cannot connect to {addr}: {e}");
            exit(1)
        });
        sink.attach("image.txt", &program.image.to_text());
        sink.attach("syms.txt", &program.syms.to_text());
        let stream = StreamConfig { spill_events };
        let stats = collect_stream(&mut machine, &config, &stream, &mut sink).unwrap_or_else(|e| {
            eprintln!("mp-collect: {e}");
            exit(1)
        });
        eprintln!(
            "mp-collect: {} hwc events, {} clock ticks, {} bytes -> {addr} \
             (session {}, window {window})",
            stats.hwc_events,
            stats.clock_events,
            stats.bytes_written,
            sink.session()
        );
    } else if let Some(out_file) = stream_out {
        // Streaming mode: events spill into the packed store as the
        // run progresses; peak memory is bounded by --spill.
        let mut writer = SegmentWriter::create(&out_file).unwrap_or_else(|e| {
            eprintln!("mp-collect: cannot create {}: {e}", out_file.display());
            exit(1)
        });
        writer.attach("image.txt", &program.image.to_text());
        writer.attach("syms.txt", &program.syms.to_text());
        let stream = StreamConfig { spill_events };
        let stats =
            collect_stream(&mut machine, &config, &stream, &mut writer).unwrap_or_else(|e| {
                eprintln!("mp-collect: {e}");
                exit(1)
            });
        eprintln!(
            "mp-collect: {} hwc events, {} clock ticks, {} stacks ({:.1}% intern hits), \
             {} segments spilled, peak {} buffered, {} bytes -> {}",
            stats.hwc_events,
            stats.clock_events,
            stats.distinct_stacks,
            stats.intern_hit_rate_pct(),
            stats.segments_spilled,
            stats.peak_buffered_events,
            stats.bytes_written,
            out_file.display()
        );
    } else {
        let out_dir = out_dir.unwrap();
        let experiment = collect(&mut machine, &config).unwrap_or_else(|e| {
            eprintln!("mp-collect: {e}");
            exit(1)
        });

        // Persist the experiment bundle.
        experiment.save(&out_dir).unwrap_or_else(|e| {
            eprintln!("mp-collect: cannot write experiment: {e}");
            exit(1)
        });
        program.image.save(&out_dir.join("image.txt")).unwrap();
        program.syms.save(&out_dir.join("syms.txt")).unwrap();

        eprintln!(
            "mp-collect: {} hwc events, {} clock ticks, exit {} -> {}",
            experiment.hwc_events.len(),
            experiment.clock_events.len(),
            experiment.run.exit_code,
            out_dir.display()
        );
    }
}
