//! `mp-serve` — the always-on profiling aggregation service.
//!
//! ```text
//! mp-serve daemon --data DIR [--listen ADDR] [--compact-secs N]
//!          [--idle-secs N] [--max-conns N]
//!          [--retain-raw-windows N] [--retain-age SECS] [--port-file P]
//! mp-serve query ADDR QUERY...
//! mp-serve watch ADDR WINDOW
//! ```
//!
//! The daemon accepts collector sessions (`mp-collect --connect`),
//! queries, and watch subscriptions on one TCP listener. `--listen`
//! defaults to `127.0.0.1:7807`; `--listen 127.0.0.1:0` picks a free
//! port and `--port-file` writes the resolved `host:port` for scripts
//! to read. `--compact-secs N` folds sealed raw segments into packed
//! stores every N seconds; without it, compaction runs only on an
//! explicit `compact` query. Compaction keeps each window's summary,
//! from which `functions`, `stat`, `diff` and `objects` answer without
//! opening the packed store; `segments`, `pages` and `lines` count
//! effective addresses from the chunks of the packed store and the
//! fresh raw segments on every query.
//!
//! `--idle-secs N` (default 300, 0 disables) drops a connection that
//! sends nothing for N seconds, sealing whatever readable prefix its
//! session already landed — exactly as a disconnect would.
//! `--max-conns N` (default 256, 0 removes the cap) sheds connections
//! past the cap with an error frame instead of spawning handler
//! threads without bound.
//!
//! `--retain-raw-windows N` keeps raw segments only in the N most
//! recently active windows; `--retain-age SECS` ages out raw tiers
//! idle longer than SECS. Both age a window out by *compacting* it —
//! raw segments are folded durably into the packed store before
//! deletion, so an aged-out window still answers every query.
//!
//! `query` sends one query line (the remaining arguments, joined) and
//! prints the result. See `memprof_serve::query` for the grammar.
//! `watch` subscribes to a window and prints a summary frame now and
//! on every change (new session sealed, compaction, retention) until
//! interrupted or the daemon shuts down.

use std::path::PathBuf;
use std::process::exit;

use memprof::serve::{self, RetentionPolicy, Server, ServerConfig};
use memprof::{out, outln};

fn usage(msg: &str) -> ! {
    eprintln!(
        "mp-serve: {msg}\n\
         usage: mp-serve daemon --data DIR [--listen ADDR] [--compact-secs N]\n\
         \x20        [--idle-secs N] [--max-conns N]\n\
         \x20        [--retain-raw-windows N] [--retain-age SECS] [--port-file P]\n\
         \x20      mp-serve query ADDR QUERY...\n\
         \x20      mp-serve watch ADDR WINDOW"
    );
    exit(2)
}

fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("mp-serve: {what}: {err}");
    exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => {
            let mut listen = "127.0.0.1:7807".to_string();
            let mut data: Option<PathBuf> = None;
            let mut compact_secs = None;
            let mut idle_secs = None;
            let mut max_conns = None;
            let mut retention = RetentionPolicy::default();
            let mut port_file: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut value = |name: &str| -> String {
                    it.next()
                        .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                        .clone()
                };
                fn parsed<T: std::str::FromStr>(name: &str, raw: String) -> T {
                    raw.parse()
                        .unwrap_or_else(|_| usage(&format!("bad {name}")))
                }
                match arg.as_str() {
                    "--listen" => listen = value("--listen"),
                    "--data" => data = Some(PathBuf::from(value("--data"))),
                    "--compact-secs" => {
                        compact_secs = Some(parsed("--compact-secs", value("--compact-secs")))
                    }
                    "--idle-secs" => idle_secs = Some(parsed("--idle-secs", value("--idle-secs"))),
                    "--max-conns" => max_conns = Some(parsed("--max-conns", value("--max-conns"))),
                    "--retain-raw-windows" => {
                        retention.raw_windows = Some(parsed(
                            "--retain-raw-windows",
                            value("--retain-raw-windows"),
                        ))
                    }
                    "--retain-age" => {
                        retention.age_secs = Some(parsed("--retain-age", value("--retain-age")))
                    }
                    "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
                    other => usage(&format!("unknown daemon flag `{other}`")),
                }
            }
            let data = data.unwrap_or_else(|| usage("daemon needs --data DIR"));
            let config = ServerConfig {
                compact_secs,
                idle_secs,
                max_conns,
                retention,
            };
            let server = Server::start(&listen, &data, config)
                .unwrap_or_else(|e| fail(&format!("cannot listen on {listen}"), e));
            eprintln!(
                "mp-serve: listening on {}, data in {}",
                server.addr(),
                data.display()
            );
            if let Some(pf) = port_file {
                std::fs::write(&pf, format!("{}\n", server.addr()))
                    .unwrap_or_else(|e| fail(&format!("cannot write {}", pf.display()), e));
            }
            server.run();
        }
        Some("query") => {
            if args.len() < 3 {
                usage("query ADDR QUERY...");
            }
            let addr = &args[1];
            let line = args[2..].join(" ");
            match serve::query(addr, &line) {
                Ok(text) => out!("{text}"),
                Err(e) => fail("query failed", e),
            }
        }
        Some("watch") => {
            if args.len() != 3 {
                usage("watch ADDR WINDOW");
            }
            let mut client =
                serve::watch(&args[1], &args[2]).unwrap_or_else(|e| fail("cannot subscribe", e));
            loop {
                match client.next_frame() {
                    Ok(Some(frame)) => {
                        out!("{frame}");
                        outln!("---");
                    }
                    Ok(None) => break, // daemon shut down
                    Err(e) => fail("watch failed", e),
                }
            }
        }
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("no command given"),
    }
}
