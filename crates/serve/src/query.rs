//! The query layer: answer analyzer-view requests from the tiered
//! store.
//!
//! One query is one UTF-8 line. Grammar:
//!
//! ```text
//! windows                      list windows and their tier state
//! functions [W...]             per-function aggregate as JSON
//!                              (byte-identical to `mp-store stat --json`
//!                              on the windows' packed stores)
//! stat [W...]                  aggregate totals + per-PC histogram
//! diff WA WB                   per-function sample movement between
//!                              two windows (byte-identical to
//!                              `mp-store diff` on the packed stores)
//! objects W [COL]              §3 data-object view
//! segments W                   §4 memory-segment view
//! pages W [N]                  hottest 8 KiB pages
//! lines W [N]                  hottest 512 B E$ lines
//! compact                      fold sealed raw segments now
//! shutdown                     stop the daemon
//! ```
//!
//! A usage error (an unknown query or window, a bad argument) comes
//! back as its message alone; aggregation sizes its parallelism to
//! the available cores.
//!
//! `W` is a window label; views default to *all* windows where the
//! grammar allows. Aggregate queries are served tier-first: a
//! compacted window answers from its summary (tier 2), which
//! round-trips the aggregate exactly, so the answer is byte-identical
//! to re-aggregating the packed store; uncompacted raw segments are
//! aggregated on the fly and merged in. A window whose raw tier still
//! holds stale leftovers — segments a pass folded into the packed
//! store but crashed before deleting — may also hold that pass's
//! predecessor's summary, so it answers from the packed store
//! instead. Analyzer views (`objects`, `segments`, `pages`, `lines`)
//! need the whole merged experiment: a compacted window whose merge
//! the [`CompactCache`] still holds — and whose packed store still
//! hashes to it — answers from memory, anything else decodes the
//! packed store and raw segments.
//!
//! Locking: each store-reading arm takes the *shared* registry lock
//! of exactly the windows it resolves — in sorted label order when
//! there are several ([`WindowRegistry::read_windows`]) — for only as
//! long as it reads. A query against window A therefore completes
//! while window B is mid-compaction; only a query *on the compacting
//! window itself* waits.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use memprof_core::analyze::Analysis;
use memprof_core::Experiment;
use memprof_store::{
    aggregate_refs, aggregate_streams, attached_syms, diff_aggregates, merge_experiments_with,
    Aggregate, EventStream, ExperimentRef, StoreError,
};
use simsparc_machine::CounterEvent;

use crate::compact::{packed_hash_is, CompactCache};
use crate::registry::WindowRegistry;
use crate::store::{valid_label, StoreDirs};
use crate::summary::read_summary;

/// What the server should do with a parsed query.
pub enum QueryOutcome {
    /// Answered from the store; reply with RESULT carrying this text.
    Text(String),
    /// Run a compaction pass and reply with its report.
    Compact,
    /// Acknowledge and stop the daemon.
    Shutdown,
}

/// A usage error, rendered as its message alone.
fn bad(msg: impl Into<String>) -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        msg.into(),
    ))
}

fn checked_label<'a>(dirs: &StoreDirs, w: &'a str) -> Result<&'a str, StoreError> {
    if !valid_label(w) {
        return Err(bad(format!("bad window label `{w}`")));
    }
    if !dirs.raw_dir(w).exists() && !dirs.packed_path(w).exists() && !dirs.summary_path(w).exists()
    {
        return Err(bad(format!("unknown window `{w}`")));
    }
    Ok(w)
}

/// The aggregate of everything landed in a window, tier-first: the
/// summary (or, lacking one, the packed store) plus any raw segments
/// not yet compacted. Raw segments an interrupted compaction already
/// folded into the packed store (hash-valid manifest entries) are
/// skipped — counting them again would double every sample they hold.
/// Their presence also means that pass may have crashed before writing
/// its summary, so the summary is trusted only when there are none.
pub fn window_aggregate(dirs: &StoreDirs, window: &str) -> Result<Aggregate, StoreError> {
    let mut parts: Vec<Aggregate> = Vec::new();
    let tier = dirs.live_raw_segments(window)?;
    let summary = dirs.summary_path(window);
    if tier.stale.is_empty() && summary.exists() {
        parts.push(read_summary(&summary)?);
    } else if let Some(store) = dirs.open_packed(window)? {
        parts.push(aggregate_streams(&[EventStream::Stream(store)], 0)?);
    }
    if !tier.fresh.is_empty() {
        let refs = tier
            .fresh
            .iter()
            .map(|p| ExperimentRef::open(p))
            .collect::<Result<Vec<ExperimentRef>, StoreError>>()?;
        parts.push(aggregate_refs(&refs, 0)?);
    }
    let mut parts = parts.into_iter();
    let mut agg = parts
        .next()
        .ok_or_else(|| bad(format!("window `{window}` has no data")))?;
    for p in parts {
        agg.merge(&p)?;
    }
    Ok(agg)
}

/// The window's symbol table, from the packed store's attachments or
/// the first raw segment that carries one. `Ok(None)` means no tier
/// carries a table; a store that exists but cannot be read — a packed
/// tier without its footer included ([`StoreDirs::open_packed`]) — is
/// an error naming it, never a silently missing table. A raw segment
/// without a footer is just an interrupted run.
pub fn window_syms(
    dirs: &StoreDirs,
    window: &str,
) -> Result<Option<minic::SymbolTable>, StoreError> {
    if let Some(store) = dirs.open_packed(window)? {
        if let Some(syms) = attached_syms(store.attachments(), &dirs.packed_path(window))? {
            return Ok(Some(syms));
        }
    }
    for raw in dirs.live_raw_segments(window)?.fresh {
        if let Some(syms) = ExperimentRef::Packed(raw).read_syms()? {
            return Ok(Some(syms));
        }
    }
    Ok(None)
}

/// The symbol table of the first of `windows` that carries one.
fn first_syms<'a>(
    dirs: &StoreDirs,
    windows: impl IntoIterator<Item = &'a str>,
) -> Result<Option<minic::SymbolTable>, StoreError> {
    for w in windows {
        if let Some(syms) = window_syms(dirs, w)? {
            return Ok(Some(syms));
        }
    }
    Ok(None)
}

/// Materialize a window as one merged [`Experiment`] from disk — the
/// packed store, then the `fresh` raw segments in file-name order, the
/// input order compaction uses.
fn window_experiment(
    dirs: &StoreDirs,
    window: &str,
    fresh: Vec<PathBuf>,
) -> Result<Experiment, StoreError> {
    let mut seeds = Vec::new();
    if let Some(store) = dirs.open_packed(window)? {
        seeds.push(store.to_experiment()?);
    }
    if seeds.is_empty() && fresh.is_empty() {
        return Err(bad(format!("window `{window}` has no data")));
    }
    let refs = fresh
        .iter()
        .map(|p| ExperimentRef::open(p))
        .collect::<Result<Vec<ExperimentRef>, StoreError>>()?;
    merge_experiments_with(seeds, &refs, 0)
}

/// What an analyzer view reads: a window's merged experiment and its
/// symbol table.
///
/// A compacted window — no fresh raw segments — whose merge the
/// [`CompactCache`] still holds answers from memory, provided the
/// packed store on disk hashes to the cached entry's fingerprint: the
/// full-file check makes the cached experiment exactly as trustworthy
/// as a checksummed read of the store, and packing is lossless, so
/// the answer is byte-identical to the disk path. Anything else (fresh
/// raws, an uncached window, a store replaced behind the daemon)
/// decodes the window from disk. Callers hold the window's shared
/// lock and must drop the returned `Arc` before releasing it.
fn window_view(
    dirs: &StoreDirs,
    cache: &Mutex<CompactCache>,
    window: &str,
) -> Result<(Arc<Experiment>, minic::SymbolTable), StoreError> {
    let fresh = dirs.live_raw_segments(window)?.fresh;
    let packed = dirs.packed_path(window);
    let cached = if fresh.is_empty() {
        cache.lock().unwrap().view(window)
    } else {
        None
    };
    let hit = cached.filter(|c| packed_hash_is(&packed, c.packed_hash));
    cache.lock().unwrap().record_view(hit.is_some());
    let (exp, syms) = match hit {
        Some(c) => (c.merged, attached_syms(&c.attachments, &packed)?),
        None => (
            Arc::new(window_experiment(dirs, window, fresh)?),
            window_syms(dirs, window)?,
        ),
    };
    Ok((exp, syms.ok_or_else(|| bad("window has no symbol table"))?))
}

/// Answer one analyzer-view query on `window`: resolve the window
/// under its shared lock, reduce it, and render.
fn view_answer(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    cache: &Mutex<CompactCache>,
    window: &str,
    render: impl FnOnce(&Analysis<'_>) -> Result<String, StoreError>,
) -> Result<QueryOutcome, StoreError> {
    let window = checked_label(dirs, window)?;
    let _guard = registry.state(window).lock_shared();
    let (exp, syms) = window_view(dirs, cache, window)?;
    let text = render(&Analysis::new(&[&*exp], &syms));
    // Release the (possibly cached) experiment before the shared lock,
    // so a compaction waiting on the exclusive lock finds itself its
    // sole owner.
    drop(exp);
    Ok(QueryOutcome::Text(text?))
}

/// Resolve the window arguments of an aggregate query: explicit
/// labels, or every known window when none are given.
fn resolve_windows(dirs: &StoreDirs, args: &[&str]) -> Result<Vec<String>, StoreError> {
    if args.is_empty() {
        let all = dirs.windows()?;
        if all.is_empty() {
            return Err(bad("no windows in the store"));
        }
        Ok(all)
    } else {
        args.iter()
            .map(|w| checked_label(dirs, w).map(str::to_string))
            .collect()
    }
}

fn merged_aggregate(dirs: &StoreDirs, windows: &[String]) -> Result<Aggregate, StoreError> {
    let mut agg = window_aggregate(dirs, &windows[0])?;
    for w in &windows[1..] {
        agg.merge(&window_aggregate(dirs, w)?)?;
    }
    Ok(agg)
}

fn analysis_col(analysis: &Analysis<'_>, arg: Option<&&str>) -> Result<usize, StoreError> {
    match arg {
        None => Ok(0),
        Some(&"cpu") => analysis
            .user_cpu_col()
            .ok_or_else(|| bad("no clock profiling in this window")),
        Some(name) => {
            let ev = CounterEvent::parse(name)
                .ok_or_else(|| bad(format!("unknown counter `{name}`")))?;
            analysis
                .col_by_event(ev)
                .ok_or_else(|| bad(format!("counter `{name}` not in this window")))
        }
    }
}

/// The `stat` answer text for an aggregate — also the body of every
/// watch PUSH frame, so a dashboard following a window live renders
/// the same text a one-shot `stat` query would have returned.
pub fn stat_text(agg: &Aggregate) -> String {
    let mut out = agg.render();
    out.push_str(&format!("{} distinct PCs\n", agg.pc_samples.len()));
    out
}

/// One watch PUSH payload: a `window LABEL generation G events TOTAL`
/// header line, then the `stat` text (or `no data` while the window
/// is empty — a dashboard may subscribe before the first collector
/// arrives). Callers hold the window's shared lock.
pub fn watch_frame(dirs: &StoreDirs, window: &str, generation: u64) -> String {
    match window_aggregate(dirs, window) {
        Ok(agg) => {
            let total: u64 = agg.totals.iter().sum();
            format!(
                "window {window} generation {generation} events {total}\n{}",
                stat_text(&agg)
            )
        }
        Err(_) => format!("window {window} generation {generation} events 0\nno data\n"),
    }
}

/// Parse and answer one query line, taking the shared registry lock
/// of exactly the windows each arm reads. Store-dependent queries run
/// here, the analyzer views (`objects`, `segments`, `pages`, `lines`)
/// from `cache` when it holds the window's current merge; `compact`
/// and `shutdown` are returned for the server to act on.
pub fn answer(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    cache: &Mutex<CompactCache>,
    line: &str,
) -> Result<QueryOutcome, StoreError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let out = match fields.split_first() {
        Some((&"windows", [])) => {
            let mut out = String::new();
            for w in dirs.windows()? {
                // One window's shared lock at a time: the listing is a
                // per-window snapshot, and holding them all would make
                // `windows` wait on every in-flight compaction at once.
                let _guard = registry.state(&w).lock_shared();
                let raws = dirs.live_raw_segments(&w)?.fresh.len();
                let packed = dirs.packed_path(&w).exists();
                let summary = dirs.summary_path(&w).exists();
                out.push_str(&format!(
                    "{w}: {raws} raw segment{}, packed={}, summary={}\n",
                    if raws == 1 { "" } else { "s" },
                    if packed { "yes" } else { "no" },
                    if summary { "yes" } else { "no" },
                ));
            }
            if out.is_empty() {
                out.push_str("no windows\n");
            }
            QueryOutcome::Text(out)
        }
        Some((&"functions", rest)) => {
            let windows = resolve_windows(dirs, rest)?;
            let _guards = registry.read_windows(&windows);
            let agg = merged_aggregate(dirs, &windows)?;
            let syms = first_syms(dirs, windows.iter().map(String::as_str))?;
            QueryOutcome::Text(agg.stat_json(syms.as_ref()))
        }
        Some((&"stat", rest)) => {
            let windows = resolve_windows(dirs, rest)?;
            let _guards = registry.read_windows(&windows);
            QueryOutcome::Text(stat_text(&merged_aggregate(dirs, &windows)?))
        }
        Some((&"diff", [wa, wb])) => {
            let wa = checked_label(dirs, wa)?;
            let wb = checked_label(dirs, wb)?;
            let _guards = registry.read_windows(&[wa.to_string(), wb.to_string()]);
            let diff = diff_aggregates(&window_aggregate(dirs, wa)?, &window_aggregate(dirs, wb)?)?;
            // Function-level when either side carries symbols, like
            // `mp-store diff`.
            let text = match first_syms(dirs, [wa, wb])? {
                Some(syms) => diff.render_by_function(&syms),
                None => diff.render(),
            };
            QueryOutcome::Text(text)
        }
        Some((&"objects", [w, col @ ..])) if col.len() <= 1 => {
            view_answer(dirs, registry, cache, w, |analysis| {
                Ok(analysis.render_data_objects(analysis_col(analysis, col.first())?))
            })?
        }
        Some((&"segments", [w])) => view_answer(dirs, registry, cache, w, |analysis| {
            let mut out = String::new();
            for row in analysis.segments() {
                out.push_str(&format!(
                    "{:>6}: {:>8} events\n",
                    row.segment.name(),
                    row.samples.iter().sum::<u64>()
                ));
            }
            Ok(out)
        })?,
        Some((&"pages", [w, n @ ..])) if n.len() <= 1 => {
            let n = parse_limit(n.first(), 10)?;
            view_answer(dirs, registry, cache, w, |analysis| {
                let mut out = String::new();
                for row in analysis.pages(8192, n) {
                    out.push_str(&format!(
                        "{:#012x}: {:>6} events\n",
                        row.page_base,
                        row.samples.iter().sum::<u64>()
                    ));
                }
                Ok(out)
            })?
        }
        Some((&"lines", [w, n @ ..])) if n.len() <= 1 => {
            let n = parse_limit(n.first(), 10)?;
            view_answer(dirs, registry, cache, w, |analysis| {
                let mut out = String::new();
                for row in analysis.cache_lines(512, n) {
                    out.push_str(&format!(
                        "{:#012x}: {:>6} events\n",
                        row.line_base,
                        row.samples.iter().sum::<u64>()
                    ));
                }
                Ok(out)
            })?
        }
        Some((&"compact", [])) => QueryOutcome::Compact,
        Some((&"shutdown", [])) => QueryOutcome::Shutdown,
        _ => {
            return Err(bad(format!(
                "unknown query `{line}` (try: windows, functions, stat, diff, \
                 objects, segments, pages, lines, compact, shutdown)"
            )))
        }
    };
    Ok(out)
}

fn parse_limit(arg: Option<&&str>, default: usize) -> Result<usize, StoreError> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| bad(format!("bad limit `{s}`"))),
    }
}
