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
//! objects W [COL]              §3 data-object view (byte-identical to
//!                              `mp-er-print data_objects [COL]` on the
//!                              unpacked store)
//! segments W                   §4 memory-segment view
//! pages W [N]                  hottest 8 KiB pages
//! lines W [N]                  hottest 512 B E$ lines
//! compact                      fold sealed raw segments now
//! shutdown                     stop the daemon
//! ```
//!
//! A usage error (an unknown query or window, a bad argument) comes
//! back as its message alone.
//!
//! `W` is a window label; views default to *all* windows where the
//! grammar allows. Aggregate queries (`functions`, `stat`, `diff`,
//! `objects`) are served tier-first, one read per tier file
//! ([`window_aggregate`]): a compacted window answers from its summary
//! (tier 2), which round-trips the window's attribution-key histogram
//! exactly and carries the packed store's symbol table, so the store
//! itself is never opened; uncompacted raw segments have their keys
//! folded on the fly and merged in. `functions`, `stat` and `diff`
//! render the histogram's per-PC projection, byte-identical to
//! `mp-store` re-aggregating the packed store; `objects` attributes
//! each key once with the table, byte-identical to `mp-er-print
//! data_objects` on the unpacked store. A window whose raw tier still
//! holds stale leftovers — segments a pass folded into the packed store
//! but crashed before deleting — may also hold that pass's
//! predecessor's summary, so it answers from the packed store instead,
//! as does a window with no summary (or the previous build's). The
//! symbol table comes from the first file the read opened that carries
//! one: the summary, the packed store, then the raw segments. The
//! address-keyed views (`segments`, `pages`, `lines`) count effective
//! addresses, which no summary keeps. They fold the window's files with
//! [`address_streams`], each opened once: the packed store, then the
//! fresh raw segments in file-name order, with the symbol table of the
//! first of them that carries one. The fold is additive, so this is the
//! map of the merge compaction writes, without writing or decoding it;
//! the rows and lines are `mp-er-print`'s ([`addr_rows`],
//! [`render_addr_rows`]).
//!
//! Locking: each store-reading arm takes the *shared* registry lock
//! of exactly the windows it resolves — in sorted label order when
//! there are several ([`WindowRegistry::read_windows`]) — for only as
//! long as it reads. A query against window A therefore completes
//! while window B is mid-compaction; only a query *on the compacting
//! window itself* waits.

use std::path::{Path, PathBuf};

use memprof_core::analyze::{
    addr_rows, col_by_event, data_objects_of_pairs, render_addr_rows, render_data_object_rows,
    user_cpu_col, AddrBucket, MetricCol, EC_LINE_BYTES, PAGE_BYTES,
};
use memprof_store::{
    address_streams, diff_aggregates, pair_streams, parse_syms, syms_attachment, Aggregate,
    PairHistogram, StoreError, StreamFile,
};
use simsparc_machine::CounterEvent;

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

/// One window's tier-first read (see [`window_aggregate`]).
pub struct WindowAggregate {
    /// Everything landed in the window, as an attribution-key
    /// histogram.
    pub pairs: PairHistogram,
    /// The window's `syms.txt` text and the tier file it came from:
    /// the first of the files the read opened that carries one, in
    /// the order summary, packed store, fresh raw segments. `None`
    /// when none of them does.
    pub syms: Option<(PathBuf, String)>,
}

/// The `syms.txt` text `file` carries, paired with its `path`.
fn carried_syms(file: &StreamFile, path: &Path) -> Option<(PathBuf, String)> {
    syms_attachment(file.attachments()).map(|text| (path.to_path_buf(), text.to_string()))
}

/// Parse a symbol table text found by [`carried_syms`] or a summary;
/// a table that does not parse is an error naming its file.
fn parse_carried(
    syms: Option<&(PathBuf, String)>,
) -> Result<Option<minic::SymbolTable>, StoreError> {
    syms.map(|(path, text)| parse_syms(text, path)).transpose()
}

/// The attribution-key histogram of everything landed in a window,
/// tier-first: the summary (or, lacking one, the fold of the packed
/// store) plus the fold of any raw segments not yet compacted, with
/// the symbol table text of the first of those that carries one. Raw
/// segments an interrupted compaction already folded into the packed
/// store (hash-valid manifest entries) are skipped — counting them
/// again would double every sample they hold. Their presence also
/// means that pass may have crashed before writing its summary, so the
/// summary is trusted only when there are none. Each file is read once.
pub fn window_aggregate(dirs: &StoreDirs, window: &str) -> Result<WindowAggregate, StoreError> {
    let mut parts: Vec<PairHistogram> = Vec::new();
    let mut syms = None;
    let tier = dirs.live_raw_segments(window)?;
    let summary = if tier.stale.is_empty() {
        read_summary(&dirs.summary_path(window))?
    } else {
        None
    };
    if let Some(summary) = summary {
        parts.push(summary.pairs);
        syms = summary.syms.map(|text| (dirs.summary_path(window), text));
    } else if let Some(store) = dirs.open_packed(window)? {
        parts.push(pair_streams(std::slice::from_ref(&store))?);
        syms = carried_syms(&store, &dirs.packed_path(window));
    }
    if !tier.fresh.is_empty() {
        let raws = tier
            .fresh
            .iter()
            .map(|p| StreamFile::open(p))
            .collect::<Result<Vec<StreamFile>, StoreError>>()?;
        parts.push(pair_streams(&raws)?);
        if syms.is_none() {
            syms = tier
                .fresh
                .iter()
                .zip(&raws)
                .find_map(|(p, f)| carried_syms(f, p));
        }
    }
    let mut parts = parts.into_iter();
    let mut pairs = parts
        .next()
        .ok_or_else(|| bad(format!("window `{window}` has no data")))?;
    for p in parts {
        pairs.merge(&p)?;
    }
    Ok(WindowAggregate { pairs, syms })
}

/// The symbol table of the first of `reads` that carries one. A
/// table that does not parse is an error naming its file, never a
/// silently missing table.
fn first_syms<'a>(
    reads: impl IntoIterator<Item = &'a WindowAggregate>,
) -> Result<Option<minic::SymbolTable>, StoreError> {
    parse_carried(reads.into_iter().find_map(|r| r.syms.as_ref()))
}

fn no_syms() -> StoreError {
    bad("window has no symbol table")
}

/// Answer one address-keyed view query on `window` under its shared
/// lock: fold its packed store and fresh raw segments, opened once each
/// in that order, with the symbol table of the first that carries one,
/// and render the first `limit` rows.
fn address_view(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    window: &str,
    bucket: AddrBucket,
    limit: usize,
) -> Result<QueryOutcome, StoreError> {
    let window = checked_label(dirs, window)?;
    let _guard = registry.state(window).lock_shared();
    let fresh = dirs.live_raw_segments(window)?.fresh;
    let mut files = Vec::new();
    let mut syms = None;
    let mut add = |path: &Path, file: StreamFile| {
        syms = syms.take().or_else(|| carried_syms(&file, path));
        files.push(file);
    };
    if let Some(store) = dirs.open_packed(window)? {
        add(&dirs.packed_path(window), store);
    }
    for raw in &fresh {
        add(raw, StreamFile::open(raw)?);
    }
    if files.is_empty() {
        return Err(bad(format!("window `{window}` has no data")));
    }
    let syms = parse_carried(syms.as_ref())?.ok_or_else(no_syms)?;
    let map = address_streams(&files, &syms, bucket)?;
    Ok(QueryOutcome::Text(render_addr_rows(
        bucket,
        &addr_rows(map, limit),
    )))
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

/// Each window's tier-first read, in order.
fn window_aggregates(
    dirs: &StoreDirs,
    windows: &[String],
) -> Result<Vec<WindowAggregate>, StoreError> {
    windows.iter().map(|w| window_aggregate(dirs, w)).collect()
}

/// The per-PC projection of the windows' histograms merged in order,
/// the fold of their stores; `reads` is never empty.
fn merged_aggregate(reads: &[WindowAggregate]) -> Result<Aggregate, StoreError> {
    let mut pairs = reads[0].pairs.clone();
    for r in &reads[1..] {
        pairs.merge(&r.pairs)?;
    }
    Ok(pairs.to_aggregate())
}

/// The column a view sorts by: the first by default, `cpu` for the
/// clock column, or a counter by name.
fn sort_col(columns: &[MetricCol], arg: Option<&&str>) -> Result<usize, StoreError> {
    match arg {
        None => Ok(0),
        Some(&"cpu") => {
            user_cpu_col(columns).ok_or_else(|| bad("no clock profiling in this window"))
        }
        Some(name) => {
            let ev = CounterEvent::parse(name)
                .ok_or_else(|| bad(format!("unknown counter `{name}`")))?;
            col_by_event(columns, ev)
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
        Ok(WindowAggregate { pairs, .. }) => {
            let total: u64 = pairs.totals.iter().sum();
            format!(
                "window {window} generation {generation} events {total}\n{}",
                stat_text(&pairs.to_aggregate())
            )
        }
        Err(_) => format!("window {window} generation {generation} events 0\nno data\n"),
    }
}

/// Parse and answer one query line, taking the shared registry lock
/// of exactly the windows each arm reads. Store-dependent queries run
/// here; `compact` and `shutdown` are returned for the server to act
/// on.
pub fn answer(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
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
            let reads = window_aggregates(dirs, &windows)?;
            let syms = first_syms(&reads)?;
            QueryOutcome::Text(merged_aggregate(&reads)?.stat_json(syms.as_ref()))
        }
        Some((&"stat", rest)) => {
            let windows = resolve_windows(dirs, rest)?;
            let _guards = registry.read_windows(&windows);
            let reads = window_aggregates(dirs, &windows)?;
            QueryOutcome::Text(stat_text(&merged_aggregate(&reads)?))
        }
        Some((&"diff", [wa, wb])) => {
            let wa = checked_label(dirs, wa)?;
            let wb = checked_label(dirs, wb)?;
            let _guards = registry.read_windows(&[wa.to_string(), wb.to_string()]);
            let (a, b) = (window_aggregate(dirs, wa)?, window_aggregate(dirs, wb)?);
            let diff = diff_aggregates(&a.pairs.to_aggregate(), &b.pairs.to_aggregate())?;
            // Function-level when either side carries symbols, like
            // `mp-store diff`.
            let text = match first_syms([&a, &b])? {
                Some(syms) => diff.render_by_function(&syms),
                None => diff.render(),
            };
            QueryOutcome::Text(text)
        }
        Some((&"objects", [w, col @ ..])) if col.len() <= 1 => {
            let w = checked_label(dirs, w)?;
            let _guard = registry.state(w).lock_shared();
            let read = window_aggregate(dirs, w)?;
            let syms = parse_carried(read.syms.as_ref())?.ok_or_else(no_syms)?;
            let columns = read.pairs.metric_cols();
            let sort = sort_col(&columns, col.first())?;
            let rows = data_objects_of_pairs(&syms, &columns, &read.pairs.pairs, sort);
            QueryOutcome::Text(render_data_object_rows(&columns, &rows))
        }
        Some((&"segments", [w])) => {
            address_view(dirs, registry, w, AddrBucket::Segment, usize::MAX)?
        }
        Some((&"pages", [w, n @ ..])) if n.len() <= 1 => {
            let n = parse_limit(n.first(), 10)?;
            address_view(dirs, registry, w, AddrBucket::Block(PAGE_BYTES), n)?
        }
        Some((&"lines", [w, n @ ..])) if n.len() <= 1 => {
            let n = parse_limit(n.first(), 10)?;
            address_view(dirs, registry, w, AddrBucket::Block(EC_LINE_BYTES), n)?
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
