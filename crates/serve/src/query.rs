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
//! back as its message alone.
//!
//! `W` is a window label; views default to *all* windows where the
//! grammar allows. Aggregate queries (`functions`, `stat`, `diff`) are
//! served tier-first, one read per tier file ([`window_aggregate`]): a
//! compacted window answers from its summary (tier 2), which
//! round-trips the aggregate exactly and carries the packed store's
//! symbol table, so the answer is byte-identical to re-aggregating
//! the packed store and the store itself is never opened; uncompacted
//! raw segments are aggregated on the fly and merged in. A window
//! whose raw tier still holds stale leftovers — segments a pass
//! folded into the packed store but crashed before deleting — may
//! also hold that pass's predecessor's summary, so it answers from
//! the packed store instead, as does a window with no summary. The
//! symbol table comes from the first file the read opened that
//! carries one: the summary, the packed store, then the raw segments.
//! Analyzer views (`objects`, `segments`, `pages`, `lines`) need the
//! whole merged experiment. They read it from disk, each file opened
//! once: a window with no fresh raw segments decodes its packed store,
//! and one with fresh raws decodes [`merge_streams`] over the packed
//! store and the raws, the merge compaction writes. The table comes
//! from those files in the same order. The [`ViewCache`] keeps the
//! decoded experiments of windows with no fresh raws, so a repeated
//! view on an unchanged window only hashes its packed store.
//!
//! Locking: each store-reading arm takes the *shared* registry lock
//! of exactly the windows it resolves — in sorted label order when
//! there are several ([`WindowRegistry::read_windows`]) — for only as
//! long as it reads. A query against window A therefore completes
//! while window B is mid-compaction; only a query *on the compacting
//! window itself* waits.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use memprof_core::analyze::Analysis;
use memprof_core::Experiment;
use memprof_store::{
    aggregate_streams, diff_aggregates, merge_streams, parse_syms, syms_attachment, xxh64,
    Aggregate, StoreError, StreamFile,
};
use simsparc_machine::CounterEvent;

use crate::registry::WindowRegistry;
use crate::store::{valid_label, StoreDirs};
use crate::summary::read_summary;

/// What an analyzer view reads: a window's merged experiment and its
/// symbol table.
struct WindowView {
    exp: Experiment,
    syms: minic::SymbolTable,
}

/// One window's view, valid while its packed store hashes to
/// `packed_hash`.
struct CachedView {
    packed_hash: u64,
    view: Arc<WindowView>,
    /// Value of the cache clock when this entry was last filled or
    /// hit — the LRU eviction key.
    last_used: u64,
}

/// The decoded experiments of compacted windows, for the analyzer
/// views. A view's disk path fills an entry when its window has no
/// fresh raw segments, keyed by the XXH64 of the packed store it
/// decoded; a later view on that window answers from the entry while
/// the window still has no fresh raws and its store on disk still
/// hashes to the key. An empty cache is always correct.
///
/// Each entry pins a decoded [`Experiment`] in memory, so the cache
/// holds at most [`ViewCache::DEFAULT_CACHED_WINDOWS`] entries unless
/// [`ViewCache::with_cap`] says otherwise; beyond the cap the least
/// recently used window is dropped, and its next view decodes from
/// disk again.
pub struct ViewCache {
    windows: HashMap<String, CachedView>,
    /// Monotonic use counter; entries stamp it when filled or hit.
    clock: u64,
    cap: usize,
    view_hits: u64,
    view_misses: u64,
}

impl ViewCache {
    /// Deliberately small: views usually ask about a handful of recent
    /// windows, and one entry can hold a large experiment.
    pub const DEFAULT_CACHED_WINDOWS: usize = 4;

    /// A cache that keeps at most `cap` windows; `0` disables it (every
    /// view decodes from disk).
    pub fn with_cap(cap: usize) -> Self {
        ViewCache {
            windows: HashMap::new(),
            clock: 0,
            cap,
            view_hits: 0,
            view_misses: 0,
        }
    }

    /// Analyzer-view queries answered from a cached experiment.
    pub fn view_hits(&self) -> u64 {
        self.view_hits
    }

    /// Analyzer-view queries that decoded the window from disk.
    pub fn view_misses(&self) -> u64 {
        self.view_misses
    }

    /// `window`'s entry, with the packed store hash it is valid for,
    /// stamped as used. The caller checks the hash against the disk
    /// outside the cache mutex.
    fn get(&mut self, window: &str) -> Option<(u64, Arc<WindowView>)> {
        self.clock += 1;
        let entry = self.windows.get_mut(window)?;
        entry.last_used = self.clock;
        Some((entry.packed_hash, Arc::clone(&entry.view)))
    }

    /// Record `window`'s view, evicting the least recently used window
    /// if that pushes the cache over its cap.
    fn insert(&mut self, window: &str, packed_hash: u64, view: Arc<WindowView>) {
        if self.cap == 0 {
            return;
        }
        self.clock += 1;
        let last_used = self.clock;
        self.windows.insert(
            window.to_string(),
            CachedView {
                packed_hash,
                view,
                last_used,
            },
        );
        while self.windows.len() > self.cap {
            let oldest = self
                .windows
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(w, _)| w.clone())
                .expect("cache over cap is non-empty");
            self.windows.remove(&oldest);
        }
    }
}

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
    /// Everything landed in the window, aggregated.
    pub agg: Aggregate,
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

/// The aggregate of everything landed in a window, tier-first: the
/// summary (or, lacking one, the packed store) plus any raw segments
/// not yet compacted, with the symbol table text of the first of
/// those that carries one. Raw segments an interrupted compaction
/// already folded into the packed store (hash-valid manifest entries)
/// are skipped — counting them again would double every sample they
/// hold. Their presence also means that pass may have crashed before
/// writing its summary, so the summary is trusted only when there are
/// none. Each file is read once.
pub fn window_aggregate(dirs: &StoreDirs, window: &str) -> Result<WindowAggregate, StoreError> {
    let mut parts: Vec<Aggregate> = Vec::new();
    let mut syms = None;
    let tier = dirs.live_raw_segments(window)?;
    let summary = if tier.stale.is_empty() {
        read_summary(&dirs.summary_path(window))?
    } else {
        None
    };
    if let Some(summary) = summary {
        parts.push(summary.agg);
        syms = summary.syms.map(|text| (dirs.summary_path(window), text));
    } else if let Some(store) = dirs.open_packed(window)? {
        parts.push(aggregate_streams(std::slice::from_ref(&store))?);
        syms = carried_syms(&store, &dirs.packed_path(window));
    }
    if !tier.fresh.is_empty() {
        let raws = tier
            .fresh
            .iter()
            .map(|p| StreamFile::open(p))
            .collect::<Result<Vec<StreamFile>, StoreError>>()?;
        parts.push(aggregate_streams(&raws)?);
        if syms.is_none() {
            syms = tier
                .fresh
                .iter()
                .zip(&raws)
                .find_map(|(p, f)| carried_syms(f, p));
        }
    }
    let mut parts = parts.into_iter();
    let mut agg = parts
        .next()
        .ok_or_else(|| bad(format!("window `{window}` has no data")))?;
    for p in parts {
        agg.merge(&p)?;
    }
    Ok(WindowAggregate { agg, syms })
}

/// The symbol table of the first of `reads` that carries one. A
/// table that does not parse is an error naming its file, never a
/// silently missing table.
fn first_syms<'a>(
    reads: impl IntoIterator<Item = &'a WindowAggregate>,
) -> Result<Option<minic::SymbolTable>, StoreError> {
    parse_carried(reads.into_iter().find_map(|r| r.syms.as_ref()))
}

/// Decode a window from disk, each file read once: its packed store
/// alone when it has no `fresh` raw segments, else [`merge_streams`]
/// over the packed store and the raws in file-name order, the merge
/// compaction writes. The symbol table is the first of those files'
/// that carries one. Returns the packed store's XXH64 too when the
/// view is the store alone. Until the window's next pass, keeping one
/// merge rule costs a view a copy of the window and a second checksum
/// pass over it.
fn window_from_disk(
    dirs: &StoreDirs,
    window: &str,
    fresh: &[PathBuf],
) -> Result<(WindowView, Option<u64>), StoreError> {
    let mut inputs = Vec::new();
    let mut syms = None;
    let mut add = |path: &Path, file: StreamFile| {
        syms = syms.take().or_else(|| carried_syms(&file, path));
        inputs.push(file);
    };
    if let Some(store) = dirs.open_packed(window)? {
        add(&dirs.packed_path(window), store);
    }
    for raw in fresh {
        add(raw, StreamFile::open(raw)?);
    }
    let (exp, packed_hash) = match &inputs[..] {
        [] => return Err(bad(format!("window `{window}` has no data"))),
        [only] => (
            only.to_experiment()?,
            fresh.is_empty().then(|| xxh64(only.bytes(), 0)),
        ),
        _ => {
            // The merged image has no file to name in an error: on bad
            // content, decode the inputs one by one to name the culprit.
            let merged = StreamFile::from_bytes(merge_streams(&inputs)?)?;
            let exp = merged.to_experiment().or_else(|e| {
                inputs
                    .iter()
                    .try_for_each(|f| f.to_experiment().map(drop))?;
                Err(e)
            })?;
            (exp, None)
        }
    };
    let syms = parse_carried(syms.as_ref())?.ok_or_else(|| bad("window has no symbol table"))?;
    Ok((WindowView { exp, syms }, packed_hash))
}

/// A window's view: from the [`ViewCache`] when the window has no
/// fresh raw segments and its packed store on disk still hashes to
/// the entry — the full-file check makes the cached experiment exactly
/// as trustworthy as a checksummed read of the store, so the answer is
/// byte-identical to the disk path — and from disk otherwise, filling
/// the cache when the view is the packed store alone. Callers hold the
/// window's shared lock.
fn window_view(
    dirs: &StoreDirs,
    cache: &Mutex<ViewCache>,
    window: &str,
) -> Result<Arc<WindowView>, StoreError> {
    let cache = || {
        cache
            .lock()
            .expect("a query panicked holding the view cache")
    };
    let fresh = dirs.live_raw_segments(window)?.fresh;
    let cached = if fresh.is_empty() {
        cache().get(window)
    } else {
        None
    };
    let on_disk =
        |hash| std::fs::read(dirs.packed_path(window)).is_ok_and(|b| xxh64(&b, 0) == hash);
    if let Some((_, view)) = cached.filter(|&(hash, _)| on_disk(hash)) {
        cache().view_hits += 1;
        return Ok(view);
    }
    cache().view_misses += 1;
    let (view, packed_hash) = window_from_disk(dirs, window, &fresh)?;
    let view = Arc::new(view);
    if let Some(hash) = packed_hash {
        cache().insert(window, hash, Arc::clone(&view));
    }
    Ok(view)
}

/// Answer one analyzer-view query on `window`: resolve the window
/// under its shared lock, reduce it, and render.
fn view_answer(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    cache: &Mutex<ViewCache>,
    window: &str,
    render: impl FnOnce(&Analysis<'_>) -> Result<String, StoreError>,
) -> Result<QueryOutcome, StoreError> {
    let window = checked_label(dirs, window)?;
    let _guard = registry.state(window).lock_shared();
    let view = window_view(dirs, cache, window)?;
    Ok(QueryOutcome::Text(render(&Analysis::new(
        &[&view.exp],
        &view.syms,
    ))?))
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

/// The windows' aggregates summed; `reads` is never empty.
fn merged_aggregate(reads: Vec<WindowAggregate>) -> Result<Aggregate, StoreError> {
    let mut aggs = reads.into_iter().map(|r| r.agg);
    let mut agg = aggs.next().expect("an aggregate query resolves a window");
    for a in aggs {
        agg.merge(&a)?;
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
        Ok(WindowAggregate { agg, .. }) => {
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
/// from `cache` when it holds the window's current experiment;
/// `compact` and `shutdown` are returned for the server to act on.
pub fn answer(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    cache: &Mutex<ViewCache>,
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
            QueryOutcome::Text(merged_aggregate(reads)?.stat_json(syms.as_ref()))
        }
        Some((&"stat", rest)) => {
            let windows = resolve_windows(dirs, rest)?;
            let _guards = registry.read_windows(&windows);
            let reads = window_aggregates(dirs, &windows)?;
            QueryOutcome::Text(stat_text(&merged_aggregate(reads)?))
        }
        Some((&"diff", [wa, wb])) => {
            let wa = checked_label(dirs, wa)?;
            let wb = checked_label(dirs, wb)?;
            let _guards = registry.read_windows(&[wa.to_string(), wb.to_string()]);
            let (a, b) = (window_aggregate(dirs, wa)?, window_aggregate(dirs, wb)?);
            let diff = diff_aggregates(&a.agg, &b.agg)?;
            // Function-level when either side carries symbols, like
            // `mp-store diff`.
            let text = match first_syms([&a, &b])? {
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
