//! Tiered compaction: fold a window's sealed raw segments into its
//! packed store and regenerate the summary.
//!
//! Compacting a window is equivalent to running, offline:
//!
//! ```text
//! mp-store merge packed/W.mps [packed/W.mps] raw/W/*.mpes   (sorted)
//! ```
//!
//! and the resulting packed store is byte-identical to that command's
//! output because both go through the same
//! [`memprof_store::merge_experiments_with`] + [`pack_experiment`] +
//! [`collect_attachments`] path with the same input order: the
//! previous packed tier first, then raw segments in file-name order
//! (session ids embed an arrival sequence number, so the order is
//! deterministic). The packed store is in the raw segments' own
//! format, `MPES` v3: [`pack_experiment`] replays the merge through
//! the collector's chunk writer. The tier-2 summary is regenerated
//! with the same aggregation kernel `mp-store stat` uses, and carries
//! the new store's `syms.txt` attachment so aggregate queries never
//! open the store (see [`crate::summary`]).
//!
//! ## Incremental compaction
//!
//! A long-lived daemon compacts the same windows over and over, and
//! each pass used to re-read and re-decode the whole packed store just
//! to fold in a handful of fresh segments — compaction cost grew with
//! the *window*, not with the new data. The daemon now keeps a
//! [`CompactCache`]: the merged [`Experiment`] (and the attachments it
//! was packed with) from each window's previous pass, fingerprinted by
//! the packed store's XXH64 hash. When the on-disk store still
//! matches the fingerprint — i.e. nobody replaced it behind the
//! daemon's back — the next pass seeds the merge with the cached
//! experiment ([`memprof_store::merge_experiments_with`]) and only
//! decodes the fresh segments. The cached experiment and the store
//! read back hold the same events with the same frames; only their
//! stack tables are numbered differently (the cached one is the
//! previous merge's concatenated tables, duplicates included). Packing
//! depends on nothing but each event's frames, so
//! `pack(merge(cached, fresh)) == pack(merge(load(packed), fresh))`
//! (pinned by the store tests) and the output bytes are identical
//! either way. A hash mismatch, a missing
//! cache entry (first pass, restarted daemon), or any failed pass
//! falls back to the re-read path. That path opens the store through
//! [`StoreDirs::open_packed`], which refuses a store without its
//! footer: a damaged packed tier fails the pass and stays as it is,
//! instead of being merged as a prefix and overwritten by a whole
//! store that no longer holds the lost chunks.
//!
//! ## Serving views from the cache
//!
//! The same entry holds the events and frames an analyzer view on the
//! compacted window would otherwise decode from the packed store, and
//! no view reads the stack numbering. So
//! `objects`, `segments`, `pages` and `lines` queries on a window with
//! no fresh raw segments answer from it (see
//! [`crate::query::answer`]), after the same full-file hash check a
//! seeding pass makes. Entries are shared (`Arc`): a query clones the
//! handles under the cache mutex and drops them before releasing its
//! shared window lock, so a pass — which holds the exclusive lock —
//! always owns its entry outright and unwraps the experiment without
//! copying it. If a share ever lingered the pass would take the
//! re-read path; it never deep-clones. [`CompactCache::view_hits`] and
//! [`CompactCache::view_misses`] count which path answered.
//!
//! ## Crash safety
//!
//! A pass publishes in an order that keeps every crash point
//! recoverable without losing or double-counting a sample:
//!
//! 1. if there are stale leftovers (segments a *previous* pass
//!    already folded in but crashed before deleting — identified by a
//!    hash-valid [`Manifest`]), regenerate the summary from the packed
//!    store, then delete them;
//! 2. merge `[old packed] + fresh raws` in memory (seeded from the
//!    cache when the fingerprint matches);
//! 3. durably write the `MPCM 2` manifest naming the fresh raws, keyed
//!    by the *new* store's XXH64 hash — inert until that store lands;
//! 4. durably rename the new packed store into place — this is the
//!    commit point: the manifest hash now matches, so the fresh raws
//!    are stale from here on;
//! 5. regenerate the summary, symbol table included;
//! 6. delete the consumed raws.
//!
//! A crash before step 4 leaves the old packed store authoritative
//! and every raw segment fresh (the manifest hash does not match);
//! the next pass simply redoes the merge. A crash after step 4 leaves
//! the consumed raws on disk but hash-flagged as stale, so queries
//! skip them and the next pass deletes them instead of re-merging.
//! While they are on disk they also flag the summary, which may still
//! be the previous pass's: queries read the packed store instead, and
//! step 1 regenerates the summary *before* deleting them, so a crash
//! in step 1 never leaves an old summary with nothing to flag it. All
//! tier writes go through `write_durable` (fsync before rename,
//! directory fsync after), so "landed" means on disk, not in page
//! cache — the raw segments deleted in step 6 are never the only copy
//! of their events. The cache only ever *adds* a fast path: it is
//! updated after the pass fully succeeds and revalidated against the
//! on-disk bytes before use. It lives behind its own mutex, held only
//! for entry take/share/put — never across a merge or a query — so
//! windows compact concurrently; what serializes two passes over the
//! *same* window is that window's exclusive lock in the
//! [`WindowRegistry`], which [`compact_all_registered`] (the daemon's
//! entry point) takes per window.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use memprof_core::Experiment;
use memprof_store::{
    aggregate, aggregate_streams, collect_attachments, merge_experiments_with, pack_experiment,
    syms_attachment, xxh64, ExperimentRef, StoreError,
};

use crate::registry::WindowRegistry;
use crate::store::{render_manifest, write_durable, Manifest, StoreDirs};
use crate::summary::write_summary;

/// One window's previous compaction result, reusable as the seed of
/// the next pass — and as the source of the window's analyzer views —
/// while the on-disk packed store still hashes to `packed_hash`. The
/// experiment and attachments are `Arc`s so view queries can share
/// them (see the module docs for why a pass still owns them outright).
struct CachedWindow {
    packed_hash: u64,
    merged: Arc<Experiment>,
    attachments: Arc<Vec<(String, String)>>,
    /// Value of the cache clock when this entry was last written —
    /// the LRU eviction key.
    last_used: u64,
}

/// Per-window merge results carried between compaction passes (see
/// the module docs). Owned by the daemon behind its own mutex; an
/// empty cache is always correct — every lookup revalidates against
/// the bytes on disk.
///
/// Each cached window pins a fully decoded [`Experiment`] in memory,
/// so the cache holds at most [`CompactCache::DEFAULT_CACHED_WINDOWS`]
/// entries unless [`CompactCache::with_cap`] says otherwise; beyond
/// the cap the least-recently-compacted window is dropped and its next
/// pass simply re-reads the packed store from disk (the slow path
/// every entry starts from anyway). The cap therefore also bounds
/// which windows' analyzer views answer from memory: a view query on
/// an uncached window decodes its packed store instead.
pub struct CompactCache {
    windows: HashMap<String, CachedWindow>,
    /// Monotonic compaction counter; entries stamp it on insert.
    clock: u64,
    cap: usize,
    /// View queries answered from a cached experiment / from disk.
    view_hits: u64,
    view_misses: u64,
    /// Compaction passes seeded from a cached experiment.
    seeded_passes: u64,
}

impl Default for CompactCache {
    fn default() -> Self {
        Self::with_cap(Self::DEFAULT_CACHED_WINDOWS)
    }
}

impl CompactCache {
    /// Deliberately small: a daemon usually compacts a handful of hot
    /// (recent) windows over and over while old windows go quiet, and
    /// one entry can hold a large merged experiment.
    pub const DEFAULT_CACHED_WINDOWS: usize = 4;

    /// A cache that keeps at most `cap` windows; `0` disables seeding
    /// and cached views entirely (every pass and view query takes the
    /// re-read path).
    pub fn with_cap(cap: usize) -> Self {
        CompactCache {
            windows: HashMap::new(),
            clock: 0,
            cap,
            view_hits: 0,
            view_misses: 0,
            seeded_passes: 0,
        }
    }

    /// Windows currently cached (for tests and introspection).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Analyzer-view queries answered from a cached experiment.
    pub fn view_hits(&self) -> u64 {
        self.view_hits
    }

    /// Analyzer-view queries that decoded the window from disk.
    pub fn view_misses(&self) -> u64 {
        self.view_misses
    }

    /// Compaction passes that seeded their merge from a cached
    /// experiment instead of re-reading the packed store.
    pub fn seeded_passes(&self) -> u64 {
        self.seeded_passes
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// `window`'s cached experiment and attachments, with the packed
    /// store hash they are valid for. The caller validates the hash
    /// against the disk outside the cache mutex.
    pub(crate) fn view(&self, window: &str) -> Option<CachedView> {
        self.windows.get(window).map(|c| CachedView {
            packed_hash: c.packed_hash,
            merged: Arc::clone(&c.merged),
            attachments: Arc::clone(&c.attachments),
        })
    }

    /// Count one analyzer-view query by the path that answered it.
    pub(crate) fn record_view(&mut self, hit: bool) {
        if hit {
            self.view_hits += 1;
        } else {
            self.view_misses += 1;
        }
    }

    /// Record `window`'s pass result, evicting the least recently
    /// compacted window if that pushes the cache over its cap.
    fn insert(&mut self, window: &str, entry: CachedWindow) {
        if self.cap == 0 {
            return;
        }
        self.windows.insert(window.to_string(), entry);
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

/// A shared snapshot of one cached window, for a view query.
pub(crate) struct CachedView {
    pub packed_hash: u64,
    pub merged: Arc<Experiment>,
    pub attachments: Arc<Vec<(String, String)>>,
}

/// What one compaction pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// `(window, raw segments folded in)` for each compacted window.
    pub windows: Vec<(String, usize)>,
    /// Windows whose compaction failed, with the rendered error.
    pub errors: Vec<(String, String)>,
}

impl CompactReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (window, n) in &self.windows {
            out.push_str(&format!("compacted {window}: {n} raw segments\n"));
        }
        for (window, err) in &self.errors {
            out.push_str(&format!("compact {window} failed: {err}\n"));
        }
        if out.is_empty() {
            out.push_str("nothing to compact\n");
        }
        out
    }
}

/// Regenerate a window's tier-2 summary, symbol table included, from
/// its packed store on disk. The main compaction path summarizes the
/// in-memory merge instead; this serves the recovery paths that have
/// no merge in hand.
fn refresh_summary(dirs: &StoreDirs, window: &str) -> Result<(), StoreError> {
    let Some(store) = dirs.open_packed(window)? else {
        return Ok(());
    };
    let agg = aggregate_streams(std::slice::from_ref(&store), 0)?;
    write_summary(
        &dirs.summary_path(window),
        &agg,
        syms_attachment(store.attachments()),
    )
}

/// Compact one window if it has sealed raw segments. Returns the
/// number of segments folded in (0 = nothing to do, though stale
/// leftovers from an interrupted earlier pass may still be cleaned
/// up). See the module docs for the crash protocol and the cache's
/// role. Callers must hold the window's exclusive lock (or otherwise
/// guarantee one pass per window at a time) — the daemon path is
/// [`compact_all_registered`] / [`compact_window_registered`].
pub fn compact_window(
    dirs: &StoreDirs,
    window: &str,
    cache: &Mutex<CompactCache>,
) -> Result<usize, StoreError> {
    let tier = dirs.live_raw_segments(window)?;
    let packed = dirs.packed_path(window);

    // Recovery: a hash-valid manifest says these segments are already
    // in the packed store, so deleting them is the whole job — after
    // the summary is regenerated, since the pass that left them may
    // have crashed before writing its own, and once they are gone
    // nothing marks the summary as suspect. Failing the pass on a
    // deletion error matters — proceeding would publish a new
    // manifest that no longer names the survivor, turning it back
    // into a fresh (double-counted) segment.
    if !tier.stale.is_empty() {
        refresh_summary(dirs, window)?;
        for raw in &tier.stale {
            std::fs::remove_file(raw).map_err(|e| StoreError::Io(e).at(raw))?;
        }
    }
    if tier.fresh.is_empty() {
        if packed.exists() && !dirs.summary_path(window).exists() {
            refresh_summary(dirs, window)?;
        }
        return Ok(0);
    }

    // Seed from the cache when the on-disk store is still the one the
    // cached experiment was packed into; otherwise (first pass,
    // restart, or an externally replaced store) decode the seed from
    // disk, refusing a store without its footer
    // ([`StoreDirs::open_packed`]). A pass that fails below leaves the
    // entry removed, so the next attempt re-reads from disk. The
    // entry is taken out under a brief lock and the hash validated
    // outside it — the disk read must not stall other windows' passes.
    // Should a view query's share of the experiment ever linger, the
    // pass re-reads the store rather than deep-cloning it.
    let cached = cache
        .lock()
        .unwrap()
        .windows
        .remove(window)
        .filter(|c| packed_hash_is(&packed, c.packed_hash))
        .and_then(|c| Some((Arc::try_unwrap(c.merged).ok()?, c.attachments)));
    let seeded = cached.is_some();
    let (seeds, seed_attachments) = match cached {
        Some((merged, attachments)) => (vec![merged], attachments),
        None => match dirs.open_packed(window)? {
            Some(store) => (
                vec![store.to_experiment()?],
                Arc::new(store.attachments().to_vec()),
            ),
            None => (Vec::new(), Arc::default()),
        },
    };
    let refs = tier
        .fresh
        .iter()
        .map(|p| ExperimentRef::open(p))
        .collect::<Result<Vec<ExperimentRef>, StoreError>>()?;
    let merged = merge_experiments_with(seeds, &refs, 0)?;
    // Attachment rule: first input with any attachment wins. The seed
    // attachments — cached or read — are exactly what the packed
    // store carries, so using them (when non-empty) equals collecting
    // over `[packed] + fresh`.
    let attachments = if seed_attachments.is_empty() {
        Arc::new(collect_attachments(&refs))
    } else {
        seed_attachments
    };
    let bytes = pack_experiment(&merged, &attachments);

    // Manifest first (inert until the store it hashes lands), then
    // the store itself — the commit point.
    let packed_hash = xxh64(&bytes, 0);
    let manifest = Manifest {
        packed: packed_hash,
        consumed: tier
            .fresh
            .iter()
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().to_string())
            .collect(),
    };
    write_durable(
        &dirs.manifest_path(window),
        render_manifest(&manifest).as_bytes(),
    )?;
    write_durable(&packed, &bytes)?;

    // The summary is the aggregate of the store just written, plus its
    // symbol table; the merge is already in memory, so aggregate it
    // directly instead of re-reading the file.
    let agg = aggregate(&[&merged], 0)?;
    write_summary(
        &dirs.summary_path(window),
        &agg,
        syms_attachment(&attachments),
    )?;

    for raw in &tier.fresh {
        std::fs::remove_file(raw).map_err(|e| StoreError::Io(e).at(raw))?;
    }
    {
        let mut cache = cache.lock().unwrap();
        cache.seeded_passes += u64::from(seeded);
        cache.clock += 1;
        let last_used = cache.clock;
        cache.insert(
            window,
            CachedWindow {
                packed_hash,
                merged: Arc::new(merged),
                attachments,
                last_used,
            },
        );
    }
    // The per-window raw dir stays (possibly empty); new sessions for
    // the window keep landing there.
    Ok(tier.fresh.len())
}

/// Does the store at `packed` still hash to `hash`? The full-file
/// XXH64 check is what lets a cached experiment stand in for a
/// checksummed read of the store.
pub(crate) fn packed_hash_is(packed: &Path, hash: u64) -> bool {
    std::fs::read(packed).is_ok_and(|bytes| xxh64(&bytes, 0) == hash)
}

/// Compact one window under its exclusive registry lock, bumping the
/// window's tier generation if the pass changed anything — the form
/// every daemon-side caller (background loop, `compact` query,
/// retention) uses.
pub fn compact_window_registered(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    window: &str,
    cache: &Mutex<CompactCache>,
) -> Result<usize, StoreError> {
    let state = registry.state(window);
    let folded = {
        let _exclusive = state.lock_exclusive();
        compact_window(dirs, window, cache)?
    };
    if folded > 0 {
        state.bump_generation();
    }
    Ok(folded)
}

/// Compact every window that has sealed raw segments, taking each
/// window's exclusive lock only for its own pass — queries and seals
/// on other windows proceed throughout. One window's failure (e.g. an
/// incompatible collection recipe) doesn't block the others.
pub fn compact_all_registered(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    cache: &Mutex<CompactCache>,
) -> Result<CompactReport, StoreError> {
    let mut report = CompactReport::default();
    for window in dirs.windows()? {
        match compact_window_registered(dirs, registry, &window, cache) {
            Ok(0) => {}
            Ok(n) => report.windows.push((window, n)),
            Err(e) => report.errors.push((window, e.to_string())),
        }
    }
    Ok(report)
}
