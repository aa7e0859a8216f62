//! Tiered compaction: fold a window's sealed raw segments into its
//! packed store and refresh the summary.
//!
//! Compacting a window is equivalent to running, offline:
//!
//! ```text
//! mp-store merge packed/W.mps [packed/W.mps] raw/W/*.mpes   (sorted)
//! ```
//!
//! and the resulting packed store is byte-identical to that command's
//! output because both write [`merge_streams`] over the same inputs in
//! the same order: the previous packed tier first, then raw segments
//! in file-name order (session ids embed an arrival sequence number, so
//! the order is deterministic). The merge copies each input's chunks
//! and rewrites only their stack-id columns, so a pass copies the
//! packed store instead of decoding and re-encoding the window. The
//! merge is associative, so however many passes folded a window's
//! sessions in, its packed store is one offline merge of all of them.
//!
//! ## What a pass checks
//!
//! The merge checks recipes, framing, stack tables and stack ids, and
//! copies the other event columns undecoded. So the fresh segments'
//! content is checked by folding their attribution keys
//! ([`pair_streams`]), which the summary needs anyway: the new summary
//! is the current summary's histogram plus the fresh segments', and it
//! carries the new store's `syms.txt` attachment so aggregate queries
//! never open the store (see [`crate::summary`]). The current summary
//! counts only while the manifest names the store's XXH64; otherwise (a
//! store replaced behind the daemon, a missing or previous-format
//! summary) the fold of the store itself does. The packed tier is
//! trusted: its content was
//! checked when it was fresh, and its chunk checksums show it is
//! unchanged. [`StoreDirs::open_packed`] refuses a store without its
//! footer, so a damaged packed tier fails the pass and stays as it is,
//! instead of being merged as a prefix and overwritten by a whole store
//! that no longer holds the lost chunks. Every check runs before
//! anything is written.
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
//! 2. merge `[old packed] + fresh raws` in memory and fold the fresh
//!    raws' attribution keys;
//! 3. durably write the `MPCM 2` manifest naming the fresh raws, keyed
//!    by the *new* store's XXH64 hash — inert until that store lands;
//! 4. durably rename the new packed store into place — this is the
//!    commit point: the manifest hash now matches, so the fresh raws
//!    are stale from here on;
//! 5. write the summary, symbol table included;
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
//! of their events. Windows compact concurrently; what serializes two
//! passes over the *same* window is that window's exclusive lock in
//! the [`WindowRegistry`], which [`compact_all_registered`] (the
//! daemon's entry point) takes per window.

use memprof_store::{
    merge_streams, merged_attachments, pair_streams, syms_attachment, xxh64, PairHistogram,
    StoreError, StreamFile,
};

use crate::registry::WindowRegistry;
use crate::store::{parse_manifest, render_manifest, write_durable, Manifest, StoreDirs};
use crate::summary::{read_summary, summary_is_absent, write_summary};

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
/// its packed store on disk. The main compaction path adds the fresh
/// segments' histogram to the current summary instead; this serves the
/// recovery paths that have nothing to fold.
fn refresh_summary(dirs: &StoreDirs, window: &str) -> Result<(), StoreError> {
    let Some(store) = dirs.open_packed(window)? else {
        return Ok(());
    };
    let pairs = pair_streams(std::slice::from_ref(&store))?;
    write_summary(
        &dirs.summary_path(window),
        &pairs,
        syms_attachment(store.attachments()),
    )
}

/// The current summary's histogram, if it describes `store`: the
/// manifest the pass that wrote both names the store's XXH64.
fn summary_of(dirs: &StoreDirs, window: &str, store: &StreamFile) -> Option<PairHistogram> {
    let manifest = parse_manifest(&std::fs::read_to_string(dirs.manifest_path(window)).ok()?)?;
    let summary = read_summary(&dirs.summary_path(window)).ok()??;
    (manifest.packed == xxh64(store.bytes(), 0)).then_some(summary.pairs)
}

/// Compact one window if it has sealed raw segments. Returns the
/// number of segments folded in (0 = nothing to do, though stale
/// leftovers from an interrupted earlier pass may still be cleaned
/// up). See the module docs for what a pass checks and its crash
/// protocol. Callers must hold the window's exclusive lock (or
/// otherwise guarantee one pass per window at a time) — the daemon
/// path is [`compact_all_registered`] / [`compact_window_registered`].
pub fn compact_window(dirs: &StoreDirs, window: &str) -> Result<usize, StoreError> {
    let tier = dirs.live_raw_segments(window)?;

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
        if dirs.packed_path(window).exists() && summary_is_absent(&dirs.summary_path(window)) {
            refresh_summary(dirs, window)?;
        }
        return Ok(0);
    }

    // Each input is read once: the packed store, refused without its
    // footer, then the fresh raws in canonical order.
    let mut inputs: Vec<StreamFile> = dirs.open_packed(window)?.into_iter().collect();
    let packed = inputs.len();
    for raw in &tier.fresh {
        inputs.push(StreamFile::open(raw)?);
    }
    // The merge checks recipes, framing, stack tables and stack ids.
    // Folding the fresh raws' attribution keys checks the rest of their
    // content, and the summary needs that histogram anyway; the packed
    // tier is trusted.
    let bytes = merge_streams(&inputs)?;
    let (old, fresh) = inputs.split_at(packed);
    let mut pairs = pair_streams(fresh)?;
    if let [store] = old {
        let mut whole = summary_of(dirs, window, store).map_or_else(|| pair_streams(old), Ok)?;
        whole.merge(&pairs)?;
        pairs = whole;
    }
    let attachments = merged_attachments(inputs.iter().map(StreamFile::attachments));

    // Manifest first (inert until the store it hashes lands), then
    // the store itself — the commit point.
    let manifest = Manifest {
        packed: xxh64(&bytes, 0),
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
    write_durable(&dirs.packed_path(window), &bytes)?;
    write_summary(
        &dirs.summary_path(window),
        &pairs,
        syms_attachment(&attachments),
    )?;

    for raw in &tier.fresh {
        std::fs::remove_file(raw).map_err(|e| StoreError::Io(e).at(raw))?;
    }
    // The per-window raw dir stays (possibly empty); new sessions for
    // the window keep landing there.
    Ok(tier.fresh.len())
}

/// Compact one window under its exclusive registry lock, bumping the
/// window's tier generation if the pass changed anything — the form
/// every daemon-side caller (background loop, `compact` query,
/// retention) uses.
pub fn compact_window_registered(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    window: &str,
) -> Result<usize, StoreError> {
    let state = registry.state(window);
    let folded = {
        let _exclusive = state.lock_exclusive();
        compact_window(dirs, window)?
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
) -> Result<CompactReport, StoreError> {
    let mut report = CompactReport::default();
    for window in dirs.windows()? {
        match compact_window_registered(dirs, registry, &window) {
            Ok(0) => {}
            Ok(n) => report.windows.push((window, n)),
            Err(e) => report.errors.push((window, e.to_string())),
        }
    }
    Ok(report)
}
