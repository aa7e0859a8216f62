//! The daemon's on-disk layout: three tiers per time window, plus a
//! staging area for in-flight sessions.
//!
//! ```text
//! DATA/
//!   ingest/WINDOW@SESSION.part   active collector sessions (unsealed)
//!   raw/WINDOW/SESSION.mpes      tier 0: sealed raw segments (MPES v3)
//!   packed/WINDOW.mps            tier 1: merged packed store (MPES v3)
//!   packed/WINDOW.consumed       tier 1: compaction manifest (MPCM)
//!   summary/WINDOW.sum           tier 2: per-PC aggregate + symbol table (MPSUM)
//! ```
//!
//! A session streams into `ingest/` and is *sealed* — atomically
//! renamed into its window's tier-0 directory — when the collector
//! sends END or disconnects. The window label is embedded in the
//! staging file name (the `@` separator appears in neither window
//! labels nor session ids) so a daemon restart can seal leftover
//! staging files from a crashed boot into the right window.
//! Compaction folds a window's tier-0 segments (plus any previous
//! tier-1 store) into a fresh tier-1 store, refreshes the tier-2
//! summary, and deletes the consumed segments; storage per window is
//! then the merged store, whose events do not multiply with the
//! collectors that streamed into it, though it keeps each session's
//! stack table.
//!
//! The **compaction manifest** (`packed/WINDOW.consumed`) makes that
//! deletion crash-safe. It names the raw segments folded into the
//! packed store, fingerprinted by the store's XXH64 hash:
//!
//! ```text
//! MPCM 2
//! packed <xxh64 of packed store bytes, 16 hex digits>
//! <raw segment file name>
//! ...
//! ```
//!
//! The manifest is published (durably) *before* the packed store it
//! describes, so the hash only ever matches once the new store has
//! landed; a raw segment listed by a hash-valid manifest is already
//! folded in and must be skipped by queries and deleted — not
//! re-merged — by the next compaction pass. A manifest whose hash
//! does not match the current packed store describes a compaction
//! that never completed and is ignored, and so is a manifest that does
//! not parse — any other first line included.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use memprof_store::{xxh64, StoreError, StreamFile};

/// Window labels become directory components; reject anything that
/// could escape the data directory or collide with tier suffixes.
pub fn valid_label(label: &str) -> bool {
    !label.is_empty()
        && label.len() <= 64
        && label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        && !label.starts_with('.')
}

/// Write `bytes` to `path` durably: temp file in the same directory,
/// `fsync`, atomic rename, then `fsync` of the parent directory so
/// the rename itself survives a power loss. Callers that delete
/// inputs after this returns (compaction) can rely on the output
/// actually being on disk, not just in page cache.
pub(crate) fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let name = path
        .file_name()
        .ok_or(StoreError::Corrupt("durable write to a pathless target"))?
        .to_string_lossy();
    let tmp = path.with_file_name(format!("{name}.tmp"));
    let mut file = std::fs::File::create(&tmp).map_err(|e| StoreError::Io(e).at(&tmp))?;
    file.write_all(bytes)
        .map_err(|e| StoreError::Io(e).at(&tmp))?;
    file.sync_all().map_err(|e| StoreError::Io(e).at(&tmp))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::Io(e).at(path))?;
    match path.parent() {
        Some(dir) => sync_dir(dir),
        None => Ok(()),
    }
}

/// `fsync` a directory, so the entries just created in it or renamed
/// into it survive a power loss. Every durable tier write ends with
/// one, and so does sealing a session.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::Io(e).at(dir))
}

/// A window's compaction manifest: which raw segments the current
/// packed store already contains (see the module docs for the crash
/// protocol).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// XXH64 (seed 0) of the packed store the `consumed` list refers
    /// to.
    pub packed: u64,
    /// File names (not paths) of the folded-in raw segments.
    pub consumed: Vec<String>,
}

/// Render a manifest into the MPCM text format.
pub fn render_manifest(m: &Manifest) -> String {
    let mut out = format!("MPCM 2\npacked {:016x}\n", m.packed);
    for name in &m.consumed {
        out.push_str(name);
        out.push('\n');
    }
    out
}

/// Parse the MPCM text format; `None` on any damage (a damaged
/// manifest is treated like a missing one — conservative, since the
/// hash check is what authorizes skipping raw segments). Lines end at
/// `\n` alone, as [`render_manifest`] writes them, so a name keeps
/// every other byte it holds.
pub fn parse_manifest(text: &str) -> Option<Manifest> {
    let mut lines = text.split('\n');
    if lines.next()? != "MPCM 2" {
        return None;
    }
    let hex = lines.next()?.strip_prefix("packed ")?;
    let packed = u64::from_str_radix(hex, 16).ok()?;
    let consumed = lines
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    Some(Manifest { packed, consumed })
}

/// A window's tier-0 contents, split by the compaction manifest.
#[derive(Clone, Debug, Default)]
pub struct RawTier {
    /// Segments not yet folded into the packed store: queries must
    /// merge these in, compaction consumes them.
    pub fresh: Vec<PathBuf>,
    /// Leftovers from a compaction that crashed after publishing the
    /// packed store but before deleting its inputs: their events are
    /// already in the packed tier, so queries skip them and the next
    /// compaction deletes them without re-merging.
    pub stale: Vec<PathBuf>,
}

/// The leading arrival-sequence number of a session file name
/// (`0000000012-name` → 12). Retention ranks window recency with it.
pub(crate) fn leading_seq(name: &str) -> Option<u64> {
    let end = name
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(name.len());
    name[..end].parse().ok()
}

/// The daemon's data directory, with helpers for every tier path.
#[derive(Clone, Debug)]
pub struct StoreDirs {
    pub root: PathBuf,
}

impl StoreDirs {
    /// Open (creating if needed) the data directory and its tier
    /// subdirectories.
    pub fn create(root: &Path) -> std::io::Result<StoreDirs> {
        for sub in ["ingest", "raw", "packed", "summary"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(StoreDirs {
            root: root.to_path_buf(),
        })
    }

    pub fn ingest_dir(&self) -> PathBuf {
        self.root.join("ingest")
    }

    pub fn ingest_path(&self, window: &str, session: &str) -> PathBuf {
        self.ingest_dir().join(format!("{window}@{session}.part"))
    }

    pub fn raw_dir(&self, window: &str) -> PathBuf {
        self.root.join("raw").join(window)
    }

    pub fn raw_path(&self, window: &str, session: &str) -> PathBuf {
        self.raw_dir(window).join(format!("{session}.mpes"))
    }

    pub fn packed_path(&self, window: &str) -> PathBuf {
        self.root.join("packed").join(format!("{window}.mps"))
    }

    /// Open a window's packed tier, if it has one. Every reader of
    /// the tier goes through here. Compaction only ever writes whole
    /// stores, so a packed tier without its footer — cut short, or a
    /// damaged chunk that ended the readable prefix — is an error
    /// naming the store, never a prefix to aggregate or to merge (and
    /// then write back over the damage as if it were whole).
    pub fn open_packed(&self, window: &str) -> Result<Option<StreamFile>, StoreError> {
        let path = self.packed_path(window);
        if !path.exists() {
            return Ok(None);
        }
        let store = StreamFile::open(&path)?;
        if !store.is_complete() {
            let why = store.truncation().unwrap_or("packed store has no footer");
            return Err(StoreError::Corrupt(why).at(&path));
        }
        Ok(Some(store))
    }

    pub fn manifest_path(&self, window: &str) -> PathBuf {
        self.root.join("packed").join(format!("{window}.consumed"))
    }

    pub fn summary_path(&self, window: &str) -> PathBuf {
        self.root.join("summary").join(format!("{window}.sum"))
    }

    /// Sealed raw segments of a window, sorted by file name — session
    /// ids embed a zero-padded arrival sequence number, so this order
    /// is the daemon's canonical merge order. Includes stale
    /// leftovers; most callers want [`StoreDirs::live_raw_segments`].
    pub fn raw_segments(&self, window: &str) -> Result<Vec<PathBuf>, StoreError> {
        let dir = self.raw_dir(window);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| StoreError::Io(e).at(&dir))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "mpes"))
            .collect();
        files.sort();
        Ok(files)
    }

    /// A window's raw segments split into fresh and stale (see
    /// [`RawTier`]) using the compaction manifest. The manifest only
    /// applies when its hash matches the current packed store —
    /// otherwise every segment on disk is fresh.
    pub fn live_raw_segments(&self, window: &str) -> Result<RawTier, StoreError> {
        let raws = self.raw_segments(window)?;
        let manifest = std::fs::read_to_string(self.manifest_path(window))
            .ok()
            .and_then(|t| parse_manifest(&t));
        let Some(manifest) = manifest else {
            return Ok(RawTier {
                fresh: raws,
                stale: Vec::new(),
            });
        };
        let listed = |p: &PathBuf| {
            p.file_name()
                .is_some_and(|n| manifest.consumed.iter().any(|c| c.as_str() == n))
        };
        if !raws.iter().any(listed) {
            return Ok(RawTier {
                fresh: raws,
                stale: Vec::new(),
            });
        }
        // Some on-disk segments are named by the manifest: hash the
        // packed store to decide whether they were really folded in.
        let valid = std::fs::read(self.packed_path(window))
            .is_ok_and(|bytes| xxh64(&bytes, 0) == manifest.packed);
        if !valid {
            return Ok(RawTier {
                fresh: raws,
                stale: Vec::new(),
            });
        }
        let (stale, fresh) = raws.into_iter().partition(listed);
        Ok(RawTier { fresh, stale })
    }

    /// The highest arrival sequence number recorded anywhere in the
    /// store — staging files, sealed raw segments, and manifest
    /// entries (whose segments may already be deleted). A restarted
    /// daemon seeds its session counter above this so session ids
    /// never collide with (and so never overwrite or get mistaken
    /// for) earlier boots' data.
    pub fn max_existing_seq(&self) -> u64 {
        let mut max = 0u64;
        let mut see = |name: &str| {
            if let Some(seq) = leading_seq(name) {
                max = max.max(seq);
            }
        };
        if let Ok(entries) = std::fs::read_dir(self.ingest_dir()) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "part") {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        if let Some((_, session)) = stem.split_once('@') {
                            see(session);
                        }
                    }
                }
            }
        }
        if let Ok(windows) = self.windows() {
            for window in windows {
                for raw in self.raw_segments(&window).unwrap_or_default() {
                    if let Some(stem) = raw.file_stem().and_then(|s| s.to_str()) {
                        see(stem);
                    }
                }
                if let Ok(text) = std::fs::read_to_string(self.manifest_path(&window)) {
                    if let Some(manifest) = parse_manifest(&text) {
                        for name in &manifest.consumed {
                            see(name);
                        }
                    }
                }
            }
        }
        max
    }

    /// Every window known to any tier, sorted.
    pub fn windows(&self) -> Result<Vec<String>, StoreError> {
        let mut names = std::collections::BTreeSet::new();
        let raw_root = self.root.join("raw");
        for entry in std::fs::read_dir(&raw_root).map_err(|e| StoreError::Io(e).at(&raw_root))? {
            let entry = entry.map_err(StoreError::Io)?;
            if entry.path().is_dir() {
                names.insert(entry.file_name().to_string_lossy().to_string());
            }
        }
        for (sub, ext) in [("packed", "mps"), ("summary", "sum")] {
            let dir = self.root.join(sub);
            for entry in std::fs::read_dir(&dir).map_err(|e| StoreError::Io(e).at(&dir))? {
                let path = entry.map_err(StoreError::Io)?.path();
                if path.extension().is_some_and(|x| x == ext) {
                    if let Some(stem) = path.file_stem() {
                        names.insert(stem.to_string_lossy().to_string());
                    }
                }
            }
        }
        Ok(names.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_sanitized() {
        assert!(valid_label("w1"));
        assert!(valid_label("2026-08-07_run.3"));
        assert!(!valid_label(""));
        assert!(!valid_label("../escape"));
        assert!(!valid_label("a/b"));
        assert!(!valid_label(".hidden"));
        assert!(!valid_label(&"x".repeat(65)));
    }

    #[test]
    fn manifests_round_trip() {
        let m = Manifest {
            packed: 0xdead_beef_0123_4567,
            consumed: vec!["0000000001-a.mpes".into(), "0000000002-b.mpes".into()],
        };
        assert_eq!(parse_manifest(&render_manifest(&m)), Some(m));
        assert_eq!(parse_manifest(""), None);
        assert_eq!(parse_manifest("MPCM 3\npacked 00\n"), None);
        assert_eq!(parse_manifest("MPCM 2\nhash zz\n"), None);
        assert_eq!(parse_manifest("MPCM 2\npacked zz\n"), None);
        let empty = parse_manifest("MPCM 2\npacked 0000000000000000\n").unwrap();
        assert!(empty.consumed.is_empty());
        // A version-1 manifest parses as damaged, so it is ignored.
        assert_eq!(
            parse_manifest("MPCM 1\npacked 00000000000000ff\nx.mpes\n"),
            None
        );
    }

    #[test]
    fn sequence_numbers_parse_from_session_names() {
        assert_eq!(leading_seq("0000000012-run"), Some(12));
        assert_eq!(leading_seq("0042-old-padding"), Some(42));
        assert_eq!(leading_seq("9"), Some(9));
        assert_eq!(leading_seq("session"), None);
        assert_eq!(leading_seq(""), None);
    }

    #[test]
    fn stale_segments_need_a_hash_valid_manifest() {
        let dir = std::env::temp_dir().join(format!(
            "memprof_serve_manifest_{}_{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let dirs = StoreDirs::create(&dir).unwrap();
        std::fs::create_dir_all(dirs.raw_dir("w")).unwrap();
        let raw = dirs.raw_path("w", "0000000001-run");
        std::fs::write(&raw, b"segment bytes").unwrap();
        std::fs::write(dirs.packed_path("w"), b"packed bytes").unwrap();

        // No manifest: the segment is fresh.
        let tier = dirs.live_raw_segments("w").unwrap();
        assert_eq!((tier.fresh.len(), tier.stale.len()), (1, 0));

        // Manifest naming it with the right packed hash: stale.
        let consumed = vec!["0000000001-run.mpes".to_string()];
        let split = |text: String| {
            std::fs::write(dirs.manifest_path("w"), text).unwrap();
            let tier = dirs.live_raw_segments("w").unwrap();
            (tier.fresh.len(), tier.stale.len())
        };
        let manifest = |packed: u64| {
            render_manifest(&Manifest {
                packed,
                consumed: consumed.clone(),
            })
        };
        let hash = xxh64(b"packed bytes", 0);
        assert_eq!(split(manifest(hash)), (0, 1));
        assert_eq!(dirs.live_raw_segments("w").unwrap().stale, [raw]);

        // Wrong hash (interrupted compaction), or the right hash in a
        // version-1 manifest, which no longer parses: fresh again.
        assert_eq!(split(manifest(1)), (1, 0));
        let version1 = manifest(hash).replacen("MPCM 2", "MPCM 1", 1);
        assert_eq!(split(version1), (1, 0));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
