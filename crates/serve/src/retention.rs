//! Retention: bound the daemon's raw tier without ever deleting an
//! unpacked sample.
//!
//! Raw segments are the unbounded tier — every collector session adds
//! one, and a daemon left running without compaction accumulates them
//! forever. Retention *ages a window's raw tier out* by forcing the
//! window through the ordinary compaction path: its fresh segments
//! are folded durably into the packed store (fsync-then-rename, the
//! manifest protocol unchanged) and only then deleted. Aging out
//! never discards data — an aged-out window still answers every query
//! from its packed store and summary; what it loses is per-session
//! granularity, which is exactly what compaction always trades away.
//!
//! Two policies, combinable (a window aged by either is aged):
//!
//! * **`--retain-raw-windows N`** caps how many windows may hold raw
//!   segments. Windows are ranked by *recency* — the highest arrival
//!   sequence number among their fresh segments, which is
//!   deterministic across restarts, unlike wall-clock mtimes — and
//!   every window below the top `N` is aged out.
//! * **`--retain-age SECS`** ages out any window whose newest fresh
//!   segment is older than `SECS` seconds (by file mtime — the only
//!   per-segment timestamp the store keeps).
//!
//! The sweep runs on the daemon's background thread (every
//! [`crate::server::RETENTION_PERIOD`], independent of
//! `--compact-secs`) and takes each aged window's exclusive registry
//! lock only for that window's own pass, so retention never stalls
//! ingest or queries elsewhere.

use std::collections::BTreeSet;
use std::time::{Duration, SystemTime};

use memprof_store::StoreError;

use crate::compact::compact_window_registered;
use crate::registry::WindowRegistry;
use crate::store::{leading_seq, StoreDirs};

/// Which raw tiers to age out (see the module docs). Inactive (both
/// `None`) means retention never runs.
#[derive(Clone, Debug, Default)]
pub struct RetentionPolicy {
    /// Keep raw segments only in the `N` most recently active
    /// windows.
    pub raw_windows: Option<usize>,
    /// Age out raw tiers whose newest segment is older than this many
    /// seconds.
    pub age_secs: Option<u64>,
}

impl RetentionPolicy {
    pub fn is_active(&self) -> bool {
        self.raw_windows.is_some() || self.age_secs.is_some()
    }
}

/// What one retention sweep did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// `(window, raw segments folded away)` per aged-out window.
    pub aged: Vec<(String, usize)>,
    /// Windows whose forced compaction failed, with the error.
    pub errors: Vec<(String, String)>,
}

impl RetentionReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (window, n) in &self.aged {
            out.push_str(&format!("aged out {window}: {n} raw segments packed\n"));
        }
        for (window, err) in &self.errors {
            out.push_str(&format!("retention on {window} failed: {err}\n"));
        }
        out
    }
}

/// A window's standing in the retention ranking: its label, recency
/// (highest fresh-segment arrival sequence), and newest fresh-segment
/// mtime.
struct Standing {
    window: String,
    latest_seq: u64,
    newest: Option<SystemTime>,
}

/// One retention sweep: rank every window holding fresh raw segments,
/// pick the ones the policy ages out, and force each through a
/// compaction pass under its own exclusive lock.
pub fn enforce_retention(
    dirs: &StoreDirs,
    registry: &WindowRegistry,
    policy: &RetentionPolicy,
) -> Result<RetentionReport, StoreError> {
    let mut report = RetentionReport::default();
    if !policy.is_active() {
        return Ok(report);
    }

    let mut standings: Vec<Standing> = Vec::new();
    for window in dirs.windows()? {
        let fresh = dirs.live_raw_segments(&window)?.fresh;
        if fresh.is_empty() {
            continue;
        }
        let latest_seq = fresh
            .iter()
            .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).and_then(leading_seq))
            .max()
            .unwrap_or(0);
        let newest = fresh
            .iter()
            .filter_map(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())
            .max();
        standings.push(Standing {
            window,
            latest_seq,
            newest,
        });
    }

    let mut to_age: BTreeSet<String> = BTreeSet::new();
    if let Some(keep) = policy.raw_windows {
        // Most recent first; ties (hand-placed segments) break by
        // label so the sweep is deterministic.
        standings.sort_by(|a, b| {
            b.latest_seq
                .cmp(&a.latest_seq)
                .then_with(|| a.window.cmp(&b.window))
        });
        for s in standings.iter().skip(keep) {
            to_age.insert(s.window.clone());
        }
    }
    if let Some(secs) = policy.age_secs {
        let horizon = Duration::from_secs(secs);
        let now = SystemTime::now();
        for s in &standings {
            let expired = s
                .newest
                .and_then(|t| now.duration_since(t).ok())
                .is_some_and(|age| age > horizon);
            if expired {
                to_age.insert(s.window.clone());
            }
        }
    }

    for window in to_age {
        match compact_window_registered(dirs, registry, &window) {
            Ok(n) => report.aged.push((window, n)),
            Err(e) => report.errors.push((window, e.to_string())),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_policy_does_nothing() {
        let policy = RetentionPolicy::default();
        assert!(!policy.is_active());
        let dirs = StoreDirs {
            root: std::path::PathBuf::from("/nonexistent-retention-test"),
        };
        // Never touches the (nonexistent) store when inactive.
        let report = enforce_retention(&dirs, &WindowRegistry::new(), &policy).unwrap();
        assert_eq!(report, RetentionReport::default());
    }
}
