//! memprof-serve — an always-on profiling aggregation service.
//!
//! The paper's workflow is batch: run `collect`, get an experiment,
//! analyze it offline. This crate turns that into a service for
//! fleet-style profiling: a daemon (`mp-serve`) that accepts MPES v2
//! event streams from many concurrent collectors over a socket
//! ([`wire`]), lands them as raw segments with the same crash-safety
//! guarantees as local streaming ([`server`]), folds them into
//! per-window packed stores and summaries in the background
//! ([`compact`], [`store`], [`summary`]), and answers analyzer-view
//! queries from the tiers ([`query`](mod@query)). Tier access is
//! coordinated per window ([`registry`]): compaction of one window
//! never blocks ingest, queries, or live `watch` subscriptions on
//! another, and retention ([`retention`]) bounds the raw tier by aging
//! idle windows through the same compaction path.
//!
//! The design invariant throughout is *offline equivalence*: every
//! artifact the daemon produces is byte-identical to what the offline
//! tools would have produced from the same inputs — a landed raw
//! segment matches `mp-collect --stream` output, a compacted store
//! matches `mp-store merge` over the same segments, and query answers
//! match `mp-store stat --json` / `mp-store diff` on those stores.
//! The service adds availability, not a second format.

pub mod compact;
pub mod query;
pub mod registry;
pub mod retention;
pub mod server;
pub mod sink;
pub mod store;
pub mod summary;
pub mod wire;

pub use compact::{
    compact_all_registered, compact_window, compact_window_registered, CompactCache, CompactReport,
};
pub use query::{answer, watch_frame, window_aggregate, window_syms, QueryOutcome};
pub use registry::{ExclusiveGuard, SharedGuard, WindowRegistry, WindowState};
pub use retention::{enforce_retention, RetentionPolicy, RetentionReport};
pub use server::{query, watch, Server, ServerConfig, WatchClient};
pub use sink::SocketSink;
pub use store::{parse_manifest, render_manifest, Manifest, RawTier, StoreDirs};
pub use summary::{parse_summary, read_summary, render_summary, write_summary};
