//! [`EventStream`] — a uniform, header-first handle on an experiment
//! in either on-disk representation.
//!
//! Tools that only aggregate (`mp-store stat`, `diff`) need the
//! collection recipe, a few run-summary fields, and one pass over the
//! events. For an `MPES` file all of that is available without
//! decoding the full experiment: the header and footer decode on open
//! and the event chunks stream straight into a columnar
//! [`memprof_core::EventBatch`]. Text directories have no sub-file
//! index, so they load fully — but through the same interface, so the
//! callers cannot tell the difference.

use memprof_core::{CounterRequest, EventBatch, Experiment};

use crate::writer::StreamFile;
use crate::{ExperimentRef, StoreError};

/// An experiment opened just far enough to aggregate it.
pub enum EventStream {
    /// A text directory, fully loaded (the format has no index to
    /// stream from).
    Loaded(Experiment),
    /// An `MPES` file (packed store or collector stream): chunks
    /// indexed, events still encoded.
    Stream(StreamFile),
}

impl EventStream {
    /// Open a reference with the cheapest representation available.
    pub fn open(r: &ExperimentRef) -> Result<EventStream, StoreError> {
        use crate::PathContext as _;
        match r {
            ExperimentRef::TextDir(dir) => Ok(EventStream::Loaded(
                Experiment::load(dir)
                    .map_err(StoreError::Io)
                    .path_context(dir)?,
            )),
            ExperimentRef::Packed(file) => Ok(EventStream::Stream(StreamFile::open(file)?)),
        }
    }

    pub fn counters(&self) -> &[CounterRequest] {
        match self {
            EventStream::Loaded(e) => &e.counters,
            EventStream::Stream(s) => s.counters(),
        }
    }

    pub fn clock_period(&self) -> Option<u64> {
        match self {
            EventStream::Loaded(e) => e.clock_period,
            EventStream::Stream(s) => s.clock_period(),
        }
    }

    pub fn clock_hz(&self) -> u64 {
        match self {
            EventStream::Loaded(e) => e.run.clock_hz,
            EventStream::Stream(s) => s.run().clock_hz,
        }
    }

    pub fn exit_code(&self) -> i64 {
        match self {
            EventStream::Loaded(e) => e.run.exit_code,
            EventStream::Stream(s) => s.run().exit_code,
        }
    }

    /// Total overflow events across all counters (from the chunk
    /// index for an `MPES` file).
    pub fn hwc_total(&self) -> usize {
        match self {
            EventStream::Loaded(e) => e.hwc_events.len(),
            EventStream::Stream(s) => s.hwc_total(),
        }
    }

    /// Total clock-profiling ticks.
    pub fn clock_total(&self) -> usize {
        match self {
            EventStream::Loaded(e) => e.clock_events.len(),
            EventStream::Stream(s) => s.clock_count(),
        }
    }

    /// Append this source's events to a columnar batch in the pc
    /// projection (see [`memprof_core::EventBatch::grow_pc_rows`]),
    /// with counter `c` landing in column `hwc_col[c]` and clock ticks
    /// in `clock_col`: only the columns a per-PC histogram reads are
    /// materialized, with the charge-PC rule
    /// ([`memprof_core::charged_pc`]) applied inline as events are
    /// decoded. `MPES` files decode their event chunks straight into
    /// the batch — no stack is decoded on this path.
    pub fn fill_pc_batch(
        &self,
        batch: &mut EventBatch,
        hwc_col: &[usize],
        clock_col: Option<usize>,
    ) -> Result<(), StoreError> {
        match self {
            EventStream::Loaded(e) => {
                if let Some(col) = clock_col {
                    memprof_core::fill_clock_pc_rows(batch, col, &e.clock_events);
                }
                memprof_core::fill_hwc_pc_rows(batch, &e.counters, hwc_col, &e.hwc_events);
                Ok(())
            }
            EventStream::Stream(s) => s.fill_pc_batch(batch, hwc_col, clock_col),
        }
    }
}
