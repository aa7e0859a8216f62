//! Streaming collection support: interned callstacks and the sink
//! interface the collector spills through.
//!
//! The paper's collector runs for the whole life of the target (~550 s
//! of MCF, millions of overflow traps) with <10% overhead (§3.2). A
//! collector that clones the full callstack per sample and buffers
//! every event in RAM cannot do that, so the hook records *packed*
//! events — a fixed-size record holding a `u32` id into a
//! [`CallstackTable`] instead of a `Vec<u64>` clone — and, in
//! streaming mode, flushes completed segments through a
//! [`CollectSink`] whenever the spill threshold is reached. Peak event
//! memory is O(segment size) + O(distinct callstacks), not O(total
//! events).
//!
//! These records are the one event form: the `MPES` format and the
//! wire carry them, and an [`crate::Experiment`] holds them beside the
//! stack table their ids index.
//!
//! The sink trait lives here (not in `memprof-store`) because the
//! crate dependency points the other way: the store implements
//! `CollectSink` with its packed on-disk format, and anything else —
//! a socket, a test buffer — can too.

use std::collections::HashMap;

use crate::counters::CounterRequest;
use crate::experiment::RunInfo;

/// Index into a [`CallstackTable`].
pub type StackId = u32;

/// Interning table for callstacks: each distinct stack is stored once
/// and events refer to it by a dense `u32` id. Profiled programs
/// revisit the same call paths constantly, so the table stays small
/// while the event streams grow unbounded.
#[derive(Default)]
pub struct CallstackTable {
    ids: HashMap<Vec<u64>, StackId>,
    stacks: Vec<Vec<u64>>,
    lookups: u64,
    hits: u64,
}

impl CallstackTable {
    pub fn new() -> CallstackTable {
        CallstackTable::default()
    }

    /// Intern `frames`, returning its id. Existing stacks are found
    /// without allocating; new ones are copied once.
    pub fn intern(&mut self, frames: &[u64]) -> StackId {
        self.lookups += 1;
        if let Some(&id) = self.ids.get(frames) {
            self.hits += 1;
            return id;
        }
        let id = u32::try_from(self.stacks.len()).expect("more than 2^32 distinct callstacks");
        self.ids.insert(frames.to_vec(), id);
        self.stacks.push(frames.to_vec());
        id
    }

    /// Number of distinct stacks interned so far. Ids are dense:
    /// `0..len()` are all valid.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// The table itself, indexed by id.
    pub fn into_stacks(self) -> Vec<Vec<u64>> {
        self.stacks
    }

    /// The stacks interned at or after index `start`, in id order —
    /// what an incremental spill sends so the sink's table stays in
    /// sync without retransmitting the whole pool.
    pub fn stacks_from(&self, start: usize) -> &[Vec<u64>] {
        &self.stacks[start..]
    }

    /// Total `intern` calls.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// `intern` calls that found an existing stack.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// One hardware-counter overflow event, as the collector records it;
/// the callstack is a [`StackId`] into the events' stack table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedHwcEvent {
    /// Index into the experiment's counter list.
    pub counter: usize,
    /// PC delivered with the overflow signal (next instruction to
    /// issue — *not* the trigger; §2.2.2).
    pub delivered_pc: u64,
    /// Candidate trigger PC found by the apropos backtracking search,
    /// if backtracking was requested and found a memory-reference
    /// instruction within range.
    pub candidate_pc: Option<u64>,
    /// Putative effective data address, when the candidate's address
    /// registers were provably not clobbered during the skid.
    pub ea: Option<u64>,
    /// Interned callstack at delivery: call-site PCs, outermost first.
    pub stack: StackId,
    /// Ground-truth trigger PC from the simulator. Real hardware does
    /// not expose this; it is recorded *only* so the effectiveness
    /// experiments can score the backtracking search. The analyzer
    /// never reads it.
    pub truth_trigger_pc: u64,
    /// Ground-truth effective address of the triggering access (same
    /// caveat); `None` for events with no data address.
    pub truth_ea: Option<u64>,
    /// Ground-truth skid in retired instructions (same caveat).
    pub truth_skid: u32,
}

/// One clock-profiling tick (`-p on`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedClockEvent {
    /// PC of the next instruction to issue at the tick.
    pub pc: u64,
    /// Interned callstack at the tick, outermost first.
    pub stack: StackId,
}

/// Where a streaming collection run writes its data. Implemented by
/// `memprof_store::SegmentWriter` (the packed on-disk format); tests
/// implement it with in-memory buffers.
///
/// Call order: `begin` once, then any interleaving of `stacks` /
/// `hwc_segment` / `clock_segment` (stack ids are dense and
/// cumulative: every id referenced by a segment has been sent by a
/// preceding `stacks` call), then `finish` once. A sink must make each
/// completed segment durable independently, so a crashed run leaves a
/// readable prefix.
pub trait CollectSink {
    /// The collection recipe, before any events.
    fn begin(
        &mut self,
        counters: &[CounterRequest],
        clock_period: Option<u64>,
        clock_hz: u64,
    ) -> std::io::Result<()>;

    /// Newly interned callstacks, in id order continuing from the
    /// previous call.
    fn stacks(&mut self, stacks: &[Vec<u64>]) -> std::io::Result<()>;

    /// One completed segment of hardware-counter events, in collection
    /// order.
    fn hwc_segment(&mut self, events: &[PackedHwcEvent]) -> std::io::Result<()>;

    /// One completed segment of clock-profiling ticks, in collection
    /// order.
    fn clock_segment(&mut self, events: &[PackedClockEvent]) -> std::io::Result<()>;

    /// The run summary and experiment log, after the last segment.
    fn finish(&mut self, run: &RunInfo, log: &[String]) -> std::io::Result<()>;

    /// Bytes made durable so far (for the collector's self-report).
    fn bytes_written(&self) -> u64;
}

/// Streaming-mode collection parameters.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Flush buffered events through the sink once this many are
    /// pending (hwc + clock combined). Bounds peak event memory.
    pub spill_events: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        // ~8K packed events ≈ a few hundred KB buffered, spilled a few
        // times per second at the paper's sample rates.
        StreamConfig { spill_events: 8192 }
    }
}

/// Cost model for the collector's §3.2-style overhead estimate: cycles
/// charged per delivered sample (trap entry, backtracking search,
/// callstack intern, buffering). The real tool's SIGEMT/SIGPROF
/// handlers cost on the order of a microsecond at 900 MHz.
pub const EST_CYCLES_PER_SAMPLE: u64 = 1000;

/// The collector's self-observability report for one streaming run —
/// what §3.2 measures about the tool itself, emitted into the
/// experiment log and returned to the caller.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Hardware-counter overflow events recorded.
    pub hwc_events: u64,
    /// Clock-profiling ticks recorded.
    pub clock_events: u64,
    /// Overflow traps dropped per counter (interval too small).
    pub dropped: Vec<u64>,
    /// Distinct callstacks interned.
    pub distinct_stacks: usize,
    /// Total intern lookups.
    pub intern_lookups: u64,
    /// Lookups that hit an existing stack.
    pub intern_hits: u64,
    /// Segments flushed through the sink (including the final one).
    pub segments_spilled: u64,
    /// Bytes the sink reported durable.
    pub bytes_written: u64,
    /// Largest number of events buffered at once (the memory bound).
    pub peak_buffered_events: usize,
    /// Estimated collection overhead as a percentage of run cycles
    /// (samples × [`EST_CYCLES_PER_SAMPLE`] / total cycles).
    pub estimated_overhead_pct: f64,
}

impl StreamStats {
    /// Intern-table hit rate in percent (100 when nothing was looked
    /// up — an empty run wastes nothing).
    pub fn intern_hit_rate_pct(&self) -> f64 {
        if self.intern_lookups == 0 {
            100.0
        } else {
            100.0 * self.intern_hits as f64 / self.intern_lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_counts() {
        let mut t = CallstackTable::new();
        let a = t.intern(&[0x10, 0x20]);
        let b = t.intern(&[0x10, 0x30]);
        let a2 = t.intern(&[0x10, 0x20]);
        let empty = t.intern(&[]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 3);
        assert_eq!((t.lookups(), t.hits()), (4, 1));
        let stacks = t.into_stacks();
        assert_eq!(stacks[a as usize], [0x10, 0x20]);
        assert_eq!(stacks[empty as usize], [] as [u64; 0]);
    }

    #[test]
    fn stacks_from_yields_the_unspilled_suffix() {
        let mut t = CallstackTable::new();
        t.intern(&[1]);
        t.intern(&[2]);
        let watermark = t.len();
        t.intern(&[3]);
        t.intern(&[2]); // hit, no new stack
        assert_eq!(t.stacks_from(watermark), &[vec![3]]);
        assert_eq!(t.stacks_from(t.len()), &[] as &[Vec<u64>]);
    }

    #[test]
    fn event_records_stay_fixed_size() {
        assert_eq!(std::mem::size_of::<PackedHwcEvent>(), 80);
        assert_eq!(std::mem::size_of::<PackedClockEvent>(), 16);
    }

    #[test]
    fn hit_rate_handles_empty_runs() {
        let stats = StreamStats::default();
        assert_eq!(stats.intern_hit_rate_pct(), 100.0);
        let stats = StreamStats {
            intern_lookups: 8,
            intern_hits: 6,
            ..StreamStats::default()
        };
        assert!((stats.intern_hit_rate_pct() - 75.0).abs() < 1e-9);
    }
}
