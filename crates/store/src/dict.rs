//! The in-memory merge: parallel input decode, in-place fold.
//!
//! An experiment holds the collector's interned form: a stack table
//! and fixed-size events naming a stack by its index. So a merge never
//! touches a frame: it appends each input's table to the merged one
//! and shifts that input's stack ids by the number of stacks already
//! there. Nothing is hashed, and a stack several inputs share is
//! listed once per input. [`crate::merge_streams`] applies the same
//! rule to `MPES` images, chunk by chunk, so decoding its output gives
//! this fold's result field for field.
//!
//! * **load** ([`load_inputs`]): each reference decodes to a full
//!   [`Experiment`], one input per core on scoped threads — every
//!   per-event decode happens here, and it scales with cores;
//! * **fold** ([`merge_inputs`]): the merged experiment grows the
//!   *first* input's table and event vectors in place — reserved once
//!   for every later input, which then appends with its ids shifted —
//!   so no third full-size vector is allocated beside the inputs.
//!
//! The output holds the events and frames of the
//! load-everything-then-[`crate::merge_loaded`] path, which the tests
//! pin.

use std::num::NonZeroUsize;

use memprof_core::{Experiment, RunInfo, StackId};

use crate::{check_compatible_headers, recipe, ExperimentRef, StoreError};

/// Decode every reference into a full [`Experiment`], the inputs
/// split across one scoped thread per available core (at most one
/// thread per input; a single-core host decodes serially with no
/// spawn). Inputs come back in argument order regardless of which
/// thread decoded them.
pub(crate) fn load_inputs(refs: &[ExperimentRef]) -> Result<Vec<Experiment>, StoreError> {
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(refs.len());
    if threads <= 1 {
        return refs.iter().map(ExperimentRef::load).collect();
    }
    let per = refs.len().div_ceil(threads);
    let chunks: Vec<Result<Vec<Experiment>, StoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = refs
            .chunks(per)
            .map(|chunk| scope.spawn(move || chunk.iter().map(ExperimentRef::load).collect()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut inputs = Vec::with_capacity(refs.len());
    for chunk in chunks {
        inputs.extend(chunk?);
    }
    Ok(inputs)
}

/// The run summary of a merge over `n_counters` counters: the first
/// run's exit code and clock rate, the runs' program output
/// concatenated, and their dropped-overflow and event counts summed.
/// Every merge — [`merge_inputs`], [`crate::merge_loaded`] and
/// [`crate::merge_streams`] — sums runs here.
pub(crate) fn merged_run<'a>(
    n_counters: usize,
    runs: impl IntoIterator<Item = &'a RunInfo>,
) -> RunInfo {
    let mut merged = RunInfo {
        dropped: vec![0; n_counters],
        ..RunInfo::default()
    };
    for (i, run) in runs.into_iter().enumerate() {
        if i == 0 {
            merged.exit_code = run.exit_code;
            merged.clock_hz = run.clock_hz;
        }
        merged.output.push_str(&run.output);
        for (dst, src) in merged.dropped.iter_mut().zip(&run.dropped) {
            *dst += src;
        }
        let (c, e) = (&mut merged.counts, &run.counts);
        c.cycles += e.cycles;
        c.insts += e.insts;
        c.ic_miss += e.ic_miss;
        c.dc_read_miss += e.dc_read_miss;
        c.dtlb_miss += e.dtlb_miss;
        c.ec_ref += e.ec_ref;
        c.ec_read_miss += e.ec_read_miss;
        c.ec_stall_cycles += e.ec_stall_cycles;
        c.loads += e.loads;
        c.stores += e.stores;
    }
    merged
}

/// Fold decoded inputs into one merged [`Experiment`] by moving them:
/// stack tables and event vectors concatenate in input order (each
/// later input's stack ids shifted past the tables before it), run
/// summaries sum ([`merged_run`]) and the logs concatenate — the
/// events and frames of [`crate::merge_loaded`], without hashing a
/// single stack. The merged vectors are the first input's, grown in
/// place.
pub(crate) fn merge_inputs(mut inputs: Vec<Experiment>) -> Result<Experiment, StoreError> {
    let (first, rest) = inputs
        .split_first()
        .ok_or(StoreError::Incompatible("nothing to merge".to_string()))?;
    for other in rest {
        check_compatible_headers(recipe(first), recipe(other))?;
    }
    let n_stacks = inputs.iter().map(|e| e.stacks.len()).sum::<usize>();
    StackId::try_from(n_stacks).expect("more than 2^32 callstacks");
    let run = merged_run(first.counters.len(), inputs.iter().map(|e| &e.run));
    let n_hwc = inputs.iter().map(|e| e.hwc_events.len()).sum::<usize>();
    let n_clock = inputs.iter().map(|e| e.clock_events.len()).sum::<usize>();
    let first = &mut inputs[0];
    let mut stacks = std::mem::take(&mut first.stacks);
    stacks.reserve_exact(n_stacks - stacks.len());
    let mut hwc_events = std::mem::take(&mut first.hwc_events);
    hwc_events.reserve_exact(n_hwc - hwc_events.len());
    let mut clock_events = std::mem::take(&mut first.clock_events);
    clock_events.reserve_exact(n_clock - clock_events.len());
    let mut merged = Experiment {
        counters: first.counters.clone(),
        clock_period: first.clock_period,
        stacks,
        hwc_events,
        clock_events,
        run,
        log: Vec::new(),
    };
    // The first input's table and events are already in place: its
    // vectors are empty now, so the loop appends only the later
    // inputs'.
    for mut exp in inputs {
        // Every shifted id stays below `n_stacks`, checked above.
        let base = merged.stacks.len() as StackId;
        for e in &mut exp.hwc_events {
            e.stack += base;
        }
        for e in &mut exp.clock_events {
            e.stack += base;
        }
        merged.stacks.append(&mut exp.stacks);
        merged.hwc_events.append(&mut exp.hwc_events);
        merged.clock_events.append(&mut exp.clock_events);
        merged.log.append(&mut exp.log);
    }
    Ok(merged)
}
