//! The merge pipeline: parallel input decode, in-place fold.
//!
//! An experiment holds the collector's interned form: a stack table
//! and fixed-size events naming a stack by its index. So a merge never
//! touches a frame: it appends each input's table to the merged one
//! and shifts that input's stack ids by the number of stacks already
//! there. Nothing is hashed, and a stack several inputs share is
//! listed once per input; [`crate::pack_experiment`] collapses such
//! duplicates when the merge is written out.
//!
//! * **load** ([`load_inputs`]): each reference decodes to a full
//!   [`Experiment`] on its own scoped thread — every per-event decode
//!   happens here, and it scales with cores;
//! * **fold** ([`merge_inputs`]): the merged experiment grows the
//!   *first* input's table and event vectors in place — reserved once
//!   for every later input, which then appends with its ids shifted —
//!   so no third full-size vector is allocated beside the inputs.
//!
//! The output holds the events and frames of the
//! load-everything-then-[`crate::merge_loaded`] path, which the tests
//! pin, and a caller holding an already-merged window can seed the
//! fold with it ([`crate::merge_experiments_with`]) instead of
//! re-reading its packed form — the incremental-compaction fast path.
//! The seeded and re-read merges number their stacks differently, but
//! packing depends only on each event's frames, so both write the
//! same bytes.

use std::num::NonZeroUsize;

use memprof_core::{Experiment, StackId};

use crate::{check_compatible, ExperimentRef, StoreError};

/// Decode every reference into a full [`Experiment`], `shards` inputs
/// at a time (0 = auto; every request is capped by the available
/// parallelism, so a single-core host decodes serially with no spawn
/// overhead). Inputs come back in argument order regardless of which
/// thread decoded them.
pub(crate) fn load_inputs(
    refs: &[ExperimentRef],
    shards: usize,
) -> Result<Vec<Experiment>, StoreError> {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let shards = match shards {
        0 => hw,
        n => n.min(hw),
    }
    .min(refs.len().max(1));
    if shards <= 1 {
        return refs.iter().map(ExperimentRef::load).collect();
    }
    let per = refs.len().div_ceil(shards);
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

/// Fold decoded inputs into one merged [`Experiment`] by moving them:
/// stack tables and event vectors concatenate in input order (each
/// later input's stack ids shifted past the tables before it), run
/// summaries and ground-truth counts sum, and the logs concatenate
/// under `merged from` markers — the events and frames of
/// [`crate::merge_loaded`], without hashing a single stack. The merged
/// vectors are the first input's, grown in place.
pub(crate) fn merge_inputs(mut inputs: Vec<Experiment>) -> Result<Experiment, StoreError> {
    let (first, rest) = inputs
        .split_first_mut()
        .ok_or(StoreError::Incompatible("nothing to merge".to_string()))?;
    for other in rest.iter() {
        check_compatible(first, other)?;
    }
    let n_stacks = first.stacks.len() + rest.iter().map(|e| e.stacks.len()).sum::<usize>();
    StackId::try_from(n_stacks).expect("more than 2^32 callstacks");
    let mut stacks = std::mem::take(&mut first.stacks);
    stacks.reserve_exact(n_stacks - stacks.len());
    let mut hwc_events = std::mem::take(&mut first.hwc_events);
    hwc_events.reserve_exact(rest.iter().map(|e| e.hwc_events.len()).sum());
    let mut clock_events = std::mem::take(&mut first.clock_events);
    clock_events.reserve_exact(rest.iter().map(|e| e.clock_events.len()).sum());
    let mut merged = Experiment {
        counters: first.counters.clone(),
        clock_period: first.clock_period,
        stacks,
        hwc_events,
        clock_events,
        ..Experiment::default()
    };
    merged.run.clock_hz = first.run.clock_hz;
    merged.run.exit_code = first.run.exit_code;
    merged.run.dropped = vec![0; first.counters.len()];
    // The first input's table and events are already in place: its
    // vectors are empty now, so the loop appends only the later
    // inputs'.
    for (i, mut exp) in inputs.into_iter().enumerate() {
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
        merged.run.output.push_str(&exp.run.output);
        for (dst, src) in merged.run.dropped.iter_mut().zip(&exp.run.dropped) {
            *dst += src;
        }
        let (c, e) = (&mut merged.run.counts, &exp.run.counts);
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
        merged.log.push(format!("merged from experiment {i}"));
        merged.log.append(&mut exp.log);
    }
    Ok(merged)
}
