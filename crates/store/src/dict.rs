//! The merge pipeline: parallel input decode, in-place fold.
//!
//! An earlier revision of this module folded every input through a
//! *shared* callstack dictionary: text inputs interned each decoded
//! event's stack, stream tables were remapped id-for-id, and the
//! merged store materialized every callstack from the shared table at
//! the end. Measuring that path showed the dictionary to be
//! pure overhead for this output shape: a merged [`Experiment`]
//! carries each event's callstack as an owned `Vec<u64>`, so every
//! stack must be materialized per *event* regardless — the shared
//! table deduplicated storage that was about to be duplicated anyway,
//! at the cost of an intern hash per event, a remap pass per input,
//! and a second materialization pass over the whole event set.
//!
//! The pipeline is now two phases with all per-event work in the
//! parallel one:
//!
//! * **load** ([`load_inputs`]): each reference decodes to a full
//!   [`Experiment`] on its own scoped thread (`MPES` files decode
//!   their chunks against their own intern table, text directories
//!   parse) — this is where every
//!   per-event allocation happens, and it scales with cores;
//! * **fold** ([`merge_inputs`]): the merged experiment grows the
//!   *first* input's event vectors in place — reserved once for every
//!   later input, which then appends by memmove — so no third
//!   full-size vector is allocated beside the inputs. Stacks travel as
//!   already-owned `Vec`s, and only the run summaries and logs are
//!   actually computed. The serial tail of the merge is one
//!   reallocation of the first input's vectors plus a memmove per
//!   later input.
//!
//! The output is byte-identical to the load-everything-then-
//! [`crate::merge_loaded`] path, which the tests pin, and a caller
//! holding an already-merged window can seed the fold with it
//! ([`crate::merge_experiments_with`]) instead of re-reading its
//! packed form — the incremental-compaction fast path.

use std::num::NonZeroUsize;

use memprof_core::Experiment;

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
/// event vectors concatenate in input order, run summaries and
/// ground-truth counts sum, and the logs concatenate under
/// `merged from` markers — replicating [`crate::merge_loaded`]
/// exactly, without cloning a single event. The merged event vectors
/// are the first input's, grown in place.
pub(crate) fn merge_inputs(mut inputs: Vec<Experiment>) -> Result<Experiment, StoreError> {
    let (first, rest) = inputs
        .split_first_mut()
        .ok_or(StoreError::Incompatible("nothing to merge".to_string()))?;
    for other in rest.iter() {
        check_compatible(first, other)?;
    }
    let mut hwc_events = std::mem::take(&mut first.hwc_events);
    hwc_events.reserve_exact(rest.iter().map(|e| e.hwc_events.len()).sum());
    let mut clock_events = std::mem::take(&mut first.clock_events);
    clock_events.reserve_exact(rest.iter().map(|e| e.clock_events.len()).sum());
    let mut merged = Experiment {
        counters: first.counters.clone(),
        clock_period: first.clock_period,
        hwc_events,
        clock_events,
        ..Experiment::default()
    };
    merged.run.clock_hz = first.run.clock_hz;
    merged.run.exit_code = first.run.exit_code;
    merged.run.dropped = vec![0; first.counters.len()];
    // The first input's events are already in place: its vectors are
    // empty now, so the loop appends only the later inputs'.
    for (i, mut exp) in inputs.into_iter().enumerate() {
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
