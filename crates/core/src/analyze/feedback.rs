//! Feedback-file generation (§4: "the experiments contain the
//! information necessary to know which memory references cause the
//! cache-misses, the data can be used to construct a feedback file,
//! allowing a recompilation of the target to be done with the
//! insertion of prefetch instructions").

use minic::{Feedback, PrefetchHint};

use super::Analysis;
use crate::batch::AttrTag;

impl Analysis<'_> {
    /// Build a prefetch feedback file from a miss column: every
    /// validated data-object load whose share of the column exceeds
    /// `min_share` *and whose reconstructed effective addresses
    /// advance monotonically* (a streaming scan) becomes a hint at its
    /// `(function, line)` with `lookahead` bytes of distance.
    ///
    /// The monotonicity test is what the paper's §4 means by "event
    /// data addresses can be further analyzed": a pointer chase has
    /// scattered EAs and is skipped — prefetching it would only
    /// pollute the caches, because the next address *is* the loaded
    /// value.
    pub fn prefetch_feedback(&self, col: usize, min_share: f64, lookahead: i64) -> Feedback {
        // An out-of-range column or one with no samples at all (an
        // experiment that simply saw no misses) has no shares to
        // compare: every hint would divide by zero and trivially
        // clear (or NaN past) any threshold. No misses, no hints.
        let totals = self.totals();
        let total = match totals.get(col) {
            Some(&t) if t > 0 => t,
            _ => return Feedback::default(),
        };

        // Per PC: sample count and the EA sequence in event order
        // (the batch preserves collection order within a column, so
        // this must stay an ordered scan, not a kernel fold).
        let b = &self.batch;
        let mut per_pc: std::collections::HashMap<u64, (u64, Vec<u64>)> =
            std::collections::HashMap::new();
        for i in 0..b.len() {
            if b.col[i] as usize != col || b.tag[i] != AttrTag::Data {
                continue;
            }
            let entry = per_pc.entry(b.pc[i]).or_default();
            entry.0 += 1;
            if let Some(ea) = b.ea_of(i) {
                entry.1.push(ea);
            }
        }

        let mut hints: Vec<PrefetchHint> = Vec::new();
        for (pc, (samples, eas)) in per_pc {
            let share = samples as f64 / total as f64;
            if share < min_share || eas.len() < 8 {
                continue;
            }
            // Streaming detector: the overwhelming majority of
            // successive sampled EAs move forward.
            let forward = eas.windows(2).filter(|w| w[1] > w[0]).count();
            let monotonic = forward as f64 / (eas.len() - 1) as f64;
            if monotonic < 0.85 {
                continue;
            }
            let Some(func) = self.syms.func_at(pc) else {
                continue;
            };
            let Some(line) = self.syms.line_at(pc) else {
                continue;
            };
            let hint = PrefetchHint {
                function: func.name.clone(),
                line,
                lookahead,
            };
            if !hints.contains(&hint) {
                hints.push(hint);
            }
        }
        hints.sort_by(|a, b| (&a.function, a.line).cmp(&(&b.function, b.line)));
        Feedback {
            hints,
            ..Feedback::default()
        }
    }
}
