//! The decision engine: from an [`Analysis`] of a profiled run to
//! concrete, independently measurable optimization decisions.
//!
//! Every rule here is a mechanization of a §3.3 sentence:
//!
//! * *"re-arranging the members of the node and arc structures
//!   according to their frequency of reference"* — [`Decision::Reorder`],
//!   from the Figure 7 per-member expansion of each hot structure;
//! * *"padding the node structure from 120 to 128 bytes"* — the
//!   `pad_to` on the same decision, chosen so the E$ line size is a
//!   multiple of the padded extent;
//! * *"aligning the node and arc structures on cache lines"* —
//!   [`Decision::HeapAlign`], from the instance view's
//!   straddle fraction (the paper's "28% of these 120-byte data
//!   objects end up split this way");
//! * *"-xpagesize_heap=512k"* — [`Decision::HeapPageSize`], when the
//!   estimated DTLB penalty is material and the heap footprint exceeds
//!   the TLB's reach at the current page size;
//! * §4's prefetch feedback — [`Decision::Prefetch`], monotone-EA
//!   loads above a miss-share threshold.
//!
//! The engine only *proposes*; the driver measures each proposal in
//! isolation and rejects any that do not pay for themselves.

use memprof_core::analyze::Analysis;
use minic::{Feedback, PrefetchHint, ReorderHint};
use simsparc_machine::{CounterEvent, MachineConfig, TlbConfig, SUPPORTED_PAGE_BYTES};

/// One candidate optimization, expressible as a `minic` feedback
/// stanza (plus, for the page size, a machine-configuration knob).
#[derive(Clone, Debug)]
pub enum Decision {
    /// Re-lay a structure: hottest members first, optionally padded,
    /// optionally with heap allocations aligned so whole objects map
    /// into E$ lines. The paper's §3.3 fix is exactly this bundle —
    /// "padding the node structure with an additional 8 bytes,
    /// aligning node and arc structures on cache lines, and
    /// re-arranging the members ... according to their frequency of
    /// reference" is *one* change, measured as one.
    Reorder {
        hint: ReorderHint,
        align: Option<u64>,
    },
    /// Align every heap allocation to this boundary (cache line)
    /// without touching any layout — emitted alone only when a hot
    /// structure straddles lines but its member order is already
    /// optimal.
    HeapAlign(u64),
    /// Map the heap segment with pages of this size.
    HeapPageSize(u64),
    /// Insert prefetches at these source points.
    Prefetch(Vec<PrefetchHint>),
}

impl Decision {
    /// Fold this decision into a feedback state.
    pub fn apply(&self, fb: &mut Feedback) {
        match self {
            Decision::Reorder { hint, align } => {
                fb.reorders.push(hint.clone());
                if let Some(a) = align {
                    fb.heap_align = Some(fb.heap_align.unwrap_or(0).max(*a));
                }
            }
            Decision::HeapAlign(a) => fb.heap_align = Some(*a),
            Decision::HeapPageSize(p) => fb.heap_page_bytes = Some(*p),
            Decision::Prefetch(hints) => fb.hints.extend(hints.iter().cloned()),
        }
    }

    /// One-line rendering, stable enough for tests and reports.
    pub fn describe(&self) -> String {
        match self {
            Decision::Reorder { hint, align } => {
                let pad = hint.pad_to.map(|p| format!(" pad={p}")).unwrap_or_default();
                let align = align.map(|a| format!(" align={a}")).unwrap_or_default();
                format!(
                    "reorder {} [{}]{}{}",
                    hint.struct_name,
                    hint.order.join(","),
                    pad,
                    align
                )
            }
            Decision::HeapAlign(a) => format!("heapalign {a}"),
            Decision::HeapPageSize(p) => format!("pagesize_heap {p}"),
            Decision::Prefetch(hints) => {
                let sites: Vec<String> = hints
                    .iter()
                    .map(|h| format!("{}:{}", h.function, h.line))
                    .collect();
                format!("prefetch [{}]", sites.join(","))
            }
        }
    }
}

/// Thresholds and machine geometry for the decision engine.
#[derive(Clone, Debug)]
pub struct DecideConfig {
    /// E$ line size — the padding/alignment target.
    pub ec_line_bytes: u64,
    /// TLB geometry, for the page-size reach computation.
    pub tlb: TlbConfig,
    /// Current heap page size.
    pub heap_page_bytes: u64,
    /// Cycles charged per DTLB miss (for the penalty-share estimate).
    pub tlb_miss_penalty: u64,
    /// A structure must carry this share of the ranking column to be
    /// worth re-laying.
    pub min_struct_share: f64,
    /// A member is "hot" above this share of its structure's samples.
    pub min_member_share: f64,
    /// Padding may grow a structure by at most this factor.
    pub max_pad_factor: f64,
    /// Propose heap alignment when at least this fraction of
    /// referenced instances straddle an E$ line.
    pub straddle_threshold: f64,
    /// Propose larger pages when the estimated DTLB penalty exceeds
    /// this share of total cycles.
    pub tlb_share_threshold: f64,
    /// Minimum miss share for a prefetch site (§4).
    pub prefetch_min_share: f64,
    /// Prefetch lookahead distance in bytes.
    pub prefetch_lookahead: i64,
}

impl DecideConfig {
    /// Defaults for a machine configuration: geometry from the
    /// machine, paper-informed thresholds.
    pub fn for_machine(m: &MachineConfig) -> DecideConfig {
        DecideConfig {
            ec_line_bytes: m.ecache.line_bytes,
            tlb: m.tlb,
            heap_page_bytes: m.heap_page_bytes,
            tlb_miss_penalty: m.tlb_miss_penalty,
            min_struct_share: 0.15,
            min_member_share: 0.05,
            max_pad_factor: 1.5,
            straddle_threshold: 0.10,
            tlb_share_threshold: 0.01,
            prefetch_min_share: 0.05,
            prefetch_lookahead: m.ecache.line_bytes as i64,
        }
    }
}

/// Derive candidate decisions from a profiled-run analysis.
///
/// `heap_bytes` is the workload's heap footprint (for the page-size
/// reach test); `applied` is the feedback state already in force —
/// decisions it covers are not proposed again, which is what makes
/// the driver's iteration converge to a fixed point.
pub fn decide(
    a: &Analysis,
    heap_bytes: u64,
    cfg: &DecideConfig,
    applied: &Feedback,
) -> Vec<Decision> {
    let mut out = Vec::new();

    // Ranking column: prefer the stall counter (cycles lost — what
    // §3.3 optimizes), fall back to read misses.
    let rank_col = a
        .col_by_event(CounterEvent::ECStallCycles)
        .or_else(|| a.col_by_event(CounterEvent::ECReadMiss))
        .or_else(|| a.col_by_event(CounterEvent::DCReadMiss));

    let mut hot_structs: Vec<String> = Vec::new();
    if let Some(col) = rank_col {
        let rows = a.data_objects(col);
        let total = rows.first().map(|t| t.samples[col]).unwrap_or(0);
        if total > 0 {
            for row in &rows[1..] {
                let Some(name) = row
                    .name
                    .strip_prefix("{structure:")
                    .and_then(|s| s.strip_suffix(" -}"))
                else {
                    continue;
                };
                let share = row.samples[col] as f64 / total as f64;
                if share < cfg.min_struct_share {
                    continue;
                }
                hot_structs.push(name.to_string());
            }
        }
    }

    // Structure fixes. Alignment is part of the reorder bundle (as in
    // §3.3); it is proposed standalone only when a hot structure
    // straddles E$ lines but needs no member changes.
    let mut standalone_align = false;
    for name in &hot_structs {
        let straddles = applied.heap_align.is_none()
            && a.instances(name, cfg.ec_line_bytes, 1)
                .is_some_and(|rep| rep.straddle_fraction >= cfg.straddle_threshold);
        // Structures are *selected* by what they cost (stall), but
        // members are *ordered* by §3.3's "frequency of reference" —
        // the E$ reference counter, when collected. Stall samples
        // cluster on the first member touched per object visit and
        // under-rank the pointer-walk members referenced every
        // iteration.
        let member_col = a
            .col_by_event(CounterEvent::ECRef)
            .or(rank_col)
            .unwrap_or(0);
        if applied.reorder_for(name).is_none() {
            if let Some(hint) = reorder_hint(a, name, member_col, cfg) {
                out.push(Decision::Reorder {
                    hint,
                    align: straddles.then_some(cfg.ec_line_bytes),
                });
                continue;
            }
        }
        standalone_align |= straddles;
    }
    if standalone_align {
        out.push(Decision::HeapAlign(cfg.ec_line_bytes));
    }

    // Page size: estimated DTLB penalty share of total cycles, heap
    // footprint against the TLB's reach.
    if applied.heap_page_bytes.is_none() {
        if let Some(d) = pagesize_decision(a, heap_bytes, cfg) {
            out.push(d);
        }
    }

    // Prefetch: §4 feedback from the miss counter, minus sites
    // already hinted.
    if let Some(col) = a
        .col_by_event(CounterEvent::ECReadMiss)
        .or_else(|| a.col_by_event(CounterEvent::DCReadMiss))
    {
        let fb = a.prefetch_feedback(col, cfg.prefetch_min_share, cfg.prefetch_lookahead);
        let fresh: Vec<PrefetchHint> = fb
            .hints
            .into_iter()
            .filter(|h| applied.lookahead_for(&h.function, h.line).is_none())
            .collect();
        if !fresh.is_empty() {
            out.push(Decision::Prefetch(fresh));
        }
    }

    out
}

/// Figure 7 → a `reorder` stanza: hot members (by sample count) move
/// to the front; the extent is padded so that an E$ line holds a
/// whole number of objects (or vice versa), the paper's 120 → 128.
fn reorder_hint(
    a: &Analysis,
    struct_name: &str,
    col: usize,
    cfg: &DecideConfig,
) -> Option<ReorderHint> {
    let sinfo = a.syms.struct_by_name(struct_name)?;
    let exp = a.expand_struct(struct_name)?;
    let struct_total: u64 = exp.members.iter().map(|(_, _, s)| s[col]).sum();
    if struct_total == 0 || sinfo.fields.len() < 2 {
        return None;
    }

    // `expand_struct` returns members in layout order, i.e. field
    // order; pair them up to recover raw member names.
    debug_assert_eq!(exp.members.len(), sinfo.fields.len());
    let mut ranked: Vec<(String, u64, u64)> = sinfo
        .fields
        .iter()
        .zip(&exp.members)
        .map(|(f, (off, _, samples))| (f.name.clone(), samples[col], *off))
        .collect();
    // §3.3 re-arranges "according to their frequency of reference":
    // the full permutation, hottest first. The offset tiebreak keeps
    // unsampled members in their original relative order, so a cold
    // tail is left untouched.
    ranked.sort_by_key(|x| (std::cmp::Reverse(x.1), x.2));

    // Only worth a decision if some member is measurably hot.
    let hottest_share = ranked[0].1 as f64 / struct_total as f64;
    if hottest_share < cfg.min_member_share {
        return None;
    }
    let order: Vec<String> = ranked.iter().map(|(name, _, _)| name.clone()).collect();

    // Padding: make object extent and E$ line commensurate so that
    // consecutive heap instances stop straddling lines.
    let line = cfg.ec_line_bytes;
    let size = sinfo.size;
    let pad_to = if !size.is_multiple_of(line) && !line.is_multiple_of(size) {
        let padded = if size < line {
            size.next_power_of_two()
        } else {
            size.div_ceil(line) * line
        };
        (padded as f64 <= size as f64 * cfg.max_pad_factor).then_some(padded)
    } else {
        None
    };

    // No hot prefix to move and nothing to pad: not a decision.
    let identity = order
        .iter()
        .enumerate()
        .all(|(i, name)| sinfo.fields[i].name == *name);
    if (order.is_empty() || identity) && pad_to.is_none() {
        return None;
    }

    Some(ReorderHint {
        struct_name: struct_name.to_string(),
        order,
        pad_to,
    })
}

/// §3.3's `-xpagesize_heap`: if the estimated DTLB-miss penalty is a
/// material share of run time and the heap does not fit the TLB's
/// reach, step up to the smallest supported page size that covers it.
fn pagesize_decision(a: &Analysis, heap_bytes: u64, cfg: &DecideConfig) -> Option<Decision> {
    let col = a.col_by_event(CounterEvent::DTLBMiss)?;
    let totals = a.totals();
    let est_misses = totals.get(col).copied().unwrap_or(0) * a.columns[col].interval;
    let cycles = a
        .experiments
        .iter()
        .map(|e| e.run.counts.cycles)
        .max()
        .unwrap_or(0);
    if cycles == 0 {
        return None;
    }
    let share = (est_misses * cfg.tlb_miss_penalty) as f64 / cycles as f64;
    if share < cfg.tlb_share_threshold {
        return None;
    }
    if cfg.tlb.reach_bytes(cfg.heap_page_bytes) >= heap_bytes {
        return None; // already covered; misses come from elsewhere
    }
    let target = SUPPORTED_PAGE_BYTES
        .iter()
        .copied()
        .filter(|&p| p > cfg.heap_page_bytes)
        .find(|&p| cfg.tlb.reach_bytes(p) >= heap_bytes)
        .or_else(|| {
            SUPPORTED_PAGE_BYTES
                .last()
                .copied()
                .filter(|&p| p > cfg.heap_page_bytes)
        })?;
    Some(Decision::HeapPageSize(target))
}
