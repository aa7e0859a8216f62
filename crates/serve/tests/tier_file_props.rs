//! The daemon's two on-disk text formats — the tier-2 summary
//! (`MPSUM 3`) and the compaction manifest (`MPCM 2`) — never panic on
//! hostile input. Every input, whether arbitrary bytes, a truncation
//! or a single-byte replacement of a rendered file, either fails to
//! parse or parses to a value whose render parses back to an equal
//! value.

use std::collections::BTreeMap;

use memprof_serve::{parse_manifest, parse_summary, render_manifest, render_summary, Manifest};
use memprof_store::{ColSpec, PairHistogram};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use simsparc_machine::CounterEvent;

/// `text` parses as a summary only to a value that round-trips.
fn check_summary(text: &str) -> Result<(), TestCaseError> {
    let Ok(first) = parse_summary(text) else {
        return Ok(());
    };
    let again = parse_summary(&render_summary(&first.pairs, first.syms.as_deref()));
    prop_assert!(again.is_ok(), "render of {text:?} does not parse");
    let again = again.unwrap();
    prop_assert_eq!(&again.pairs, &first.pairs);
    prop_assert_eq!(&again.syms, &first.syms);
    Ok(())
}

/// `text` parses as a manifest only to a value that round-trips.
fn check_manifest(text: &str) -> Result<(), TestCaseError> {
    if let Some(first) = parse_manifest(text) {
        prop_assert_eq!(parse_manifest(&render_manifest(&first)), Some(first));
    }
    Ok(())
}

/// Both parsers on `bytes`, read as lossy UTF-8.
fn check_both(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    check_summary(&text)?;
    check_manifest(&text)
}

/// Every truncation of `rendered`, and every replacement of one byte
/// by any other value.
fn check_damage(rendered: &str) -> Result<(), TestCaseError> {
    let bytes = rendered.as_bytes();
    for cut in 0..=bytes.len() {
        check_both(&bytes[..cut])?;
    }
    let mut damaged = bytes.to_vec();
    for i in 0..bytes.len() {
        for b in 0..=u8::MAX {
            if b != bytes[i] {
                damaged[i] = b;
                check_both(&damaged)?;
            }
        }
        damaged[i] = bytes[i];
    }
    Ok(())
}

/// The words either grammar is made of, plus a few near misses.
const TOKENS: &[&str] = &[
    "MPSUM 3\n",
    "MPSUM 2\n",
    "MPSUM 1\n",
    "MPCM 2\n",
    "MPCM 1\n",
    "packed ",
    "column ",
    "clock ",
    "hwc ",
    "pc ",
    "at ",
    "- ",
    "clock_hz ",
    "syms ",
    "none",
    "ecstall ",
    "dtlbm ",
    "0 ",
    "1 ",
    "7 ",
    "16 ",
    "+3 ",
    "-1 ",
    "ff",
    "18446744073709551615 ",
    "18446744073709551616 ",
    " ",
    "\n",
    "\r\n",
    "\r",
    "x.mpes",
    "é",
];

fn summary_of(
    columns: &[(bool, usize, bool, u64)],
    keys: &[(bool, u64, u64, Vec<u64>)],
) -> PairHistogram {
    let columns: Vec<ColSpec> = columns
        .iter()
        .map(|&(clock, event, backtrack, n)| {
            if clock {
                ColSpec::Clock { period: n }
            } else {
                ColSpec::Hwc {
                    event: CounterEvent::ALL[event],
                    backtrack,
                    interval: n,
                }
            }
        })
        .collect();
    let width = columns.len();
    let pairs: BTreeMap<(Option<u64>, u64), Vec<u64>> = keys
        .iter()
        .map(|(backtracked, candidate, delivered, samples)| {
            let samples = samples.iter().copied().cycle().take(width).collect();
            ((backtracked.then_some(*candidate), *delivered), samples)
        })
        .collect();
    let totals = (0..width)
        .map(|c| pairs.values().map(|s| s[c]).sum())
        .collect();
    PairHistogram {
        columns,
        clock_hz: 900_000_000,
        pairs,
        totals,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and arbitrary sequences of the grammars' own
    /// words, after each header or none.
    #[test]
    fn arbitrary_text_never_panics(
        header in select(&["", "MPSUM 3\nclock_hz 7\n", "MPSUM 2\n", "MPCM 2\npacked "]),
        raw in vec(any::<u8>(), 0..200),
        words in vec(select(TOKENS), 0..40),
    ) {
        let mut bytes = header.as_bytes().to_vec();
        bytes.extend_from_slice(&raw);
        check_both(&bytes)?;
        let mut text = header.to_string();
        text.extend(words);
        check_both(text.as_bytes())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A rendered summary carrying a symbol table parses back to exactly
    /// what was rendered; it and a rendered manifest, cut at every point
    /// and with every byte replaced by every other value, never panic.
    #[test]
    fn rendered_tier_files_survive_every_cut_and_byte_replacement(
        columns in vec((any::<bool>(), 0usize..8, any::<bool>(), 1u64..100_000), 1..3),
        keys in vec((any::<bool>(), 0x1_0000u64..0x1_0100, 0x1_0000u64..0x1_0100, vec(0u64..1000, 1..3)), 0..4),
        syms in vec(select(&["simsparc-syms text_base=0x10000\n", "pc 16 1\n", "syms none\n", "func main 0x10000 64\n"]), 1..3),
        packed in any::<u64>(),
        consumed in vec(select(&["0000000001-a.mpes", "0000000002-run.mpes", "x"]), 0..3),
    ) {
        let pairs = summary_of(&columns, &keys);
        let table = syms.concat();
        let text = render_summary(&pairs, Some(&table));
        let back = parse_summary(&text).unwrap();
        prop_assert_eq!(&back.pairs, &pairs);
        prop_assert_eq!(back.syms.as_deref(), Some(table.as_str()));
        check_damage(&text)?;
        let manifest = Manifest {
            packed,
            consumed: consumed.iter().map(|s| s.to_string()).collect(),
        };
        check_damage(&render_manifest(&manifest))?;
    }
}
