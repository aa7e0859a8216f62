//! Tier-2 summary stores: a window's attribution-key histogram and
//! its symbol table, persisted so aggregate queries over long
//! histories never rescan raw events or open the packed store.
//!
//! A summary is exactly a [`memprof_store::PairHistogram`] — the
//! clock rate, the column specs, per-column totals, and the
//! `(candidate, delivered)` → samples histogram — in a line-oriented
//! text format, followed by the packed store's `syms.txt` attachment
//! verbatim. All values are `u64`, so the round trip is exact. The
//! per-PC [`memprof_store::Aggregate`] behind `functions`, `stat`,
//! `diff` and `watch` is the histogram's projection, and Figure 6
//! (`objects`) attributes its keys with the table, so those queries
//! answer from tier 2 alone while staying byte-compatible with the
//! offline `mp-store` and `mp-er-print` over the tier-1 store.
//!
//! ```text
//! MPSUM 3
//! clock_hz <hz>
//! column clock <period> <total>
//! column hwc <event> <backtrack:0|1> <interval> <total>
//! at <candidate|-> <delivered> <samples>...
//! syms none | syms <byte length>
//! <the store's syms.txt, exactly that many bytes>
//! ```
//!
//! The symbol section is mandatory and last, and its length must
//! account for every remaining byte: a summary cut short anywhere, a
//! length that runs past the end, or any other first line is an error
//! naming the file — never an answer without symbols. The one
//! exception is the previous build's `MPSUM 2` (a per-PC histogram),
//! which [`read_summary`] reads as no summary: queries take the
//! packed-store fallback, and the window's next compaction pass writes
//! an `MPSUM 3` in its place.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::Path;

use memprof_store::{ColSpec, PairHistogram, PairKey, StoreError};
use simsparc_machine::CounterEvent;

/// The first line of every summary this build writes.
const HEADER: &str = "MPSUM 3\n";

/// The first line of the previous build's summaries, which read as no
/// summary.
const PREVIOUS: &str = "MPSUM 2\n";

/// A parsed tier-2 summary.
pub struct Summary {
    pub pairs: PairHistogram,
    /// The packed store's `syms.txt` attachment, verbatim; `None` when
    /// the store carries no table.
    pub syms: Option<String>,
}

/// Render a histogram and the store's symbol table text into the
/// summary format.
pub fn render_summary(pairs: &PairHistogram, syms: Option<&str>) -> String {
    let mut out = String::from(HEADER);
    writeln!(out, "clock_hz {}", pairs.clock_hz).unwrap();
    for (spec, total) in pairs.columns.iter().zip(&pairs.totals) {
        match spec {
            ColSpec::Clock { period } => {
                writeln!(out, "column clock {period} {total}").unwrap();
            }
            ColSpec::Hwc {
                event,
                backtrack,
                interval,
            } => {
                writeln!(
                    out,
                    "column hwc {} {} {interval} {total}",
                    event.name(),
                    *backtrack as u8
                )
                .unwrap();
            }
        }
    }
    for ((candidate, delivered), samples) in &pairs.pairs {
        match candidate {
            Some(c) => write!(out, "at {c} {delivered}").unwrap(),
            None => write!(out, "at - {delivered}").unwrap(),
        }
        for s in samples {
            write!(out, " {s}").unwrap();
        }
        out.push('\n');
    }
    match syms {
        Some(text) => {
            writeln!(out, "syms {}", text.len()).unwrap();
            out.push_str(text);
        }
        None => out.push_str("syms none\n"),
    }
    out
}

fn corrupt(why: &'static str) -> StoreError {
    StoreError::Corrupt(why)
}

fn number(field: Option<&&str>, why: &'static str) -> Result<u64, StoreError> {
    field.and_then(|s| s.parse().ok()).ok_or(corrupt(why))
}

/// Parse the summary format back into a [`PairHistogram`] and the
/// symbol table text.
pub fn parse_summary(text: &str) -> Result<Summary, StoreError> {
    let rest = text
        .strip_prefix(HEADER)
        .ok_or(corrupt("summary missing MPSUM 3 header"))?;
    let (line, mut rest) = rest
        .split_once('\n')
        .ok_or(corrupt("summary has no clock rate"))?;
    let clock_hz = match line.split_whitespace().collect::<Vec<_>>()[..] {
        ["clock_hz", hz] => hz.parse().map_err(|_| corrupt("bad clock rate"))?,
        _ => return Err(corrupt("summary has no clock rate")),
    };
    let mut columns: Vec<ColSpec> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    let mut pairs: BTreeMap<PairKey, Vec<u64>> = BTreeMap::new();
    loop {
        let (line, tail) = rest
            .split_once('\n')
            .ok_or(corrupt("summary has no symbol section"))?;
        rest = tail;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first().copied() {
            Some("column") => {
                if !pairs.is_empty() {
                    return Err(corrupt("column line after at lines"));
                }
                match fields.get(1).copied() {
                    Some("clock") => {
                        let &[period, total] = &fields[2..] else {
                            return Err(corrupt("malformed clock column line"));
                        };
                        columns.push(ColSpec::Clock {
                            period: period.parse().map_err(|_| corrupt("bad clock period"))?,
                        });
                        totals.push(total.parse().map_err(|_| corrupt("bad column total"))?);
                    }
                    Some("hwc") => {
                        let &[event, backtrack, interval, total] = &fields[2..] else {
                            return Err(corrupt("malformed hwc column line"));
                        };
                        let event = CounterEvent::parse(event)
                            .ok_or(corrupt("unknown counter event in summary"))?;
                        columns.push(ColSpec::Hwc {
                            event,
                            backtrack: match backtrack {
                                "0" => false,
                                "1" => true,
                                _ => return Err(corrupt("bad backtrack flag")),
                            },
                            interval: interval.parse().map_err(|_| corrupt("bad interval"))?,
                        });
                        totals.push(total.parse().map_err(|_| corrupt("bad column total"))?);
                    }
                    _ => return Err(corrupt("unknown column kind")),
                }
            }
            Some("at") => {
                let candidate = match fields.get(1) {
                    Some(&"-") => None,
                    c => Some(number(c, "bad candidate pc")?),
                };
                let delivered = number(fields.get(2), "bad delivered pc")?;
                let samples = fields[3..]
                    .iter()
                    .map(|s| s.parse().map_err(|_| corrupt("bad sample count")))
                    .collect::<Result<Vec<u64>, StoreError>>()?;
                if samples.len() != columns.len() {
                    return Err(corrupt("at line has wrong sample count"));
                }
                if pairs.insert((candidate, delivered), samples).is_some() {
                    return Err(corrupt("duplicate at line"));
                }
            }
            Some("syms") => {
                let syms = match fields[1..] {
                    ["none"] => None,
                    [len] => {
                        let len: usize = len
                            .parse()
                            .map_err(|_| corrupt("bad symbol table length"))?;
                        if len > rest.len() || !rest.is_char_boundary(len) {
                            return Err(corrupt("symbol table runs past the end of the summary"));
                        }
                        let (table, tail) = rest.split_at(len);
                        rest = tail;
                        Some(table.to_string())
                    }
                    _ => return Err(corrupt("malformed syms line")),
                };
                if !rest.is_empty() {
                    return Err(corrupt("bytes after the summary's symbol table"));
                }
                let pairs = PairHistogram {
                    columns,
                    clock_hz,
                    pairs,
                    totals,
                };
                return Ok(Summary { pairs, syms });
            }
            None => {}
            _ => return Err(corrupt("unknown summary line")),
        }
    }
}

/// Write a window summary to disk (durably: temp file + fsync +
/// rename, like every tier write — compaction deletes raw segments
/// on the strength of the tiers it wrote).
pub fn write_summary(
    path: &Path,
    pairs: &PairHistogram,
    syms: Option<&str>,
) -> Result<(), StoreError> {
    crate::store::write_durable(path, render_summary(pairs, syms).as_bytes())
}

/// Load a window summary from disk. `Ok(None)` when there is no file
/// or the file is the previous build's `MPSUM 2`; any other file that
/// does not parse is an error naming it.
pub fn read_summary(path: &Path) -> Result<Option<Summary>, StoreError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e).at(path)),
    };
    if text.starts_with(PREVIOUS) {
        return Ok(None);
    }
    parse_summary(&text).map(Some).map_err(|e| e.at(path))
}

/// Does [`read_summary`] read `path` as no summary? Reads only the
/// header: a compaction pass with nothing to fold uses it to
/// regenerate a missing or `MPSUM 2` summary.
pub(crate) fn summary_is_absent(path: &Path) -> bool {
    let mut head = [0u8; PREVIOUS.len()];
    match std::fs::File::open(path) {
        Ok(mut file) => file.read_exact(&mut head).is_ok() && head == *PREVIOUS.as_bytes(),
        Err(e) => e.kind() == std::io::ErrorKind::NotFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pairs() -> PairHistogram {
        let columns = vec![
            ColSpec::Clock { period: 10007 },
            ColSpec::Hwc {
                event: CounterEvent::ECStallCycles,
                backtrack: true,
                interval: 1009,
            },
        ];
        let mut pairs = BTreeMap::new();
        pairs.insert((None, 0x1000_0000u64), vec![3, 1]);
        pairs.insert((Some(0x1000_31b8u64), 0x1000_31c4u64), vec![0, 5]);
        pairs.insert((Some(0x1000_31b8u64), 0x1000_31c8u64), vec![0, 2]);
        PairHistogram {
            columns,
            clock_hz: 900_000_000,
            pairs,
            totals: vec![3, 8],
        }
    }

    /// A `syms.txt` body whose lines look like summary lines, so a
    /// parser that reads the table as lines would misparse it.
    const TABLE: &str = "simsparc-syms text_base=0x10000\nat - 16 1\nsyms none\n";

    #[test]
    fn summary_round_trips_exactly() {
        let pairs = sample_pairs();
        for syms in [None, Some(TABLE), Some("")] {
            let text = render_summary(&pairs, syms);
            let back = parse_summary(&text).unwrap();
            assert_eq!(back.pairs, pairs);
            assert_eq!(back.syms.as_deref(), syms);
            // Rendering the reload is byte-identical — the tier-2
            // parity guarantee — and so is its projection.
            assert_eq!(
                back.pairs.to_aggregate().render(),
                pairs.to_aggregate().render()
            );
            assert_eq!(render_summary(&back.pairs, back.syms.as_deref()), text);
        }
        // Two keys charged to one PC project to one row.
        let agg = pairs.to_aggregate();
        assert_eq!(agg.pc_samples.len(), 2);
        assert_eq!(agg.pc_samples[&0x1000_31b8], vec![0, 7]);
        assert_eq!(agg.totals, pairs.totals);
    }

    #[test]
    fn damaged_summaries_error_cleanly() {
        assert!(parse_summary("").is_err());
        assert!(parse_summary("MPSUM 4\nclock_hz 1\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 2\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 1\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 3\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 3\nclock_hz x\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 3\nclock_hz 1 2\nsyms none\n").is_err());
        let ok = "MPSUM 3\nclock_hz 1\ncolumn clock 5 1\nat - 16 1\nsyms none\n";
        assert!(parse_summary(ok).is_ok());
        for bad in [
            "column warp 1 2\n",
            "column clock 5 x\n",
            "column clock 5 1\nat - 16 1 2\n",
            "column clock 5 1\nat 16 1\n",
            "column clock 5 1\nat x 16 1\n",
            "column clock 5 1\nat - banana 1\n",
            "column clock 5 2\nat - 16 1\nat - 16 1\n",
            "column clock 5 1\nat - 16 1\ncolumn clock 7 1\n",
            "clock_hz 1\n",
            "pc 16 1\n",
        ] {
            let text = format!("MPSUM 3\nclock_hz 1\n{bad}syms none\n");
            assert!(parse_summary(&text).is_err(), "{bad:?}");
        }
    }

    /// The symbol section ends every summary, so damage there or a cut
    /// anywhere is an error, never a summary without its table.
    #[test]
    fn damaged_symbol_sections_error_cleanly() {
        let whole = render_summary(&sample_pairs(), Some(TABLE));
        assert!(parse_summary(&whole).is_ok());
        for cut in 0..whole.len() {
            assert!(parse_summary(&whole[..cut]).is_err(), "cut at {cut}");
        }
        let body = "MPSUM 3\nclock_hz 1\ncolumn clock 5 1\nat - 16 1\n";
        for section in [
            "syms 100\nshort\n",
            "syms 3\nlonger\n",
            "syms\n",
            "syms none extra\n",
            "syms -1\n",
            "syms 99999999999999999999999\n",
            "syms none\nat - 17 1\n",
        ] {
            let text = format!("{body}{section}");
            assert!(parse_summary(&text).is_err(), "{section:?}");
        }
    }

    #[test]
    fn missing_summaries_read_as_none_and_older_ones_fail() {
        let dir = std::env::temp_dir().join(format!(
            "memprof_serve_summary_{}_{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.sum");
        assert!(read_summary(&path).unwrap().is_none());
        assert!(summary_is_absent(&path));

        // The previous build's per-PC summary reads as none, so the
        // packed store answers and the next pass rewrites it.
        std::fs::write(&path, "MPSUM 2\ncolumn clock 5 1\npc 16 1\nsyms none\n").unwrap();
        assert!(read_summary(&path).unwrap().is_none());
        assert!(summary_is_absent(&path));

        // A version-1 summary is damage like any other, named by file.
        std::fs::write(&path, "MPSUM 1\ncolumn clock 5 1\npc 16 1\n").unwrap();
        let err = read_summary(&path).err().unwrap().to_string();
        assert!(err.contains("w.sum"), "{err}");
        assert!(err.contains("summary missing MPSUM 3 header"), "{err}");
        assert!(!summary_is_absent(&path));

        write_summary(&path, &sample_pairs(), None).unwrap();
        assert!(!summary_is_absent(&path));
        let back = read_summary(&path).unwrap().unwrap();
        assert_eq!(back.pairs, sample_pairs());
        assert_eq!(back.syms, None);

        std::fs::write(&path, "MPSUM 3\nclock_hz 1\ncolumn clock 5 1\n").unwrap();
        let err = read_summary(&path).err().unwrap().to_string();
        assert!(err.contains("w.sum"), "{err}");
        assert!(!summary_is_absent(&path));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
