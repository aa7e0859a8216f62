//! Tier-2 summary stores: a window's per-PC aggregate and its symbol
//! table, persisted so aggregate queries over long histories never
//! rescan raw events or open the packed store.
//!
//! A summary is exactly a [`memprof_store::Aggregate`] — the column
//! specs, per-column totals, and the PC → samples histogram — in a
//! line-oriented text format, followed by the packed store's
//! `syms.txt` attachment verbatim. All values are `u64`, so the round
//! trip is exact: rendering a reloaded summary is byte-identical to
//! rendering the aggregate it was written from, and the table is the
//! one the packed store carries. That is what lets `functions`,
//! `stat` and `diff` answer from tier 2 alone while staying
//! byte-compatible with offline `mp-store` over the tier-1 store.
//!
//! ```text
//! MPSUM 2
//! column clock <period> <total>
//! column hwc <event> <backtrack:0|1> <interval> <total>
//! pc <pc> <samples>...
//! syms none | syms <byte length>
//! <the store's syms.txt, exactly that many bytes>
//! ```
//!
//! The symbol section is mandatory and last, and its length must
//! account for every remaining byte: a summary cut short anywhere, a
//! length that runs past the end, or any other first line is an error
//! naming the file — never an answer without symbols.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use memprof_store::{Aggregate, ColSpec, StoreError};
use simsparc_machine::CounterEvent;

/// The first line of every summary this build writes.
const HEADER: &str = "MPSUM 2\n";

/// A parsed tier-2 summary.
pub struct Summary {
    pub agg: Aggregate,
    /// The packed store's `syms.txt` attachment, verbatim; `None` when
    /// the store carries no table.
    pub syms: Option<String>,
}

/// Render an aggregate and the store's symbol table text into the
/// summary format.
pub fn render_summary(agg: &Aggregate, syms: Option<&str>) -> String {
    let mut out = String::from(HEADER);
    for (spec, total) in agg.columns.iter().zip(&agg.totals) {
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
    for (pc, samples) in &agg.pc_samples {
        write!(out, "pc {pc}").unwrap();
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

/// Parse the summary format back into an [`Aggregate`] and the symbol
/// table text.
pub fn parse_summary(text: &str) -> Result<Summary, StoreError> {
    let mut rest = text
        .strip_prefix(HEADER)
        .ok_or(corrupt("summary missing MPSUM 2 header"))?;
    let mut columns: Vec<ColSpec> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    let mut pc_samples: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    loop {
        let (line, tail) = rest
            .split_once('\n')
            .ok_or(corrupt("summary has no symbol section"))?;
        rest = tail;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first().copied() {
            Some("column") => {
                if !pc_samples.is_empty() {
                    return Err(corrupt("column line after pc lines"));
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
            Some("pc") => {
                let pc: u64 = fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or(corrupt("bad pc"))?;
                let samples = fields[2..]
                    .iter()
                    .map(|s| s.parse().map_err(|_| corrupt("bad sample count")))
                    .collect::<Result<Vec<u64>, StoreError>>()?;
                if samples.len() != columns.len() {
                    return Err(corrupt("pc line has wrong sample count"));
                }
                if pc_samples.insert(pc, samples).is_some() {
                    return Err(corrupt("duplicate pc line"));
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
                let agg = Aggregate {
                    columns,
                    pc_samples,
                    totals,
                };
                return Ok(Summary { agg, syms });
            }
            None => {}
            _ => return Err(corrupt("unknown summary line")),
        }
    }
}

/// Write a window summary to disk (durably: temp file + fsync +
/// rename, like every tier write — compaction deletes raw segments
/// on the strength of the tiers it wrote).
pub fn write_summary(path: &Path, agg: &Aggregate, syms: Option<&str>) -> Result<(), StoreError> {
    crate::store::write_durable(path, render_summary(agg, syms).as_bytes())
}

/// Load a window summary from disk. `Ok(None)` when there is no file;
/// a file that does not parse is an error naming it.
pub fn read_summary(path: &Path) -> Result<Option<Summary>, StoreError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e).at(path)),
    };
    parse_summary(&text).map(Some).map_err(|e| e.at(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aggregate() -> Aggregate {
        let columns = vec![
            ColSpec::Clock { period: 10007 },
            ColSpec::Hwc {
                event: CounterEvent::ECStallCycles,
                backtrack: true,
                interval: 1009,
            },
        ];
        let mut pc_samples = BTreeMap::new();
        pc_samples.insert(0x1000_0000u64, vec![3, 1]);
        pc_samples.insert(0x1000_31b8u64, vec![0, 7]);
        Aggregate {
            columns,
            pc_samples,
            totals: vec![3, 8],
        }
    }

    /// A `syms.txt` body whose lines look like summary lines, so a
    /// parser that reads the table as lines would misparse it.
    const TABLE: &str = "simsparc-syms text_base=0x10000\npc 16 1\nsyms none\n";

    #[test]
    fn summary_round_trips_exactly() {
        let agg = sample_aggregate();
        for syms in [None, Some(TABLE), Some("")] {
            let text = render_summary(&agg, syms);
            let back = parse_summary(&text).unwrap();
            assert_eq!(back.agg.columns, agg.columns);
            assert_eq!(back.agg.pc_samples, agg.pc_samples);
            assert_eq!(back.agg.totals, agg.totals);
            assert_eq!(back.syms.as_deref(), syms);
            // Rendering the reload is byte-identical — the tier-2
            // parity guarantee.
            assert_eq!(back.agg.render(), agg.render());
            assert_eq!(render_summary(&back.agg, back.syms.as_deref()), text);
        }
    }

    #[test]
    fn damaged_summaries_error_cleanly() {
        assert!(parse_summary("").is_err());
        assert!(parse_summary("MPSUM 3\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 1\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 2\ncolumn warp 1 2\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 2\ncolumn clock 5 x\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 2\ncolumn clock 5 1\npc 16 1 2\nsyms none\n").is_err());
        assert!(parse_summary("MPSUM 2\npc banana 1\nsyms none\n").is_err());
        let dup = "MPSUM 2\ncolumn clock 5 2\npc 16 1\npc 16 1\nsyms none\n";
        assert!(parse_summary(dup).is_err());
    }

    /// The symbol section ends every summary, so damage there or a cut
    /// anywhere is an error, never a summary without its table.
    #[test]
    fn damaged_symbol_sections_error_cleanly() {
        let whole = render_summary(&sample_aggregate(), Some(TABLE));
        assert!(parse_summary(&whole).is_ok());
        for cut in 0..whole.len() {
            assert!(parse_summary(&whole[..cut]).is_err(), "cut at {cut}");
        }
        let body = "MPSUM 2\ncolumn clock 5 1\npc 16 1\n";
        for section in [
            "syms 100\nshort\n",
            "syms 3\nlonger\n",
            "syms\n",
            "syms none extra\n",
            "syms -1\n",
            "syms 99999999999999999999999\n",
            "syms none\npc 17 1\n",
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

        // A version-1 summary is damage like any other, named by file.
        std::fs::write(&path, "MPSUM 1\ncolumn clock 5 1\npc 16 1\n").unwrap();
        let err = read_summary(&path).err().unwrap().to_string();
        assert!(err.contains("w.sum"), "{err}");
        assert!(err.contains("summary missing MPSUM 2 header"), "{err}");

        write_summary(&path, &sample_aggregate(), None).unwrap();
        let back = read_summary(&path).unwrap().unwrap();
        assert_eq!(back.agg.totals, sample_aggregate().totals);
        assert_eq!(back.syms, None);

        std::fs::write(&path, "MPSUM 2\ncolumn clock 5 1\n").unwrap();
        let err = read_summary(&path).err().unwrap().to_string();
        assert!(err.contains("w.sum"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
