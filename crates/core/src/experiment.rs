//! Experiments — the output of a `collect` run (§2.2): "a file-system
//! directory with a `log` file giving a timestamped trace of
//! high-level events during the run, a `loadobjects` file describing
//! the target executable, and additional files, one for each type of
//! data recorded, containing the profile events and the callstacks
//! associated with them."
//!
//! The on-disk format is a simple line-oriented text format (one
//! record per line); [`Experiment::save`] and [`Experiment::load`]
//! round-trip exactly.

use std::fmt::Write as _;
use std::path::Path;

use simsparc_machine::{CounterEvent, EventCounts};

use crate::batch::EventBatch;
use crate::counters::CounterRequest;

/// One hardware-counter overflow event, as recorded by the collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HwcEvent {
    /// Index into [`Experiment::counters`].
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
    /// Call stack at delivery: call-site PCs, outermost first.
    pub callstack: Vec<u64>,
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockEvent {
    /// PC of the next instruction to issue at the tick.
    pub pc: u64,
    /// Call stack at the tick, outermost first.
    pub callstack: Vec<u64>,
}

/// Summary of the profiled run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunInfo {
    pub exit_code: i64,
    /// Program output (not part of the profile; kept for validation).
    pub output: String,
    /// Ground-truth machine totals (the simulator's gift to testing).
    pub counts: EventCounts,
    /// Clock rate, for converting cycle metrics to seconds.
    pub clock_hz: u64,
    /// Overflow traps dropped per counter (interval too small).
    pub dropped: Vec<u64>,
}

/// A complete experiment.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// The counters that were collected (with resolved intervals).
    pub counters: Vec<CounterRequest>,
    /// Clock-profiling period in cycles, if `-p on`.
    pub clock_period: Option<u64>,
    pub hwc_events: Vec<HwcEvent>,
    pub clock_events: Vec<ClockEvent>,
    pub run: RunInfo,
    /// Timestamped high-level events (cycle counts stand in for wall
    /// clock).
    pub log: Vec<String>,
}

/// Append clock-profiling rows to a batch in the pc projection (see
/// [`EventBatch::grow_pc_rows`]): column and charged PC only, charged
/// at the tick PC — the clock half of the charge-PC rule.
pub fn fill_clock_pc_rows(batch: &mut EventBatch, col: usize, events: &[ClockEvent]) {
    let (cols, pcs) = batch.grow_pc_rows(events.len());
    for (i, ev) in events.iter().enumerate() {
        cols[i] = col as u32;
        pcs[i] = ev.pc;
    }
}

/// Append counter-overflow rows to a batch in the pc projection:
/// counter `c` lands in `hwc_col[c]`, charged at the candidate trigger
/// PC when the counter was collected with backtracking (falling back
/// to the delivered PC), else at the delivered PC — the hwc half of
/// the charge-PC rule, the single definition shared by the
/// analyzer-independent aggregation paths (`memprof-store`).
///
/// Returns `false` (leaving the rows it did append in place) if an
/// event references a counter outside `counters` — callers discard
/// the batch and surface a corruption error.
#[must_use]
pub fn fill_hwc_pc_rows(
    batch: &mut EventBatch,
    counters: &[CounterRequest],
    hwc_col: &[usize],
    events: &[HwcEvent],
) -> bool {
    // One tiny lookup table fuses the unknown-counter check into the
    // fill loop — no separate validation pass over the events.
    let col_bt: Vec<(u32, bool)> = hwc_col
        .iter()
        .zip(counters)
        .map(|(&c, r)| (c as u32, r.backtrack))
        .collect();
    let (cols, pcs) = batch.grow_pc_rows(events.len());
    for (i, ev) in events.iter().enumerate() {
        let Some(&(col, backtrack)) = col_bt.get(ev.counter) else {
            return false;
        };
        cols[i] = col;
        pcs[i] = if backtrack {
            ev.candidate_pc.unwrap_or(ev.delivered_pc)
        } else {
            ev.delivered_pc
        };
    }
    true
}

impl Experiment {
    /// Estimated total for a counter: overflow count × interval. The
    /// central approximation of counter-overflow profiling.
    pub fn estimated_total(&self, counter: usize) -> u64 {
        let events = self
            .hwc_events
            .iter()
            .filter(|e| e.counter == counter)
            .count() as u64;
        let dropped = self.run.dropped.get(counter).copied().unwrap_or(0);
        (events + dropped) * self.counters[counter].interval
    }

    /// Estimated seconds of user CPU time from clock profiling.
    pub fn estimated_user_cpu_secs(&self) -> Option<f64> {
        let period = self.clock_period?;
        Some(self.clock_events.len() as f64 * period as f64 / self.run.clock_hz as f64)
    }

    /// Find the counter index for an event type, if collected.
    pub fn counter_for(&self, event: CounterEvent) -> Option<usize> {
        self.counters.iter().position(|c| c.event == event)
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Write the experiment directory (`log`, `counters`, `hwcdata`,
    /// `clockdata`, `run`).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut log = String::new();
        for line in &self.log {
            writeln!(log, "{line}").unwrap();
        }
        std::fs::write(dir.join("log"), log)?;

        let mut counters = String::new();
        for c in &self.counters {
            writeln!(
                counters,
                "{} {} {}",
                c.event.name(),
                c.backtrack as u8,
                c.interval
            )
            .unwrap();
        }
        std::fs::write(dir.join("counters"), counters)?;

        let fmt_opt = |v: Option<u64>| match v {
            Some(v) => format!("{v:#x}"),
            None => "-".to_string(),
        };
        let fmt_stack = |s: &[u64]| {
            s.iter()
                .map(|p| format!("{p:#x}"))
                .collect::<Vec<_>>()
                .join(",")
        };

        let mut hwc = String::new();
        for e in &self.hwc_events {
            writeln!(
                hwc,
                "{} {:#x} {} {} {:#x} {} {} [{}]",
                e.counter,
                e.delivered_pc,
                fmt_opt(e.candidate_pc),
                fmt_opt(e.ea),
                e.truth_trigger_pc,
                fmt_opt(e.truth_ea),
                e.truth_skid,
                fmt_stack(&e.callstack),
            )
            .unwrap();
        }
        std::fs::write(dir.join("hwcdata"), hwc)?;

        let mut clock = String::new();
        for e in &self.clock_events {
            writeln!(clock, "{:#x} [{}]", e.pc, fmt_stack(&e.callstack)).unwrap();
        }
        std::fs::write(dir.join("clockdata"), clock)?;

        let c = &self.run.counts;
        let run = format!(
            "exit {}\nclock_hz {}\nperiod {}\ndropped {}\ncycles {}\ninsts {}\nicm {}\ndcrm {}\ndtlbm {}\necref {}\necrm {}\necstall {}\nloads {}\nstores {}\n",
            self.run.exit_code,
            self.run.clock_hz,
            self.clock_period.unwrap_or(0),
            self.run
                .dropped
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            c.cycles,
            c.insts,
            c.ic_miss,
            c.dc_read_miss,
            c.dtlb_miss,
            c.ec_ref,
            c.ec_read_miss,
            c.ec_stall_cycles,
            c.loads,
            c.stores,
        );
        std::fs::write(dir.join("run"), run)?;
        std::fs::write(dir.join("output"), &self.run.output)?;
        Ok(())
    }

    /// Load an experiment directory written by [`Experiment::save`].
    pub fn load(dir: &Path) -> std::io::Result<Experiment> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let parse_hex = |s: &str| -> std::io::Result<u64> {
            let s = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(s, 16).map_err(|_| bad("bad hex"))
        };
        let parse_opt = |s: &str| -> std::io::Result<Option<u64>> {
            if s == "-" {
                Ok(None)
            } else {
                parse_hex(s).map(Some)
            }
        };
        let parse_stack = |s: &str| -> std::io::Result<Vec<u64>> {
            let inner = s
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| bad("bad callstack"))?;
            if inner.is_empty() {
                return Ok(vec![]);
            }
            inner.split(',').map(parse_hex).collect()
        };

        let mut exp = Experiment {
            log: std::fs::read_to_string(dir.join("log"))?
                .lines()
                .map(str::to_string)
                .collect(),
            ..Experiment::default()
        };

        for line in std::fs::read_to_string(dir.join("counters"))?.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 3 {
                return Err(bad("bad counters line"));
            }
            let event = CounterEvent::parse(f[0]).ok_or_else(|| bad("bad counter name"))?;
            exp.counters.push(CounterRequest {
                event,
                backtrack: f[1] == "1",
                interval: f[2].parse().map_err(|_| bad("bad interval"))?,
            });
        }

        for line in std::fs::read_to_string(dir.join("hwcdata"))?.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            // 8 fields since the truth-EA column was added; 7-field
            // lines from older experiments load with no truth EA.
            let (truth_ea, rest) = match f.len() {
                7 => (None, &f[5..]),
                8 => (parse_opt(f[5])?, &f[6..]),
                _ => return Err(bad("bad hwcdata line")),
            };
            exp.hwc_events.push(HwcEvent {
                counter: f[0].parse().map_err(|_| bad("bad counter idx"))?,
                delivered_pc: parse_hex(f[1])?,
                candidate_pc: parse_opt(f[2])?,
                ea: parse_opt(f[3])?,
                truth_trigger_pc: parse_hex(f[4])?,
                truth_ea,
                truth_skid: rest[0].parse().map_err(|_| bad("bad skid"))?,
                callstack: parse_stack(rest[1])?,
            });
        }

        for line in std::fs::read_to_string(dir.join("clockdata"))?.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 2 {
                return Err(bad("bad clockdata line"));
            }
            exp.clock_events.push(ClockEvent {
                pc: parse_hex(f[0])?,
                callstack: parse_stack(f[1])?,
            });
        }

        let run_text = std::fs::read_to_string(dir.join("run"))?;
        let mut counts = EventCounts::default();
        for line in run_text.lines() {
            let Some((key, val)) = line.split_once(' ') else {
                continue;
            };
            match key {
                "exit" => exp.run.exit_code = val.parse().map_err(|_| bad("bad exit"))?,
                "clock_hz" => exp.run.clock_hz = val.parse().map_err(|_| bad("bad hz"))?,
                "period" => {
                    let p: u64 = val.parse().map_err(|_| bad("bad period"))?;
                    exp.clock_period = (p > 0).then_some(p);
                }
                "dropped" => {
                    exp.run.dropped = if val.is_empty() {
                        vec![]
                    } else {
                        val.split(',')
                            .map(|s| s.parse().map_err(|_| bad("bad dropped")))
                            .collect::<std::io::Result<_>>()?
                    };
                }
                "cycles" => counts.cycles = val.parse().map_err(|_| bad("bad"))?,
                "insts" => counts.insts = val.parse().map_err(|_| bad("bad"))?,
                "icm" => counts.ic_miss = val.parse().map_err(|_| bad("bad"))?,
                "dcrm" => counts.dc_read_miss = val.parse().map_err(|_| bad("bad"))?,
                "dtlbm" => counts.dtlb_miss = val.parse().map_err(|_| bad("bad"))?,
                "ecref" => counts.ec_ref = val.parse().map_err(|_| bad("bad"))?,
                "ecrm" => counts.ec_read_miss = val.parse().map_err(|_| bad("bad"))?,
                "ecstall" => counts.ec_stall_cycles = val.parse().map_err(|_| bad("bad"))?,
                "loads" => counts.loads = val.parse().map_err(|_| bad("bad"))?,
                "stores" => counts.stores = val.parse().map_err(|_| bad("bad"))?,
                _ => {}
            }
        }
        exp.run.counts = counts;
        exp.run.output = std::fs::read_to_string(dir.join("output")).unwrap_or_default();
        Ok(exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Experiment {
        Experiment {
            counters: vec![
                CounterRequest {
                    event: CounterEvent::ECStallCycles,
                    backtrack: true,
                    interval: 1009,
                },
                CounterRequest {
                    event: CounterEvent::ECReadMiss,
                    backtrack: true,
                    interval: 101,
                },
            ],
            clock_period: Some(5000),
            hwc_events: vec![
                HwcEvent {
                    counter: 0,
                    delivered_pc: 0x1000031b8,
                    candidate_pc: Some(0x1000031b0),
                    ea: Some(0x4000_0038),
                    callstack: vec![0x10000010, 0x10000200],
                    truth_trigger_pc: 0x1000031b0,
                    truth_ea: Some(0x4000_0038),
                    truth_skid: 2,
                },
                HwcEvent {
                    counter: 1,
                    delivered_pc: 0x1000031d8,
                    candidate_pc: None,
                    ea: None,
                    callstack: vec![],
                    truth_trigger_pc: 0x1000031d4,
                    truth_ea: None,
                    truth_skid: 1,
                },
            ],
            clock_events: vec![ClockEvent {
                pc: 0x1000031d8,
                callstack: vec![0x10000010],
            }],
            run: RunInfo {
                exit_code: 0,
                output: "42\n".to_string(),
                counts: EventCounts {
                    cycles: 1_000_000,
                    insts: 500_000,
                    ec_stall_cycles: 300_000,
                    ..Default::default()
                },
                clock_hz: 900_000_000,
                dropped: vec![3, 0],
            },
            log: vec!["0 collect start".to_string(), "1000000 exit 0".to_string()],
        }
    }

    #[test]
    fn estimated_totals() {
        let e = sample();
        // 1 event + 3 dropped, interval 1009.
        assert_eq!(e.estimated_total(0), 4 * 1009);
        assert_eq!(e.estimated_total(1), 101);
        let secs = e.estimated_user_cpu_secs().unwrap();
        assert!((secs - 5000.0 / 900e6).abs() < 1e-12);
    }

    #[test]
    fn counter_lookup() {
        let e = sample();
        assert_eq!(e.counter_for(CounterEvent::ECReadMiss), Some(1));
        assert_eq!(e.counter_for(CounterEvent::Cycles), None);
    }

    #[test]
    fn save_load_round_trip() {
        let e = sample();
        let dir = std::env::temp_dir().join(format!("memprof_test_{}", std::process::id()));
        e.save(&dir).unwrap();
        let loaded = Experiment::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.counters, e.counters);
        assert_eq!(loaded.clock_period, e.clock_period);
        assert_eq!(loaded.hwc_events, e.hwc_events);
        assert_eq!(loaded.clock_events, e.clock_events);
        assert_eq!(loaded.run, e.run);
        assert_eq!(loaded.log, e.log);
    }

    #[test]
    fn loads_pre_truth_ea_hwcdata() {
        // Experiments written before the truth-EA column have 7-field
        // hwcdata lines; they must still load, with no truth EA.
        let e = sample();
        let dir = std::env::temp_dir().join(format!("memprof_test_v1_{}", std::process::id()));
        e.save(&dir).unwrap();
        let old: String = std::fs::read_to_string(dir.join("hwcdata"))
            .unwrap()
            .lines()
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                format!(
                    "{} {} {} {} {} {} {}\n",
                    f[0], f[1], f[2], f[3], f[4], f[6], f[7]
                )
            })
            .collect();
        std::fs::write(dir.join("hwcdata"), old).unwrap();
        let loaded = Experiment::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.hwc_events.len(), e.hwc_events.len());
        for (l, orig) in loaded.hwc_events.iter().zip(&e.hwc_events) {
            assert_eq!(l.truth_ea, None);
            assert_eq!(l.truth_trigger_pc, orig.truth_trigger_pc);
            assert_eq!(l.truth_skid, orig.truth_skid);
            assert_eq!(l.candidate_pc, orig.candidate_pc);
            assert_eq!(l.callstack, orig.callstack);
        }
    }
}
