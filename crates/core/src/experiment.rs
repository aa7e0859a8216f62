//! Experiments — the output of a `collect` run (§2.2): "a file-system
//! directory with a `log` file giving a timestamped trace of
//! high-level events during the run, a `loadobjects` file describing
//! the target executable, and additional files, one for each type of
//! data recorded, containing the profile events and the callstacks
//! associated with them."
//!
//! In memory an experiment holds the collector's own form: a table of
//! distinct callstacks and fixed-size [`PackedHwcEvent`] /
//! [`PackedClockEvent`] records that name a stack by its index in that
//! table. The table may hold duplicates and stacks no event uses (a
//! merge concatenates its inputs' tables); what an experiment means is
//! each event with its frames, never the numbering.
//!
//! The on-disk format is a simple line-oriented text format (one
//! record per line, each event with its frames written out);
//! [`Experiment::save`] and [`Experiment::load`] round-trip every
//! event and its frames exactly.

use std::fmt::Write as _;
use std::path::Path;

use simsparc_machine::{CounterEvent, EventCounts};

use crate::counters::CounterRequest;
use crate::stream::{CallstackTable, PackedClockEvent, PackedHwcEvent, StackId};

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
    /// Callstacks (call-site PCs, outermost first), indexed by the
    /// events' `stack` ids. Every id an event holds, `counter` and
    /// `stack`, is in range: the decoders check it.
    pub stacks: Vec<Vec<u64>>,
    pub hwc_events: Vec<PackedHwcEvent>,
    pub clock_events: Vec<PackedClockEvent>,
    pub run: RunInfo,
    /// Timestamped high-level events (cycle counts stand in for wall
    /// clock).
    pub log: Vec<String>,
}

/// An event's attribution key, `(candidate, delivered)`: everything
/// the §2.3 validation reads of it. The candidate trigger PC counts
/// only when the event's counter was collected with backtracking, so
/// it is `None` otherwise; a clock tick's key is `(None, pc)`. The
/// analyzer validates each distinct key once, and the store's pair
/// histogram counts samples per key.
#[inline]
pub fn attribution_key(ev: &PackedHwcEvent, backtrack: bool) -> (Option<u64>, u64) {
    (ev.candidate_pc.filter(|_| backtrack), ev.delivered_pc)
}

/// The hwc half of the charge-PC rule, the projection of
/// [`attribution_key`]: the candidate trigger PC when there is one,
/// else the delivered PC (a clock tick is charged at its PC).
/// `memprof-store`'s in-memory oracle charges each event by it, and
/// its pair histogram projects each key by the same rule.
#[inline]
pub fn charged_pc(ev: &PackedHwcEvent, backtrack: bool) -> u64 {
    let (candidate, delivered) = attribution_key(ev, backtrack);
    candidate.unwrap_or(delivered)
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
    /// `clockdata`, `run`), each event with its stack's frames.
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
        // Each stack is formatted once, however many events share it.
        let stacks: Vec<String> = self
            .stacks
            .iter()
            .map(|s| {
                s.iter()
                    .map(|p| format!("{p:#x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();

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
                stacks[e.stack as usize],
            )
            .unwrap();
        }
        std::fs::write(dir.join("hwcdata"), hwc)?;

        let mut clock = String::new();
        for e in &self.clock_events {
            writeln!(clock, "{:#x} [{}]", e.pc, stacks[e.stack as usize]).unwrap();
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

    /// Load an experiment directory written by [`Experiment::save`],
    /// interning each event's frames into the stack table. Content the
    /// `MPES` decoder rejects is rejected here too: a backtrack flag
    /// other than `0`/`1`, an event naming a counter the `counters`
    /// file does not list.
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
        // One frame buffer for every line; only new stacks allocate.
        let mut table = CallstackTable::new();
        let mut frames = Vec::new();
        let mut intern = |s: &str| -> std::io::Result<StackId> {
            let inner = s
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| bad("bad callstack"))?;
            frames.clear();
            if !inner.is_empty() {
                for frame in inner.split(',') {
                    frames.push(parse_hex(frame)?);
                }
            }
            Ok(table.intern(&frames))
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
            let backtrack = match f[1] {
                "0" => false,
                "1" => true,
                _ => return Err(bad("bad backtrack flag")),
            };
            exp.counters.push(CounterRequest {
                event,
                backtrack,
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
            let counter: usize = f[0].parse().map_err(|_| bad("bad counter idx"))?;
            if counter >= exp.counters.len() {
                return Err(bad("event references unknown counter"));
            }
            exp.hwc_events.push(PackedHwcEvent {
                counter,
                delivered_pc: parse_hex(f[1])?,
                candidate_pc: parse_opt(f[2])?,
                ea: parse_opt(f[3])?,
                stack: intern(rest[1])?,
                truth_trigger_pc: parse_hex(f[4])?,
                truth_ea,
                truth_skid: rest[0].parse().map_err(|_| bad("bad skid"))?,
            });
        }

        for line in std::fs::read_to_string(dir.join("clockdata"))?.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 2 {
                return Err(bad("bad clockdata line"));
            }
            exp.clock_events.push(PackedClockEvent {
                pc: parse_hex(f[0])?,
                stack: intern(f[1])?,
            });
        }
        exp.stacks = table.into_stacks();

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
            // The clock tick's stack comes first, one stack is listed
            // twice and one is unused: the numbering is arbitrary.
            stacks: vec![
                vec![0x10000010],
                vec![0x10000010, 0x10000200],
                vec![0x7777],
                vec![],
                vec![0x10000010, 0x10000200],
            ],
            hwc_events: vec![
                PackedHwcEvent {
                    counter: 0,
                    delivered_pc: 0x1000031b8,
                    candidate_pc: Some(0x1000031b0),
                    ea: Some(0x4000_0038),
                    stack: 4,
                    truth_trigger_pc: 0x1000031b0,
                    truth_ea: Some(0x4000_0038),
                    truth_skid: 2,
                },
                PackedHwcEvent {
                    counter: 1,
                    delivered_pc: 0x1000031d8,
                    candidate_pc: None,
                    ea: None,
                    stack: 3,
                    truth_trigger_pc: 0x1000031d4,
                    truth_ea: None,
                    truth_skid: 1,
                },
                PackedHwcEvent {
                    counter: 0,
                    delivered_pc: 0x1000031b8,
                    candidate_pc: Some(0x1000031b0),
                    ea: Some(0x4000_0110),
                    stack: 1,
                    truth_trigger_pc: 0x1000031b4,
                    truth_ea: Some(0x4000_0110),
                    truth_skid: 1,
                },
            ],
            clock_events: vec![PackedClockEvent {
                pc: 0x1000031d8,
                stack: 0,
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

    /// Each hwc event with its frames in place of its stack id.
    fn hwc_frames(e: &Experiment) -> Vec<(PackedHwcEvent, &[u64])> {
        e.hwc_events
            .iter()
            .map(|ev| {
                (
                    PackedHwcEvent { stack: 0, ..*ev },
                    &e.stacks[ev.stack as usize][..],
                )
            })
            .collect()
    }

    /// Each clock tick with its frames in place of its stack id.
    fn clock_frames(e: &Experiment) -> Vec<(u64, &[u64])> {
        e.clock_events
            .iter()
            .map(|ev| (ev.pc, &e.stacks[ev.stack as usize][..]))
            .collect()
    }

    #[test]
    fn estimated_totals() {
        let e = sample();
        // 2 events + 3 dropped, interval 1009.
        assert_eq!(e.estimated_total(0), 5 * 1009);
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
        assert_eq!(hwc_frames(&loaded), hwc_frames(&e));
        assert_eq!(clock_frames(&loaded), clock_frames(&e));
        assert_eq!(loaded.run, e.run);
        assert_eq!(loaded.log, e.log);
        // Loading interns: one entry per distinct stack, numbered in
        // first use, hwc lines before clock lines.
        assert_eq!(
            loaded.stacks,
            vec![vec![0x10000010, 0x10000200], vec![], vec![0x10000010]]
        );
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
        for ((l, l_frames), (orig, frames)) in hwc_frames(&loaded).into_iter().zip(hwc_frames(&e)) {
            assert_eq!(l.truth_ea, None);
            assert_eq!(l.truth_trigger_pc, orig.truth_trigger_pc);
            assert_eq!(l.truth_skid, orig.truth_skid);
            assert_eq!(l.candidate_pc, orig.candidate_pc);
            assert_eq!(l_frames, frames);
        }
    }
}
