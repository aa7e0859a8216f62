//! # memprof-core — data-centric memory profiling
//!
//! The primary contribution of *Memory Profiling using Hardware
//! Counters* (Itzkowitz, Wylie, Aoki, Kosche; SC 2003), reimplemented
//! against the simulated SimSPARC machine:
//!
//! * **Collection** ([`collect`]): run a target under hardware-counter
//!   overflow profiling and/or clock profiling; on each (skidded)
//!   overflow trap, perform the *apropos backtracking search* for the
//!   candidate trigger PC and reconstruct the effective data address
//!   from the register file when the skid provably did not clobber the
//!   address registers. The result is an [`Experiment`] that can be
//!   saved to and loaded from an experiment directory — the one
//!   in-memory form of a profile, whatever it was read from.
//! * **Analysis** ([`analyze::Analysis`]): validate candidate trigger
//!   PCs against the compiler's branch-target tables, then aggregate
//!   metrics by function, PC, source line, disassembly instruction —
//!   and, the new observability perspective, by **data object**:
//!   structure types (Figure 6), structure members (Figure 7), memory
//!   segments, pages, cache lines and object instances (§4).
//!
//! The user model is the paper's three steps: compile (with
//! [`minic::CompileOptions::profiling`]), collect, analyze:
//!
//! ```
//! use memprof_core::{collect, CollectConfig, parse_counter_spec, analyze::Analysis};
//! use minic::{compile_and_link, CompileOptions};
//! use simsparc_machine::{Machine, MachineConfig};
//!
//! // 1. Compile with -xhwcprof -xdebugformat=dwarf.
//! let src = r#"
//!     long main() {
//!         long i; long s = 0;
//!         for (i = 0; i < 100000; i = i + 1) { s = s + i; }
//!         return s % 1000;
//!     }
//! "#;
//! let program = compile_and_link(&[("demo.c", src)], CompileOptions::profiling()).unwrap();
//!
//! // 2. Collect: clock profiling plus an instruction counter.
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load(&program.image);
//! let config = CollectConfig {
//!     counters: parse_counter_spec("insts,10007").unwrap(),
//!     clock_profiling: true,
//!     clock_period_cycles: 10007,
//!     ..CollectConfig::default()
//! };
//! let experiment = collect(&mut machine, &config).unwrap();
//!
//! // 3. Analyze.
//! let analysis = Analysis::new(&[&experiment], &program.syms);
//! let funcs = analysis.function_list(0);
//! assert_eq!(funcs[0].name, "<Total>");
//! assert!(funcs.iter().any(|f| f.name == "main"));
//! ```

pub mod analyze;
pub mod batch;
mod collect;
mod counters;
mod experiment;
mod stream;
pub mod verify;

pub use batch::{aggregate_by, aggregate_by_serial, EventBatch, GroupKey};
pub use collect::{
    backtrack, collect, collect_stream, event_accepts, reconstruct_ea, CollectConfig, CollectError,
    TextMap, MAX_BACKTRACK_INSNS,
};
pub use counters::{assign_slots, parse_counter_spec, CounterRequest, CounterSpecError, Interval};
pub use experiment::{attribution_key, charged_pc, Experiment, RunInfo};
pub use stream::{
    CallstackTable, CollectSink, PackedClockEvent, PackedHwcEvent, StackId, StreamConfig,
    StreamStats, EST_CYCLES_PER_SAMPLE,
};
