//! # memprof — data-centric memory profiling with (simulated) hardware counters
//!
//! A full reproduction of *Memory Profiling using Hardware Counters*
//! (Itzkowitz, Wylie, Aoki, Kosche; SC 2003) as a Rust workspace. This
//! facade crate re-exports the public API of every subsystem:
//!
//! * [`isa`] — the SimSPARC instruction set and disassembler,
//! * [`machine`] — the simulated UltraSPARC-III-like CPU, caches, DTLB
//!   and overflow-profiling hardware counters (with trap skid),
//! * [`minic`] — the mini-C compiler with `-xhwcprof`-style symbol
//!   cross-references, branch-target tables and nop padding,
//! * [`profiler`] — the paper's contribution: the collector (apropos
//!   backtracking, effective-address reconstruction, experiments) and
//!   the analyzer (function/PC/source/disassembly views and
//!   data-object aggregation),
//! * [`mcf`] — the MCF network-simplex benchmark written in mini-C,
//!   with an instance generator and a pure-Rust min-cost-flow oracle,
//! * [`store`] — the packed binary experiment store, streaming reader
//!   and multi-experiment aggregation (merge/diff) engine,
//! * [`serve`] — the always-on aggregation service: the `mp-serve`
//!   daemon's wire protocol, multi-collector ingest, tiered
//!   compaction and query layer.
//!
//! See `examples/quickstart.rs` for the three-step compile → collect →
//! analyze user model of §2 of the paper.

pub use memprof_core as profiler;
pub use memprof_opt as opt;
pub use memprof_serve as serve;
pub use memprof_store as store;
pub use minic;
pub use simsparc_isa as isa;
pub use simsparc_machine as machine;

pub use mcf;
