//! Deterministic analyzer tests over a hand-built symbol table and
//! synthetic experiments: every branch of the §2.3 validation logic,
//! the §3.2.5 taxonomy, and the callers/callees attribution.

use memprof_core::analyze::{validate, Analysis, Attribution, ColKind, UnknownKind};
use memprof_core::{
    CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent, RunInfo, StackId,
};
use minic::{FuncSym, GlobalSym, MemDesc, ModuleSym, PcMeta, SymbolTable};
use simsparc_machine::CounterEvent;

const BASE: u64 = 0x1_0000_0000;

/// Layout (4-byte PCs from BASE):
///   module 0 "good.c"  (hwcprof+dwarf): f at [0..10), g at [10..16)
///   module 1 "libc.c"  (no hwcprof):    libfn at [16..20)
///   module 2 "stabs.c" (hwcprof, no dwarf): h at [20..24)
fn table() -> SymbolTable {
    let meta = |memdesc: MemDesc, bt: bool| PcMeta {
        line: 1,
        memdesc,
        is_branch_target: bt,
    };
    let member = |m: &str, off: u64| MemDesc::Member {
        struct_name: "node".to_string(),
        member: m.to_string(),
        member_type: "long".to_string(),
        offset: off,
    };
    let mut pc_meta = vec![
        // f: idx 0..10
        meta(member("alpha", 0), true),   // 0: entry, load
        meta(MemDesc::None, false),       // 1
        meta(member("beta", 8), false),   // 2: load
        meta(MemDesc::None, false),       // 3
        meta(MemDesc::None, true),        // 4: loop head (branch target)
        meta(member("gamma", 16), false), // 5: load
        meta(MemDesc::Temporary, false),  // 6: spill
        meta(MemDesc::None, false),       // 7 (no symbolic ref)
        meta(MemDesc::None, false),       // 8
        meta(MemDesc::None, false),       // 9
        // g: idx 10..16
        meta(member("delta", 24), true), // 10: entry
        meta(MemDesc::None, false),      // 11
        meta(MemDesc::None, false),      // 12
        meta(MemDesc::None, false),      // 13
        meta(MemDesc::None, false),      // 14
        meta(MemDesc::None, false),      // 15
    ];
    // libc (module without hwcprof): meta present but ignored.
    for _ in 16..20 {
        pc_meta.push(meta(MemDesc::None, false));
    }
    // stabs module (hwcprof but no dwarf).
    for i in 20..24 {
        pc_meta.push(meta(member("eps", 32), i == 20));
    }

    SymbolTable {
        modules: vec![
            ModuleSym {
                name: "good.c".into(),
                hwcprof: true,
                dwarf: true,
                source: "line one\n".into(),
            },
            ModuleSym {
                name: "libc.c".into(),
                hwcprof: false,
                dwarf: false,
                source: String::new(),
            },
            ModuleSym {
                name: "stabs.c".into(),
                hwcprof: true,
                dwarf: false,
                source: String::new(),
            },
        ],
        funcs: vec![
            FuncSym {
                name: "f".into(),
                entry: BASE,
                end: BASE + 40,
                module: 0,
                line: 1,
            },
            FuncSym {
                name: "g".into(),
                entry: BASE + 40,
                end: BASE + 64,
                module: 0,
                line: 5,
            },
            FuncSym {
                name: "libfn".into(),
                entry: BASE + 64,
                end: BASE + 80,
                module: 1,
                line: 1,
            },
            FuncSym {
                name: "h".into(),
                entry: BASE + 80,
                end: BASE + 96,
                module: 2,
                line: 1,
            },
        ],
        pc_meta,
        text_base: BASE,
        structs: vec![],
        globals: vec![GlobalSym {
            name: "x".into(),
            addr: 0x2000_0000,
            size: 8,
            type_desc: "long".into(),
        }],
    }
}

fn pc(idx: u64) -> u64 {
    BASE + idx * 4
}

#[test]
fn validation_accepts_clean_candidates() {
    let t = table();
    // Candidate at idx 2 (load of beta), delivered at idx 4 is BLOCKED
    // (idx 4 is a branch target); delivered at idx 3 is clean.
    match validate(&t, Some(pc(2)), pc(3)) {
        Attribution::DataObject { pc: p, desc } => {
            assert_eq!(p, pc(2));
            assert!(matches!(desc, MemDesc::Member { member, .. } if member == "beta"));
        }
        other => panic!("expected DataObject, got {other:?}"),
    }
}

#[test]
fn validation_blocks_on_branch_target() {
    let t = table();
    match validate(&t, Some(pc(2)), pc(5)) {
        Attribution::Unknown { pc: p, kind } => {
            assert_eq!(kind, UnknownKind::Unresolvable);
            assert_eq!(p, pc(4), "attributed to the artificial branch-target PC");
        }
        other => panic!("expected Unresolvable, got {other:?}"),
    }
    // The artificial PC is flagged as such.
    let a = validate(&t, Some(pc(2)), pc(5));
    assert!(a.is_artificial());
}

#[test]
fn validation_blocks_when_delivered_is_a_branch_target() {
    // The delivered PC itself being a branch target means control
    // could have arrived via the branch (the Figure 4 asterisk rows).
    let t = table();
    match validate(&t, Some(pc(3)), pc(4)) {
        Attribution::Unknown { pc: p, kind } => {
            assert_eq!(kind, UnknownKind::Unresolvable);
            assert_eq!(p, pc(4));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn taxonomy_unascertainable_for_non_hwcprof_module() {
    let t = table();
    match validate(&t, Some(pc(17)), pc(18)) {
        Attribution::Unknown { kind, .. } => assert_eq!(kind, UnknownKind::Unascertainable),
        other => panic!("{other:?}"),
    }
}

#[test]
fn taxonomy_unverifiable_for_non_dwarf_module() {
    let t = table();
    match validate(&t, Some(pc(21)), pc(22)) {
        Attribution::Unknown { kind, .. } => assert_eq!(kind, UnknownKind::Unverifiable),
        other => panic!("{other:?}"),
    }
}

#[test]
fn taxonomy_unresolvable_when_no_candidate() {
    let t = table();
    match validate(&t, None, pc(3)) {
        Attribution::Unknown { pc: p, kind } => {
            assert_eq!(kind, UnknownKind::Unresolvable);
            assert_eq!(p, pc(3));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn taxonomy_unidentified_and_unspecified() {
    let t = table();
    match validate(&t, Some(pc(6)), pc(7)) {
        Attribution::Unknown { kind, .. } => assert_eq!(kind, UnknownKind::Unidentified),
        other => panic!("{other:?}"),
    }
    match validate(&t, Some(pc(7)), pc(8)) {
        Attribution::Unknown { kind, .. } => assert_eq!(kind, UnknownKind::Unspecified),
        other => panic!("{other:?}"),
    }
}

/// The stack table every [`experiment`] carries: no caller, called
/// from `f` (call site at idx3), called from `libfn` (idx17).
const NO_STACK: StackId = 0;
const FROM_F: StackId = 1;
const FROM_LIBFN: StackId = 2;

fn stacks() -> Vec<Vec<u64>> {
    vec![vec![], vec![pc(3)], vec![pc(17)]]
}

fn event(counter: usize, cand: Option<u64>, delivered: u64, stack: StackId) -> PackedHwcEvent {
    PackedHwcEvent {
        counter,
        delivered_pc: delivered,
        candidate_pc: cand,
        ea: Some(0x4000_0000),
        stack,
        truth_trigger_pc: cand.unwrap_or(delivered),
        truth_ea: Some(0x4000_0000),
        truth_skid: 1,
    }
}

fn experiment(hwc: Vec<PackedHwcEvent>, clock: Vec<PackedClockEvent>) -> Experiment {
    Experiment {
        counters: vec![CounterRequest {
            event: CounterEvent::ECReadMiss,
            backtrack: true,
            interval: 100,
        }],
        clock_period: (!clock.is_empty()).then_some(1000),
        stacks: stacks(),
        hwc_events: hwc,
        clock_events: clock,
        run: RunInfo {
            clock_hz: 900_000_000,
            dropped: vec![0],
            ..RunInfo::default()
        },
        log: vec![],
    }
}

#[test]
fn function_attribution_and_artificial_rows() {
    let t = table();
    let exp = experiment(
        vec![
            event(0, Some(pc(2)), pc(3), NO_STACK),   // valid, in f
            event(0, Some(pc(2)), pc(5), NO_STACK),   // blocked -> artificial at idx4 (in f)
            event(0, Some(pc(10)), pc(11), NO_STACK), // valid, in g
        ],
        vec![],
    );
    let a = Analysis::new(&[&exp], &t);
    let rows = a.function_list(0);
    assert_eq!(rows[0].name, "<Total>");
    assert_eq!(rows[0].samples[0], 3);
    let f_row = rows.iter().find(|r| r.name == "f").unwrap();
    assert_eq!(f_row.samples[0], 2, "valid + artificial both land in f");
    let g_row = rows.iter().find(|r| r.name == "g").unwrap();
    assert_eq!(g_row.samples[0], 1);

    // The disassembly view shows the artificial row with its metric.
    let dis = a.annotated_disasm("f").unwrap();
    let artificial: Vec<_> = dis.iter().filter(|r| r.artificial).collect();
    assert!(artificial
        .iter()
        .any(|r| r.pc == pc(4) && r.samples[0] == 1));
}

#[test]
fn data_object_view_counts_by_member_struct() {
    let t = table();
    let exp = experiment(
        vec![
            event(0, Some(pc(0)), pc(1), NO_STACK),   // alpha
            event(0, Some(pc(2)), pc(3), NO_STACK),   // beta
            event(0, Some(pc(2)), pc(3), NO_STACK),   // beta again
            event(0, Some(pc(6)), pc(7), NO_STACK),   // Temporary -> Unidentified
            event(0, Some(pc(17)), pc(18), NO_STACK), // libc -> Unascertainable
        ],
        vec![],
    );
    let a = Analysis::new(&[&exp], &t);
    let rows = a.data_objects(0);
    let get = |n: &str| rows.iter().find(|r| r.name == n).map(|r| r.samples[0]);
    assert_eq!(get("<Total>"), Some(5));
    assert_eq!(get("{structure:node -}"), Some(3));
    assert_eq!(get("(Unidentified)"), Some(1));
    assert_eq!(get("(Unascertainable)"), Some(1));
    assert_eq!(get("<Unknown>"), Some(2));

    // Effectiveness: 1 unascertainable of 5 events = 80%.
    let eff = &a.effectiveness()[0];
    assert_eq!(eff.total, 5);
    assert_eq!(eff.unascertainable, 1);
    assert_eq!(eff.unresolvable, 0);
    assert!((eff.effectiveness_pct - 80.0).abs() < 1e-9);
}

#[test]
fn callers_and_inclusive_attribution() {
    let t = table();
    // Two events in g: one called from f (callstack has a call site in
    // f), one called from libfn.
    let exp = experiment(
        vec![
            event(0, Some(pc(10)), pc(11), FROM_F),     // f -> g
            event(0, Some(pc(10)), pc(11), FROM_LIBFN), // libfn -> g
            event(0, Some(pc(2)), pc(3), NO_STACK),     // f leaf
        ],
        vec![PackedClockEvent {
            pc: pc(11),
            stack: FROM_F,
        }],
    );
    let a = Analysis::new(&[&exp], &t);

    let callers = a.callers_of("g");
    let get = |n: &str| {
        callers
            .iter()
            .find(|r| r.name == n)
            .map(|r| r.samples.iter().sum::<u64>())
    };
    assert_eq!(get("f"), Some(2), "hwc + clock events from f");
    assert_eq!(get("libfn"), Some(1));

    // Callees of f: the leaf event is <self>, plus g via the call.
    let callees = a.callees_of("f");
    let cget = |n: &str| {
        callees
            .iter()
            .find(|r| r.name == n)
            .map(|r| r.samples.iter().sum::<u64>())
    };
    assert_eq!(cget("<self>"), Some(1));
    assert_eq!(cget("g"), Some(2), "hwc + clock events flow f -> g");

    // The rendered view mentions all parties.
    let rendered = a.render_callers_callees("g");
    assert!(rendered.contains("Callers of `g`"), "{rendered}");
    assert!(rendered.contains("libfn"), "{rendered}");
    assert!(rendered.contains("(inclusive)"), "{rendered}");

    // Inclusive of f: its own leaf event + everything through it.
    let incl = a.inclusive_of("f");
    assert_eq!(incl.iter().sum::<u64>(), 3, "leaf + f->g hwc + f->g clock");
    let incl_g = a.inclusive_of("g");
    assert_eq!(
        incl_g.iter().sum::<u64>(),
        3,
        "all g leaf events (2 hwc + 1 clock)"
    );
}

#[test]
fn address_views_group_by_ea() {
    let t = table();
    let mut e1 = event(0, Some(pc(0)), pc(1), NO_STACK);
    e1.ea = Some(0x4000_0000); // heap
    let mut e2 = event(0, Some(pc(2)), pc(3), NO_STACK);
    e2.ea = Some(0x4000_0008); // same node instance (beta at +8)
    let mut e3 = event(0, Some(pc(2)), pc(3), NO_STACK);
    e3.ea = Some(0x2000_0000); // data segment
    let mut e4 = event(0, Some(pc(2)), pc(3), NO_STACK);
    e4.ea = None; // unreconstructable
    let exp = experiment(vec![e1, e2, e3, e4], vec![]);
    let a = Analysis::new(&[&exp], &t);

    let segs = a.segments();
    let heap = segs
        .iter()
        .find(|s| s.segment == simsparc_machine::SegmentKind::Heap)
        .unwrap();
    assert_eq!(heap.samples[0], 2);
    let data = segs
        .iter()
        .find(|s| s.segment == simsparc_machine::SegmentKind::Data)
        .unwrap();
    assert_eq!(data.samples[0], 1);

    let lines = a.cache_lines(512, 10);
    assert_eq!(lines[0].line_base, 0x4000_0000);
    assert_eq!(lines[0].samples[0], 2);
}

/// Segments with equal totals print in Text/Data/Heap/Stack order on
/// every call, not in the fold's hash-map order (which changes from
/// fold to fold): `mp-serve query segments` and `mp-er-print segments`
/// must agree byte for byte.
#[test]
fn tied_segments_keep_segment_order() {
    use simsparc_machine::SegmentKind;
    let t = table();
    let events = [0x4000_0000u64, 0x2000_0000, 0x4000_0040, 0x2000_0040].map(|ea| {
        let mut e = event(0, Some(pc(0)), pc(1), NO_STACK);
        e.ea = Some(ea);
        e
    });
    let exp = experiment(events.to_vec(), vec![]);
    let a = Analysis::new(&[&exp], &t);
    for _ in 0..32 {
        let rows: Vec<(SegmentKind, Vec<u64>)> = a
            .segments()
            .into_iter()
            .map(|r| (r.segment, r.samples))
            .collect();
        assert_eq!(
            rows,
            [(SegmentKind::Data, vec![2]), (SegmentKind::Heap, vec![2])]
        );
    }
}

#[test]
fn unresolvable_events_contribute_no_ea_to_address_views() {
    let t = table();
    // Candidate idx 2 -> delivered idx 5 crosses the loop head at idx 4,
    // so validation yields Unresolvable. Even if the collector recorded
    // an EA (as pre-fix collectors did), the address views must not use
    // it: the access may never have executed.
    let mut blocked = event(0, Some(pc(2)), pc(5), NO_STACK);
    blocked.ea = Some(0x4000_0000);
    let mut clean = event(0, Some(pc(0)), pc(1), NO_STACK);
    clean.ea = Some(0x4000_0200);
    let exp = experiment(vec![blocked, clean], vec![]);
    let a = Analysis::new(&[&exp], &t);

    let segs = a.segments();
    let heap = segs
        .iter()
        .find(|s| s.segment == simsparc_machine::SegmentKind::Heap)
        .unwrap();
    assert_eq!(heap.samples[0], 1, "only the clean event has an address");
    let lines = a.cache_lines(64, 10);
    assert_eq!(lines.len(), 1);
    assert_eq!(lines[0].line_base, 0x4000_0200);

    // The event itself is still counted -- as an Unresolvable row.
    let eff = &a.effectiveness()[0];
    assert_eq!(eff.total, 2);
    assert_eq!(eff.unresolvable, 1);
}

#[test]
fn hot_lines_aggregate_per_function_line() {
    let t = table();
    // Two events at different PCs in f sharing line 1 (all meta lines
    // are 1 in the fixture) plus one in g.
    let exp = experiment(
        vec![
            event(0, Some(pc(0)), pc(1), NO_STACK),
            event(0, Some(pc(2)), pc(3), NO_STACK),
            event(0, Some(pc(10)), pc(11), NO_STACK),
        ],
        vec![],
    );
    let a = Analysis::new(&[&exp], &t);
    let rows = a.hot_lines(0, 10);
    assert_eq!(rows.len(), 2, "{rows:?}");
    assert_eq!(rows[0].function, "f");
    assert_eq!(rows[0].samples[0], 2);
    assert_eq!(rows[0].text, "line one");
    assert_eq!(rows[1].function, "g");
}

/// The analyzer resolves each distinct `(backtracked?, candidate,
/// delivered)` key once and stamps the result onto every event that
/// shares it. Every batch column must still equal what resolving each
/// event on its own produces.
#[test]
fn memoized_attribution_matches_per_event_reference() {
    use memprof_core::batch::{AttrTag, NO_ADDR, NO_ID, NO_LINE};

    let mut t = table();
    // Distinct lines per PC, so the line column is checked too.
    for (i, m) in t.pc_meta.iter_mut().enumerate() {
        m.line = i as u32 + 1;
    }
    let outside = pc(40); // past every function and every PC record
    let ev = |counter: usize, cand: Option<u64>, delivered: u64, ea: u64| PackedHwcEvent {
        ea: Some(ea),
        ..event(counter, cand, delivered, NO_STACK)
    };
    let tick = |p: u64| PackedClockEvent {
        pc: p,
        stack: NO_STACK,
    };
    let exp = Experiment {
        counters: vec![
            CounterRequest {
                event: CounterEvent::ECReadMiss,
                backtrack: true,
                interval: 100,
            },
            CounterRequest {
                event: CounterEvent::DTLBMiss,
                backtrack: false,
                interval: 7,
            },
        ],
        hwc_events: vec![
            ev(0, Some(pc(2)), pc(3), 0x100),   // beta
            ev(1, Some(pc(2)), pc(3), 0x108),   // same pair, not backtracked
            ev(0, Some(pc(0)), pc(1), 0x110),   // alpha
            ev(0, Some(pc(2)), pc(5), 0x118),   // blocked: Unresolvable with an EA
            ev(1, Some(pc(2)), pc(5), 0x120),   // same pair, EA kept
            ev(0, None, pc(3), 0x128),          // no candidate: Unresolvable with an EA
            ev(0, Some(pc(2)), pc(3), 0x130),   // beta again
            ev(0, Some(pc(10)), pc(11), 0x138), // delta
            ev(0, Some(pc(0)), pc(1), 0x140),   // alpha again
            ev(0, Some(pc(30)), pc(31), 0x148), // outside every function
            ev(1, None, outside, 0x150),        // outside every function
            ev(0, Some(pc(21)), pc(22), 0x158), // Unverifiable
            ev(0, Some(pc(6)), pc(7), 0x160),   // Unidentified
            ev(1, Some(pc(2)), pc(3), 0x168),
        ],
        clock_period: Some(1000),
        clock_events: vec![tick(pc(3)), tick(pc(5)), tick(outside), tick(pc(3))],
        ..experiment(vec![], vec![])
    };
    let a = Analysis::new(&[&exp], &t);
    let b = &a.batch;

    // The reference: every event validated and resolved on its own,
    // in column order, descriptors interned at first appearance.
    struct Event {
        src: usize,
        attr: Attribution,
        delivered: u64,
        cand: Option<u64>,
        ea: Option<u64>,
        clock: bool,
    }
    let mut descs: Vec<MemDesc> = Vec::new();
    let mut rows = Vec::new();
    for (col, kind) in a.columns.iter().map(|c| &c.kind).enumerate() {
        let events: Vec<Event> = match *kind {
            ColKind::UserCpu { .. } => exp
                .clock_events
                .iter()
                .enumerate()
                .map(|(src, e)| Event {
                    src,
                    attr: Attribution::Plain { pc: e.pc },
                    delivered: e.pc,
                    cand: None,
                    ea: None,
                    clock: true,
                })
                .collect(),
            ColKind::Hwc {
                counter, backtrack, ..
            } => exp
                .hwc_events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.counter == counter)
                .map(|(src, e)| Event {
                    src,
                    attr: if backtrack {
                        validate(&t, e.candidate_pc, e.delivered_pc)
                    } else {
                        Attribution::Plain { pc: e.delivered_pc }
                    },
                    delivered: e.delivered_pc,
                    cand: e.candidate_pc,
                    ea: e.ea,
                    clock: false,
                })
                .collect(),
        };
        for Event {
            src,
            attr,
            delivered,
            cand,
            ea,
            clock,
        } in events
        {
            let charged = attr.pc();
            let (tag, desc) = match attr {
                Attribution::Plain { .. } => (AttrTag::Plain, NO_ID),
                Attribution::DataObject { desc, .. } => {
                    let id = descs.iter().position(|d| *d == desc).unwrap_or_else(|| {
                        descs.push(desc);
                        descs.len() - 1
                    });
                    (AttrTag::Data, id as u32)
                }
                Attribution::Unknown { kind, .. } => (AttrTag::from_unknown(kind), NO_ID),
            };
            let ea = if tag == AttrTag::UnkUnresolvable {
                None
            } else {
                ea
            };
            rows.push((
                col as u32,
                charged,
                delivered,
                cand.unwrap_or(NO_ADDR),
                ea.unwrap_or(NO_ADDR),
                tag,
                desc,
                t.func_index_at(charged).map_or(NO_ID, |f| f as u32),
                t.line_at(charged).unwrap_or(NO_LINE),
                (0u32, src as u32, clock),
            ));
        }
    }

    assert_eq!(b.len(), rows.len());
    assert_eq!(b.col, rows.iter().map(|r| r.0).collect::<Vec<_>>());
    assert_eq!(b.pc, rows.iter().map(|r| r.1).collect::<Vec<_>>());
    assert_eq!(b.ea, rows.iter().map(|r| r.4).collect::<Vec<_>>());
    assert_eq!(b.tag, rows.iter().map(|r| r.5).collect::<Vec<_>>());
    assert_eq!(b.desc, rows.iter().map(|r| r.6).collect::<Vec<_>>());
    assert_eq!(b.func, rows.iter().map(|r| r.7).collect::<Vec<_>>());
    assert_eq!(b.line, rows.iter().map(|r| r.8).collect::<Vec<_>>());
    assert_eq!(b.src_exp, rows.iter().map(|r| r.9 .0).collect::<Vec<_>>());
    assert_eq!(b.src_idx, rows.iter().map(|r| r.9 .1).collect::<Vec<_>>());
    assert_eq!(b.src_clock, rows.iter().map(|r| r.9 .2).collect::<Vec<_>>());
    assert_eq!(b.descs, descs);

    // The fixture exercises what it claims to.
    let member = |d: &MemDesc| match d {
        MemDesc::Member { member, .. } => member.clone(),
        other => panic!("{other:?}"),
    };
    assert_eq!(
        descs.iter().map(member).collect::<Vec<_>>(),
        ["beta", "alpha", "delta"],
        "descriptor ids follow first appearance"
    );
    let unresolvable_with_ea = exp
        .hwc_events
        .iter()
        .filter(|e| e.counter == 0)
        .filter(|e| validate(&t, e.candidate_pc, e.delivered_pc).is_artificial())
        .count();
    assert_eq!(unresolvable_with_ea, 2);
    assert!(b.func.contains(&NO_ID) && b.line.contains(&NO_LINE));
    assert!(b.tag.contains(&AttrTag::UnkUnverifiable) && b.tag.contains(&AttrTag::UnkUnidentified));
}
