//! minic's two text decoders never panic on hostile input: the symbol
//! table (`syms.txt`, which reaches every tool as a collector's footer
//! attachment) and the feedback file. Every input, whether arbitrary
//! bytes, a sequence of the grammar's own words, a truncation or a
//! single-byte replacement of a real file, either fails with a typed
//! error or parses to a value that is safe to use: a symbol table
//! answers every lookup, and a feedback file round-trips.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

use minic::{compile_and_link, CompileOptions, Feedback, PrefetchHint, ReorderHint, SymbolTable};

/// PCs an event stream can carry against `t`: near 0, around and inside
/// the text, at every function's ends, and near the top of the address
/// space.
fn probe_pcs(t: &SymbolTable) -> Vec<u64> {
    let mut pcs = vec![
        0,
        1,
        4,
        8,
        u64::MAX,
        u64::MAX - 3,
        u64::MAX - 4,
        u64::MAX - 7,
    ];
    let len = t.pc_meta.len() as u64;
    for i in [0, 1, len / 2, len.saturating_sub(1), len] {
        let pc = t.text_base.saturating_add(i.saturating_mul(4));
        pcs.extend([pc, pc.wrapping_sub(4), pc.wrapping_add(2)]);
    }
    for f in &t.funcs {
        pcs.extend([f.entry, f.end.wrapping_sub(4)]);
    }
    pcs
}

/// `text` parses as a symbol table only to one whose lookups all
/// answer. A panic anywhere fails the test.
fn check_syms(text: &str) {
    let Ok(t) = SymbolTable::parse(text) else {
        return;
    };
    for pc in probe_pcs(&t) {
        let _ = t.func_at(pc);
        let _ = t.module_at(pc);
        let _ = t.line_at(pc);
        let _ = t.meta_at(pc);
        for to in [pc.saturating_add(64), u64::MAX] {
            let _ = t.branch_target_between(pc, to);
        }
    }
}

/// `text` parses as a feedback file only to a value that `to_text`
/// renders back to itself.
fn check_feedback(text: &str) -> Result<(), TestCaseError> {
    if let Ok(first) = Feedback::from_text(text) {
        prop_assert_eq!(Feedback::from_text(&first.to_text()), Ok(first));
    }
    Ok(())
}

/// Both decoders on `bytes`, read as lossy UTF-8.
fn check_both(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    check_syms(&text);
    check_feedback(&text)
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

/// A small program whose table has every record kind: functions in
/// three modules, a struct with a typedef'd member, a global, and
/// branch targets.
const SRC: &str = "typedef long c_t;\nstruct s { c_t a; struct s *n; };\nlong g;\n\
                   long f(struct s *p) { if (p) return p->a; return 0; }\n\
                   long main() { g = f(0); return g; }\n";

/// The `syms.txt` the collector writes for [`SRC`], cut down to stay
/// quick to damage byte by byte: the module sources are dropped, and
/// so is the runtime's text after `main`.
fn real_table() -> String {
    let mut t = compile_and_link(&[("t.c", SRC)], CompileOptions::profiling())
        .unwrap()
        .syms;
    for m in &mut t.modules {
        m.source.clear();
    }
    let main_end = t.funcs.iter().find(|f| f.name == "main").unwrap().end;
    t.funcs.retain(|f| f.end <= main_end);
    t.pc_meta.truncate(((main_end - t.text_base) / 4) as usize);
    let path = std::env::temp_dir().join(format!("text_decoder_syms_{}.txt", std::process::id()));
    t.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// A feedback file with every decision kind.
fn real_feedback() -> String {
    Feedback {
        hints: vec![PrefetchHint {
            function: "f".into(),
            line: 4,
            lookahead: -64,
        }],
        reorders: vec![ReorderHint {
            struct_name: "s".into(),
            order: vec!["n".into(), "a".into()],
            pad_to: Some(24),
        }],
        heap_align: Some(64),
        heap_page_bytes: Some(8192),
    }
    .to_text()
}

/// The words either grammar is made of, plus a few near misses.
const TOKENS: &[&str] = &[
    "simsparc-syms text_base=0x10000\n",
    "MODULE ",
    "FUNC ",
    "PC ",
    "STRUCT ",
    "FIELD ",
    "GLOBAL ",
    "prefetch ",
    "reorder ",
    "heapalign ",
    "pagesize_heap ",
    "pad=",
    "0x10000 ",
    "0x10008 ",
    "0xffffffffffffffff ",
    "0 ",
    "1 ",
    "9 ",
    "64 ",
    "-1 ",
    "+3 ",
    "18446744073709551616 ",
    "- ",
    "T ",
    "S ",
    "M ",
    "long ",
    "pointer+structure:s ",
    "c_t=long ",
    "=",
    "a,b",
    ",",
    "#",
    "\\n",
    "\\",
    " ",
    "\n",
    "\r\n",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and arbitrary sequences of the grammars' own
    /// words, after a symbol-table header or none.
    #[test]
    fn arbitrary_text_never_panics(
        header in select(&["", "simsparc-syms text_base=0x10000\n", "simsparc-syms text_base=0xfffffffffffffff0\n"]),
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

/// A real symbol table, cut at every point and with every byte
/// replaced by every other value. Replacing a FUNC line's module digit
/// names a module that does not exist.
#[test]
fn a_real_symbol_table_survives_every_cut_and_byte_replacement() {
    let text = real_table();
    assert!(text.contains("\nFUNC ") && text.contains("=long"), "{text}");
    check_damage(&text).unwrap();
}

/// A feedback file with every decision kind, cut at every point and
/// with every byte replaced by every other value.
#[test]
fn a_real_feedback_file_survives_every_cut_and_byte_replacement() {
    check_damage(&real_feedback()).unwrap();
}
