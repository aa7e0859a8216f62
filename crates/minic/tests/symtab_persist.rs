//! Round-trip the symbol table of a real compiled program through its
//! text serialization and check that analysis-relevant queries agree.

use minic::{compile_and_link, CompileOptions, SymbolTable};

const SRC: &str = r#"
extern char *malloc(long nbytes);
typedef long cost_t;
struct arc { cost_t cost; long ident; };
struct node {
    long number;
    struct node *pred;
    struct arc *basic_arc;
    cost_t potential;
};
long counter;
long table[8];
long helper(struct node *n) {
    return n->basic_arc->cost + n->potential;
}
long main() {
    struct node *n = (struct node*)malloc(sizeof(struct node));
    n->basic_arc = (struct arc*)malloc(sizeof(struct arc));
    n->basic_arc->cost = 7;
    n->potential = 35;
    counter = helper(n);
    table[3] = counter;
    return counter % 256;
}
"#;

#[test]
fn symbol_table_round_trips() {
    let program = compile_and_link(&[("persist.c", SRC)], CompileOptions::profiling()).unwrap();
    let t = &program.syms;
    let path = std::env::temp_dir().join(format!("syms_{}.txt", std::process::id()));
    t.save(&path).unwrap();
    let loaded = SymbolTable::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.text_base, t.text_base);
    assert_eq!(loaded.modules.len(), t.modules.len());
    assert_eq!(loaded.funcs.len(), t.funcs.len());
    assert_eq!(loaded.pc_meta.len(), t.pc_meta.len());
    assert_eq!(loaded.structs.len(), t.structs.len());
    assert_eq!(loaded.globals.len(), t.globals.len());

    // Module flags and source survive.
    for (a, b) in loaded.modules.iter().zip(&t.modules) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.hwcprof, b.hwcprof);
        assert_eq!(a.dwarf, b.dwarf);
        assert_eq!(a.source, b.source);
    }

    // Per-PC queries agree everywhere.
    let end = t.text_base + 4 * t.pc_meta.len() as u64;
    let mut pc = t.text_base;
    while pc < end {
        assert_eq!(loaded.line_at(pc), t.line_at(pc), "line at {pc:#x}");
        assert_eq!(
            loaded.is_branch_target(pc),
            t.is_branch_target(pc),
            "bt at {pc:#x}"
        );
        assert_eq!(
            loaded.meta_at(pc).map(|m| &m.memdesc),
            t.meta_at(pc).map(|m| &m.memdesc),
            "desc at {pc:#x}"
        );
        assert_eq!(
            loaded.func_at(pc).map(|f| &f.name),
            t.func_at(pc).map(|f| &f.name)
        );
        pc += 4;
    }

    // Struct layouts for the Figure 7 view.
    let n0 = t.struct_by_name("node").unwrap();
    let n1 = loaded.struct_by_name("node").unwrap();
    assert_eq!(n0.size, n1.size);
    for (a, b) in n0.fields.iter().zip(&n1.fields) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.type_desc, b.type_desc);
    }

    // Globals.
    assert_eq!(loaded.global_addr("counter"), t.global_addr("counter"));
    assert_eq!(loaded.global_addr("table"), t.global_addr("table"));
}

/// A table reaches every tool as a collector's footer attachment, so
/// its text is untrusted. A FIELD type's typedef chain is resolved
/// without recursion: a million `=` name `long`, not a stack overflow.
#[test]
fn a_long_typedef_chain_parses_without_recursion() {
    let text = format!(
        "simsparc-syms text_base=0x10000\nSTRUCT evil 8 8 1\nFIELD a 0 {}\n",
        "=".repeat(1_000_000)
    );
    let t = SymbolTable::parse(&text).unwrap();
    let field = &t.struct_by_name("evil").unwrap().fields[0];
    assert_eq!(field.ty, minic::Type::Long);
}

/// A FUNC naming a module past the MODULE records is refused, so
/// `module_at` and the source views never index out of range.
#[test]
fn a_func_module_index_past_the_modules_is_an_error() {
    let text = "simsparc-syms text_base=0x10000\n\
                MODULE 1 1 a a.c\nMODULE 1 1 b b.c\nMODULE 1 1 c c.c\n\
                FUNC 0x10000 0x10010 9 1 f\n";
    let err = SymbolTable::parse(text).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let ok = text.replace(" 9 1 f", " 2 1 f");
    let t = SymbolTable::parse(&ok).unwrap();
    assert_eq!(t.module_at(0x10004).unwrap().name, "c");
}

/// Both ends of the branch-target query come from the event stream:
/// a range reaching the top of the address space walks only the text
/// and never overflows.
#[test]
fn branch_target_walks_stay_inside_the_text() {
    let program = compile_and_link(&[("persist.c", SRC)], CompileOptions::profiling()).unwrap();
    let t = &program.syms;
    let last = t.text_base + 4 * (t.pc_meta.len() as u64 - 1);
    assert_eq!(t.branch_target_between(last, u64::MAX), None);
    assert_eq!(t.branch_target_between(u64::MAX - 2, u64::MAX), None);
    assert_eq!(t.branch_target_between(u64::MAX - 4, u64::MAX), None);
    // The first target at or past the text base is still found from
    // far below it, in one clamped step.
    let first = (1..t.pc_meta.len() as u64)
        .map(|i| t.text_base + 4 * i)
        .find(|&pc| t.is_branch_target(pc))
        .unwrap();
    assert_eq!(t.branch_target_between(0, u64::MAX), Some(first));
    assert_eq!(t.branch_target_between(t.text_base, u64::MAX), Some(first));
}
