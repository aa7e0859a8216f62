//! Diagnostic quality: every class of malformed program must be
//! rejected in the right phase with a message that names the problem
//! and its location.

use minic::{compile_module, CompileOptions, Phase, MAX_AST_DEPTH};

fn compile_err(src: &str) -> minic::CompileError {
    compile_module("diag.c", src, CompileOptions::default()).expect_err("program must be rejected")
}

#[test]
fn lex_errors() {
    let e = compile_err("long main() { return 1 $ 2; }");
    assert_eq!(e.phase, Phase::Lex);
    assert!(e.to_string().contains('$'), "{e}");
}

#[test]
fn parse_errors_report_context() {
    for (src, needle) in [
        ("long main() { if 1 { return 0; } }", "`(`"),
        ("struct s { long a }; long main() { return 0; }", "`;`"),
        ("long main() { return 0 }", "`;`"),
        ("long main(long) { return 0; }", "parameter name"),
        ("long main() { long 5; }", "variable name"),
    ] {
        let e = compile_err(src);
        assert_eq!(e.phase, Phase::Parse, "{src}");
        assert!(e.to_string().contains(needle), "`{src}` -> {e}");
    }
}

#[test]
fn sema_errors_report_context() {
    for (src, needle) in [
        ("long main() { return x; }", "unknown variable"),
        ("long main() { return; }", "return value required"),
        ("long main() { return f(); }", "unknown function"),
        (
            "long f(long a) { return a; } long main() { return f(); }",
            "argument",
        ),
        (
            "struct s { long a; }; long main() { struct s *p; return p->b; }",
            "no field `b`",
        ),
        (
            "long main() { long x; long x; return 0; }",
            "duplicate local",
        ),
        (
            "struct s { long a; }; long main() { long x; return x->a; }",
            "struct pointer",
        ),
        ("void main() { return 1; }", "void function"),
        ("long main() { return 1 + main; }", "unknown variable"),
        (
            "struct a { struct a inner; }; long main() { return 0; }",
            "by-value struct",
        ),
        (
            "long g[4]; long main() { g = 0; return 0; }",
            "not assignable",
        ),
    ] {
        let e = compile_err(src);
        assert_eq!(e.phase, Phase::Sema, "{src} -> {e}");
        assert!(e.to_string().contains(needle), "`{src}` -> {e}");
    }
}

#[test]
fn error_lines_point_at_the_problem() {
    let src = "long main() {\n    long a = 1;\n    return b;\n}\n";
    let e = compile_err(src);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.to_string().starts_with("diag.c:3:"), "{e}");
}

/// Fig. 7's expansion keys samples by member name, so two members of
/// one name would pool their samples under the first.
#[test]
fn duplicate_struct_members_are_rejected_at_the_second() {
    let src = "struct s {\n    long a;\n    long a;\n};\nlong main() { return 0; }\n";
    let e = compile_err(src);
    assert_eq!(e.phase, Phase::Sema, "{e}");
    assert_eq!(e.line, 3, "{e}");
    assert!(
        e.to_string().contains("duplicate member `a` in struct `s`"),
        "{e}"
    );
}

#[test]
fn builtin_names_cannot_be_redefined() {
    let e = compile_err("long print_long(long x) { return x; } long main() { return 0; }");
    assert!(e.to_string().contains("builtin"), "{e}");
}

#[test]
fn pointer_type_mismatches() {
    for src in [
        "struct a { long x; }; struct b { long x; }; long main() { struct a *p; struct b *q; p = q; return 0; }",
        "long main() { long *p; p = 5; return 0; }",
        "struct a { long x; }; long main() { struct a *p; return p + p; }",
    ] {
        let e = compile_err(src);
        assert_eq!(e.phase, Phase::Sema, "{src} -> {e}");
    }
}

/// The constructs a hostile source nests to exhaust the stack of the
/// phases after the parser.
const NESTS: [&str; 8] = [
    "parens", "neg", "not", "plus", "blocks", "ifs", "whiles", "fors",
];

/// `kind` nested `n` levels on line 2 of `main`. With the `return`
/// statement and the operand (or inner statement) around it, the
/// deepest node sits at AST depth `n + 2`.
fn nest(kind: &str, n: usize) -> String {
    let rep = |s: &str| s.repeat(n);
    let body = match kind {
        "parens" => format!("return {}1{};", rep("("), rep(")")),
        "neg" => format!("return {}1;", rep("-")),
        "not" => format!("return {}1;", rep("!")),
        "plus" => format!("return 1{};", rep(" + 1")),
        "blocks" => format!("{}return 1;{}", rep("{ "), rep(" }")),
        "ifs" => format!("{}return 1;", rep("if (1) ")),
        "whiles" => format!("{}return 1;", rep("while (0) ")),
        "fors" => format!("{}return 1;", rep("for (i = 0; i < 1; i = i + 1) ")),
        _ => unreachable!(),
    };
    format!("long main() {{ long i;\n    {body}\n    return 0;\n}}\n")
}

/// Past the depth limit every construct is a parse error naming its
/// line — one level past it, and at 10,000 levels, which would
/// otherwise overflow the stack.
#[test]
fn nesting_past_the_depth_limit_is_a_parse_error() {
    for kind in NESTS {
        for n in [MAX_AST_DEPTH - 1, 10_000] {
            let e = compile_err(&nest(kind, n));
            assert_eq!(e.phase, Phase::Parse, "{kind} x{n}: {e}");
            assert_eq!(e.line, 2, "{kind} x{n}: {e}");
            assert!(
                e.message
                    .contains(&format!("nesting deeper than {MAX_AST_DEPTH} levels")),
                "{kind} x{n}: {e}"
            );
        }
    }
}

/// At the limit every construct gets through every phase: it compiles,
/// or fails with a typed error of its own (a long `-` chain runs out
/// of scratch registers), never the depth error and never an overflow.
#[test]
fn every_construct_at_the_depth_limit_compiles() {
    for kind in NESTS {
        let src = nest(kind, MAX_AST_DEPTH - 2);
        if let Err(e) = compile_module("diag.c", &src, CompileOptions::profiling()) {
            assert!(!e.message.contains("nesting deeper"), "{kind}: {e}");
        }
    }
}
