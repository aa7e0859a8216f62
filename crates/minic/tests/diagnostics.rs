//! Diagnostic quality: every class of malformed program must be
//! rejected in the right phase with a message that names the problem
//! and its location.

use minic::{compile_module, CompileOptions, Phase};

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
