//! Recursive-descent parser for mini-C.
//!
//! Grammar sketch (C subset, no precedence surprises):
//!
//! ```text
//! module     := item*
//! item       := typedef | struct-decl | extern-decl | global | func
//! typedef    := "typedef" type IDENT ";"
//! struct-decl:= "struct" IDENT "{" (type IDENT ";")* "}" ";"
//! global     := type IDENT ("[" INT "]")? ";"
//! func       := type IDENT "(" params ")" (block | ";")
//! stmt       := decl | assign | expr ";" | if | while | for
//!             | return | break | continue | block
//! expr       := logical-or with C precedence; unary: - ! * & cast sizeof
//! postfix    := primary ( "->" IDENT | "[" expr "]" | "(" args ")" )*
//! ```
//!
//! The parser needs to distinguish declarations from expressions at
//! statement level; mini-C keeps that trivial by requiring type names
//! (`long`, `char`, `struct S`, or a typedef name registered earlier
//! in the module) to start declarations.
//!
//! Every phase after this one walks the tree recursively, so the
//! parser refuses a tree deeper than [`MAX_AST_DEPTH`] with a parse
//! error instead of handing a later phase a stack overflow.

use crate::ast::*;
use crate::error::{CompileError, Result};
use crate::lexer::lex;
use crate::token::{Tok, Token};

/// The deepest AST the parser builds. Each nested statement, each
/// operand (under a parenthesis, a unary operator, a cast, a call or
/// an index) and each operator of a binary or postfix chain is one
/// level: a left-associative chain deepens the tree once per operator.
/// Sema, lowering and codegen recurse once per level, so this bounds
/// their stack: every construct nested this deep compiles on a 2 MiB
/// thread in a debug build, where the costliest (nested `for`s and
/// `else if`s) overflows only past about 106 levels.
pub const MAX_AST_DEPTH: usize = 100;

/// Parse one module.
pub fn parse_module(name: &str, src: &str) -> Result<Module> {
    let tokens = lex(src, name)?;
    let mut p = Parser {
        module: name.to_string(),
        tokens,
        pos: 0,
        typedef_names: Vec::new(),
        depth: 0,
    };
    let mut m = Module {
        name: name.to_string(),
        source: src.to_string(),
        ..Module::default()
    };
    while !p.at(&Tok::Eof) {
        p.parse_item(&mut m)?;
    }
    Ok(m)
}

struct Parser {
    module: String,
    tokens: Vec<Token>,
    pos: usize,
    /// Typedef names seen so far (needed to recognize declarations).
    typedef_names: Vec<String>,
    /// AST depth of the node being parsed ([`MAX_AST_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: &str) -> CompileError {
        CompileError::parse(&self.module, self.line(), msg)
    }

    /// Go one AST level deeper, failing past [`MAX_AST_DEPTH`]. Errors
    /// abandon the parse, so only successful paths restore `depth`.
    fn deepen(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_AST_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_AST_DEPTH} levels")));
        }
        Ok(())
    }

    /// Run `parse` one AST level deeper.
    fn nested<T>(&mut self, parse: fn(&mut Parser) -> Result<T>) -> Result<T> {
        self.deepen()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(&format!("expected {what}, found {other:?}"))),
        }
    }

    /// Does the current token start a type?
    fn at_type(&self) -> bool {
        match self.peek() {
            Tok::KwLong | Tok::KwChar | Tok::KwVoid | Tok::KwStruct => true,
            Tok::Ident(name) => self.typedef_names.iter().any(|t| t == name),
            _ => false,
        }
    }

    /// type := ("long" | "char" | "void" | "struct" IDENT | TYPEDEF) "*"*
    fn parse_type(&mut self) -> Result<ParsedType> {
        let base = match self.bump() {
            Tok::KwLong => BaseType::Long,
            Tok::KwChar => BaseType::Char,
            Tok::KwVoid => BaseType::Void,
            Tok::KwStruct => BaseType::Struct(self.expect_ident("struct name")?),
            Tok::Ident(name) if self.typedef_names.iter().any(|t| t == &name) => {
                BaseType::Named(name)
            }
            other => return Err(self.err(&format!("expected type, found {other:?}"))),
        };
        let mut ptr_depth = 0;
        while self.eat(&Tok::Star) {
            ptr_depth += 1;
        }
        Ok(ParsedType { base, ptr_depth })
    }

    fn parse_item(&mut self, m: &mut Module) -> Result<()> {
        let line = self.line();
        if self.eat(&Tok::KwTypedef) {
            let ty = self.parse_type()?;
            let name = self.expect_ident("typedef name")?;
            self.expect(&Tok::Semi, "`;`")?;
            self.typedef_names.push(name.clone());
            m.typedefs.push(Typedef { name, ty, line });
            return Ok(());
        }
        // `struct S { ... };` (definition) vs `struct S *g;` (global).
        if self.at(&Tok::KwStruct) && matches!(self.peek2(), Tok::Ident(_)) {
            let brace_next = self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&Tok::LBrace);
            if brace_next {
                self.bump(); // struct
                let name = self.expect_ident("struct name")?;
                self.expect(&Tok::LBrace, "`{`")?;
                let mut fields = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    let fline = self.line();
                    let fty = self.parse_type()?;
                    let fname = self.expect_ident("field name")?;
                    self.expect(&Tok::Semi, "`;` after field")?;
                    fields.push(FieldDecl {
                        name: fname,
                        ty: fty,
                        line: fline,
                    });
                }
                self.expect(&Tok::Semi, "`;` after struct")?;
                m.structs.push(StructDecl { name, fields, line });
                return Ok(());
            }
        }

        let is_extern = self.eat(&Tok::KwExtern);
        let ty = self.parse_type()?;
        let name = self.expect_ident("declaration name")?;

        if self.at(&Tok::LParen) {
            // Function definition or prototype.
            self.bump();
            let mut params = Vec::new();
            if !self.at(&Tok::RParen) {
                loop {
                    if self.eat(&Tok::KwVoid) && self.at(&Tok::RParen) {
                        break; // f(void)
                    }
                    let pty = self.parse_type()?;
                    let pname = self.expect_ident("parameter name")?;
                    params.push((pname, pty));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
            if self.eat(&Tok::Semi) {
                m.protos.push(Prototype {
                    name,
                    ret: ty,
                    params,
                    line,
                });
            } else {
                if is_extern {
                    return Err(self.err("extern functions cannot have bodies"));
                }
                let body = self.parse_block()?;
                m.funcs.push(FuncDecl {
                    name,
                    ret: ty,
                    params,
                    body,
                    line,
                });
            }
            return Ok(());
        }

        // Global variable.
        let array_len = if self.eat(&Tok::LBracket) {
            let n = match self.bump() {
                Tok::Int(v) if v > 0 => v as u64,
                other => return Err(self.err(&format!("expected array length, found {other:?}"))),
            };
            self.expect(&Tok::RBracket, "`]`")?;
            Some(n)
        } else {
            None
        };
        self.expect(&Tok::Semi, "`;` after global")?;
        m.globals.push(GlobalDecl {
            name,
            ty,
            array_len,
            is_extern,
            line,
        });
        Ok(())
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.at(&Tok::Eof) {
                return Err(self.err("unexpected end of file in block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        let kind = self.nested(Parser::parse_stmt_kind)?;
        Ok(Stmt { kind, line })
    }

    fn parse_stmt_kind(&mut self) -> Result<StmtKind> {
        Ok(match self.peek().clone() {
            Tok::LBrace => StmtKind::Block(self.parse_block()?),
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let then_body = self.parse_stmt_as_block()?;
                let else_body = if self.eat(&Tok::KwElse) {
                    self.parse_stmt_as_block()?
                } else {
                    Vec::new()
                };
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let body = self.parse_stmt_as_block()?;
                StmtKind::While { cond, body }
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let init = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt()?))
                };
                self.expect(&Tok::Semi, "`;` after for-init")?;
                let cond = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Tok::Semi, "`;` after for-cond")?;
                let step = if self.at(&Tok::RParen) {
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt()?))
                };
                self.expect(&Tok::RParen, "`)`")?;
                let body = self.parse_stmt_as_block()?;
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            Tok::KwReturn => {
                self.bump();
                let v = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Tok::Semi, "`;` after return")?;
                StmtKind::Return(v)
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Break
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Continue
            }
            _ => {
                let s = self.parse_simple_stmt()?;
                self.expect(&Tok::Semi, "`;`")?;
                s.kind
            }
        })
    }

    /// A single statement treated as a one-element block (branch arms).
    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>> {
        if self.at(&Tok::LBrace) {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    /// Declaration, assignment or expression — without the trailing
    /// `;` (shared by statement position and `for` headers).
    fn parse_simple_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        if self.at_type() {
            let ty = self.parse_type()?;
            let name = self.expect_ident("variable name")?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Stmt {
                kind: StmtKind::Decl { name, ty, init },
                line,
            });
        }
        let e = self.parse_expr()?;
        if self.eat(&Tok::Assign) {
            let rhs = self.parse_expr()?;
            Ok(Stmt {
                kind: StmtKind::Assign { lhs: e, rhs },
                line,
            })
        } else {
            Ok(Stmt {
                kind: StmtKind::Expr(e),
                line,
            })
        }
    }

    // ---------------- expressions ----------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_bin(0)
    }

    /// Precedence-climbing over binary operators. Each operator adds a
    /// level: its node sits above its right operand, and the next
    /// operator of the chain builds its node above this one.
    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        let depth = self.depth;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (BinOp::LogOr, 1),
                Tok::AndAnd => (BinOp::LogAnd, 2),
                Tok::Pipe => (BinOp::Or, 3),
                Tok::Caret => (BinOp::Xor, 4),
                Tok::Amp => (BinOp::And, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::NotEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            self.deepen()?;
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        self.nested(Parser::parse_operand)
    }

    fn parse_operand(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                    line,
                })
            }
            Tok::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                    line,
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr {
                    kind: ExprKind::Deref(Box::new(e)),
                    line,
                })
            }
            Tok::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr {
                    kind: ExprKind::AddrOf(Box::new(e)),
                    line,
                })
            }
            Tok::KwSizeof => {
                self.bump();
                self.expect(&Tok::LParen, "`(` after sizeof")?;
                let ty = self.parse_type()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Expr {
                    kind: ExprKind::SizeofType(ty),
                    line,
                })
            }
            // Cast: `(type) unary` — unambiguous because types are
            // syntactically recognizable.
            Tok::LParen if self.next_is_cast() => {
                self.bump();
                let ty = self.parse_type()?;
                self.expect(&Tok::RParen, "`)` after cast type")?;
                let e = self.parse_unary()?;
                Ok(Expr {
                    kind: ExprKind::Cast(ty, Box::new(e)),
                    line,
                })
            }
            _ => self.parse_postfix(),
        }
    }

    fn next_is_cast(&self) -> bool {
        // current token is LParen; is the token after it a type name?
        match self.peek2() {
            Tok::KwLong | Tok::KwChar | Tok::KwVoid | Tok::KwStruct => true,
            Tok::Ident(name) => self.typedef_names.iter().any(|t| t == name),
            _ => false,
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        let depth = self.depth;
        loop {
            let line = self.line();
            if matches!(self.peek(), Tok::Arrow | Tok::LBracket) {
                self.deepen()?;
            }
            if self.eat(&Tok::Arrow) {
                let field = self.expect_ident("field name")?;
                e = Expr {
                    kind: ExprKind::Member(Box::new(e), field),
                    line,
                };
            } else if self.eat(&Tok::LBracket) {
                let idx = self.parse_expr()?;
                self.expect(&Tok::RBracket, "`]`")?;
                e = Expr {
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    line,
                };
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr {
                kind: ExprKind::IntLit(v),
                line,
            }),
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.at(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "`)` after arguments")?;
                    Ok(Expr {
                        kind: ExprKind::Call(name, args),
                        line,
                    })
                } else {
                    Ok(Expr {
                        kind: ExprKind::Var(name),
                        line,
                    })
                }
            }
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(CompileError::parse(
                &self.module,
                line,
                &format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_and_function() {
        let src = r#"
            typedef long cost_t;
            struct node {
                long number;
                struct node *pred;
                cost_t potential;
            };
            struct node *root;
            long f(struct node *n, long x) {
                long i;
                i = 0;
                while (n) {
                    i = i + n->potential;
                    n = n->pred;
                }
                return i + x;
            }
        "#;
        let m = parse_module("t", src).unwrap();
        assert_eq!(m.typedefs.len(), 1);
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields.len(), 3);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].params.len(), 2);
    }

    #[test]
    fn for_loop_and_calls() {
        let src = r#"
            long g(long n) {
                long s = 0;
                long i;
                for (i = 0; i < n; i = i + 1) {
                    s = s + i;
                }
                print_long(s);
                return s;
            }
        "#;
        let m = parse_module("t", src).unwrap();
        assert!(matches!(m.funcs[0].body[2].kind, StmtKind::For { .. }));
    }

    #[test]
    fn precedence() {
        let m = parse_module("t", "long f() { return 1 + 2 * 3 < 4 && 5 == 6; }").unwrap();
        let StmtKind::Return(Some(e)) = &m.funcs[0].body[0].kind else {
            panic!()
        };
        // top must be &&
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::LogAnd, _, _)));
    }

    #[test]
    fn casts_and_sizeof() {
        let src = r#"
            struct arc { long cost; };
            long f() {
                struct arc *a;
                a = (struct arc*)malloc(100 * sizeof(struct arc));
                return (long)a;
            }
        "#;
        let m = parse_module("t", src).unwrap();
        assert_eq!(m.funcs.len(), 1);
    }

    #[test]
    fn prototypes_and_extern_globals() {
        let src = r#"
            extern long nodes_n;
            long helper(long x);
            long main() { return helper(nodes_n); }
        "#;
        let m = parse_module("t", src).unwrap();
        assert_eq!(m.protos.len(), 1);
        assert!(m.globals[0].is_extern);
    }

    #[test]
    fn pointer_types() {
        let m = parse_module("t", "long **pp; struct node *n; char *s;").unwrap();
        assert_eq!(m.globals.len(), 3);
        assert_eq!(m.globals[0].ty.ptr_depth, 2);
    }

    #[test]
    fn error_has_location() {
        let err = parse_module("mod", "long f() {\n  return +;\n}").unwrap_err();
        assert!(err.to_string().contains("mod:2"), "{err}");
    }

    #[test]
    fn dangling_else_binds_inner() {
        let src = "long f(long a, long b) { if (a) if (b) return 1; else return 2; return 3; }";
        let m = parse_module("t", src).unwrap();
        let StmtKind::If {
            then_body,
            else_body,
            ..
        } = &m.funcs[0].body[0].kind
        else {
            panic!()
        };
        assert!(else_body.is_empty());
        let StmtKind::If { else_body, .. } = &then_body[0].kind else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
    }
}
