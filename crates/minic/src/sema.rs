//! Semantic analysis: name resolution, type checking, struct layout,
//! pointer-arithmetic scaling, and lowering to the typed HIR.

use std::collections::HashMap;

use crate::ast::{self, BaseType, BinOp, ExprKind, Module, ParsedType, StmtKind, UnOp};
use crate::error::{CompileError, Result};
use crate::feedback::Feedback;
use crate::hir::*;
use crate::types::{layout_fields, StructId, StructInfo, Type};

/// Type-check and lower one parsed module.
#[cfg(test)]
pub fn analyze(module: &Module) -> Result<HModule> {
    analyze_with_feedback(module, &Feedback::default())
}

/// `analyze`, applying profile-feedback structure re-layout
/// decisions (§3.3: "re-arranging the members of the node and arc
/// structures according to their frequency of reference") during
/// struct layout.
pub fn analyze_with_feedback(module: &Module, feedback: &Feedback) -> Result<HModule> {
    let mut cx = Sema::new(&module.name);
    cx.register_structs(module)?;
    cx.register_typedefs(module)?;
    cx.layout_structs(module, feedback)?;
    cx.register_globals(module)?;
    cx.register_signatures(module)?;

    let mut funcs = Vec::with_capacity(module.funcs.len());
    for f in &module.funcs {
        funcs.push(cx.lower_func(f)?);
    }
    Ok(HModule {
        name: module.name.clone(),
        structs: cx.structs,
        globals: cx.globals,
        funcs,
        source: module.source.clone(),
    })
}

/// A function signature visible to callers within the module.
#[derive(Clone, Debug)]
struct Signature {
    params: Vec<Type>,
    ret: Type,
}

struct Sema {
    module: String,
    struct_ids: HashMap<String, StructId>,
    structs: Vec<StructInfo>,
    /// typedef name → (resolved type, rendered descriptor).
    typedefs: HashMap<String, (Type, String)>,
    globals: Vec<HGlobal>,
    global_ids: HashMap<String, usize>,
    sigs: HashMap<String, Signature>,
}

struct FnCx {
    locals: Vec<HLocal>,
    names: HashMap<String, usize>,
    ret: Type,
    loop_depth: u32,
}

impl Sema {
    fn new(module: &str) -> Sema {
        Sema {
            module: module.to_string(),
            struct_ids: HashMap::new(),
            structs: Vec::new(),
            typedefs: HashMap::new(),
            globals: Vec::new(),
            global_ids: HashMap::new(),
            sigs: HashMap::new(),
        }
    }

    fn err<T>(&self, line: u32, msg: &str) -> Result<T> {
        Err(CompileError::sema(&self.module, line, msg))
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn register_structs(&mut self, m: &Module) -> Result<()> {
        for s in &m.structs {
            if self.struct_ids.contains_key(&s.name) {
                return self.err(s.line, &format!("duplicate struct `{}`", s.name));
            }
            let id = self.structs.len();
            self.struct_ids.insert(s.name.clone(), id);
            self.structs.push(StructInfo {
                name: s.name.clone(),
                fields: Vec::new(),
                size: 0,
                align: 8,
                line: s.line,
            });
        }
        Ok(())
    }

    fn register_typedefs(&mut self, m: &Module) -> Result<()> {
        for td in &m.typedefs {
            let (ty, desc) = self.resolve_type(&td.ty, td.line)?;
            let rendered = format!("{}={}", td.name, desc);
            if self
                .typedefs
                .insert(td.name.clone(), (ty, rendered))
                .is_some()
            {
                return self.err(td.line, &format!("duplicate typedef `{}`", td.name));
            }
        }
        Ok(())
    }

    fn layout_structs(&mut self, m: &Module, feedback: &Feedback) -> Result<()> {
        for s in &m.structs {
            let id = self.struct_ids[&s.name];
            let mut fields = Vec::with_capacity(s.fields.len());
            for f in &s.fields {
                let (ty, desc) = self.resolve_type(&f.ty, f.line)?;
                if matches!(ty, Type::Struct(_)) {
                    return self.err(
                        f.line,
                        &format!(
                            "field `{}`: by-value struct fields are not supported; use a pointer",
                            f.name
                        ),
                    );
                }
                if ty == Type::Void {
                    return self.err(f.line, &format!("field `{}` has type void", f.name));
                }
                if fields.iter().any(|(name, _, _)| *name == f.name) {
                    return self.err(
                        f.line,
                        &format!("duplicate member `{}` in struct `{}`", f.name, s.name),
                    );
                }
                fields.push((f.name.clone(), ty, desc));
            }
            if let Some(hint) = feedback.reorder_for(&s.name) {
                fields = self.apply_reorder(fields, hint, s.line)?;
            }
            let (fields, mut size, align) = layout_fields(fields, &self.structs);
            if let Some(pad) = feedback.reorder_for(&s.name).and_then(|h| h.pad_to) {
                if pad < size || !pad.is_multiple_of(align) {
                    return self.err(
                        s.line,
                        &format!(
                            "reorder pad={pad} for struct `{}` must be >= its natural size \
                             {size} and a multiple of its alignment {align}",
                            s.name
                        ),
                    );
                }
                size = pad;
            }
            let info = &mut self.structs[id];
            info.fields = fields;
            info.size = size;
            info.align = align;
        }
        Ok(())
    }

    /// The feedback-directed re-layout pass: members named by the
    /// hint move to the front in hint order; all other members keep
    /// declaration order behind them. Member accesses compile by name
    /// against the final offsets, so the permutation cannot change
    /// program meaning — only where the bytes land.
    fn apply_reorder(
        &self,
        fields: Vec<(String, Type, String)>,
        hint: &crate::feedback::ReorderHint,
        line: u32,
    ) -> Result<Vec<(String, Type, String)>> {
        let mut front = Vec::with_capacity(hint.order.len());
        let mut rest = fields;
        for name in &hint.order {
            let Some(pos) = rest.iter().position(|(n, _, _)| n == name) else {
                return self.err(
                    line,
                    &format!(
                        "reorder for struct `{}` names `{name}`, which is not a \
                         member of it (or repeats in the order)",
                        hint.struct_name
                    ),
                );
            };
            front.push(rest.remove(pos));
        }
        front.extend(rest);
        Ok(front)
    }

    fn register_globals(&mut self, m: &Module) -> Result<()> {
        for g in &m.globals {
            let (ty, _) = self.resolve_type(&g.ty, g.line)?;
            if ty == Type::Void {
                return self.err(g.line, &format!("global `{}` has type void", g.name));
            }
            let elem_size = ty.size(&self.structs);
            let size = elem_size * g.array_len.unwrap_or(1);
            let align = ty.align(&self.structs).max(8);
            if self.global_ids.contains_key(&g.name) {
                return self.err(g.line, &format!("duplicate global `{}`", g.name));
            }
            self.global_ids.insert(g.name.clone(), self.globals.len());
            self.globals.push(HGlobal {
                name: g.name.clone(),
                ty,
                array_len: g.array_len,
                is_extern: g.is_extern,
                size,
                align,
            });
        }
        Ok(())
    }

    fn register_signatures(&mut self, m: &Module) -> Result<()> {
        let add = |sema: &mut Sema,
                   name: &str,
                   params: &[(String, ParsedType)],
                   ret: &ParsedType,
                   line: u32|
         -> Result<()> {
            let ret = sema.resolve_type(ret, line)?.0;
            let mut ptys = Vec::with_capacity(params.len());
            for (_, pt) in params {
                let t = sema.resolve_type(pt, line)?.0;
                if t == Type::Void || matches!(t, Type::Struct(_)) {
                    return sema.err(line, "parameters must be long or pointer types");
                }
                ptys.push(t);
            }
            if ptys.len() > 6 {
                return sema.err(line, &format!("`{name}`: at most 6 parameters supported"));
            }
            if Builtin::by_name(name).is_some() {
                return sema.err(line, &format!("`{name}` is a compiler builtin"));
            }
            let sig = Signature { params: ptys, ret };
            if let Some(prev) = sema.sigs.get(name) {
                if prev.params != sig.params || prev.ret != sig.ret {
                    return sema.err(line, &format!("conflicting declarations of `{name}`"));
                }
            }
            sema.sigs.insert(name.to_string(), sig);
            Ok(())
        };
        for p in &m.protos {
            add(self, &p.name, &p.params, &p.ret, p.line)?;
        }
        for f in &m.funcs {
            add(self, &f.name, &f.params, &f.ret, f.line)?;
        }
        Ok(())
    }

    /// Resolve a parsed type; returns the type and its rendered
    /// descriptor (e.g. `pointer+structure:node`, `cost_t=long`).
    fn resolve_type(&self, pt: &ParsedType, line: u32) -> Result<(Type, String)> {
        let (mut ty, mut desc) = match &pt.base {
            BaseType::Long => (Type::Long, "long".to_string()),
            BaseType::Char => (Type::Char, "char".to_string()),
            BaseType::Void => (Type::Void, "void".to_string()),
            BaseType::Struct(name) => match self.struct_ids.get(name) {
                Some(&id) => (Type::Struct(id), format!("structure:{name}")),
                None => return self.err(line, &format!("unknown struct `{name}`")),
            },
            BaseType::Named(name) => match self.typedefs.get(name) {
                Some((t, d)) => (t.clone(), d.clone()),
                None => return self.err(line, &format!("unknown type `{name}`")),
            },
        };
        for _ in 0..pt.ptr_depth {
            ty = Type::ptr_to(ty);
            desc = format!("pointer+{desc}");
        }
        Ok((ty, desc))
    }

    // ------------------------------------------------------------------
    // Functions
    // ------------------------------------------------------------------

    fn lower_func(&self, f: &ast::FuncDecl) -> Result<HFunc> {
        let sig = &self.sigs[&f.name];
        let mut cx = FnCx {
            locals: Vec::new(),
            names: HashMap::new(),
            ret: sig.ret.clone(),
            loop_depth: 0,
        };
        for ((pname, _), pty) in f.params.iter().zip(&sig.params) {
            if cx.names.contains_key(pname) {
                return self.err(f.line, &format!("duplicate parameter `{pname}`"));
            }
            cx.names.insert(pname.clone(), cx.locals.len());
            cx.locals.push(HLocal {
                name: pname.clone(),
                ty: pty.clone(),
            });
        }
        let param_count = cx.locals.len();
        let body = self.lower_body(&f.body, &mut cx)?;
        Ok(HFunc {
            name: f.name.clone(),
            ret: sig.ret.clone(),
            param_count,
            locals: cx.locals,
            body,
            line: f.line,
        })
    }

    fn lower_body(&self, stmts: &[ast::Stmt], cx: &mut FnCx) -> Result<Vec<HStmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.lower_stmt(s, cx, &mut out)?;
        }
        Ok(out)
    }

    fn lower_stmt(&self, s: &ast::Stmt, cx: &mut FnCx, out: &mut Vec<HStmt>) -> Result<()> {
        let line = s.line;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let (ty, _) = self.resolve_type(ty, line)?;
                if ty == Type::Void || matches!(ty, Type::Struct(_)) {
                    return self.err(line, &format!("local `{name}` must be long or pointer"));
                }
                if cx.names.contains_key(name) {
                    return self.err(line, &format!("duplicate local `{name}`"));
                }
                let index = cx.locals.len();
                cx.names.insert(name.clone(), index);
                cx.locals.push(HLocal {
                    name: name.clone(),
                    ty: ty.clone(),
                });
                if let Some(init) = init {
                    let v = self.lower_expr(init, cx)?;
                    let v = self.coerce(v, &ty, line)?;
                    out.push(HStmt::AssignLocal {
                        index,
                        value: v,
                        line,
                    });
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                let value = self.lower_expr(rhs, cx)?;
                match self.lower_lvalue(lhs, cx)? {
                    LValue::Local(index) => {
                        let ty = cx.locals[index].ty.clone();
                        let value = self.coerce(value, &ty, line)?;
                        out.push(HStmt::AssignLocal { index, value, line });
                    }
                    LValue::Mem {
                        base,
                        offset,
                        ty,
                        desc,
                    } => {
                        let value = self.coerce(value, &ty, line)?;
                        out.push(HStmt::Store {
                            base,
                            offset,
                            value,
                            ty,
                            desc,
                            line,
                        });
                    }
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                let he = self.lower_expr(e, cx)?;
                out.push(HStmt::Expr(he, line));
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.lower_cond(cond, cx)?;
                let then_body = self.lower_body(then_body, cx)?;
                let else_body = self.lower_body(else_body, cx)?;
                out.push(HStmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                });
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let cond = self.lower_cond(cond, cx)?;
                cx.loop_depth += 1;
                let body = self.lower_body(body, cx)?;
                cx.loop_depth -= 1;
                out.push(HStmt::While { cond, body, line });
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let init = match init {
                    Some(st) => {
                        let mut tmp = Vec::new();
                        self.lower_stmt(st, cx, &mut tmp)?;
                        // A decl without initializer lowers to nothing.
                        tmp.pop().map(Box::new)
                    }
                    None => None,
                };
                let cond = match cond {
                    Some(c) => Some(self.lower_cond(c, cx)?),
                    None => None,
                };
                let step = match step {
                    Some(st) => {
                        let mut tmp = Vec::new();
                        self.lower_stmt(st, cx, &mut tmp)?;
                        tmp.pop().map(Box::new)
                    }
                    None => None,
                };
                cx.loop_depth += 1;
                let body = self.lower_body(body, cx)?;
                cx.loop_depth -= 1;
                out.push(HStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    line,
                });
                Ok(())
            }
            StmtKind::Return(v) => {
                let v = match (v, &cx.ret) {
                    (None, Type::Void) => None,
                    (None, _) => return self.err(line, "return value required"),
                    (Some(_), Type::Void) => {
                        return self.err(line, "void function cannot return a value")
                    }
                    (Some(e), ret) => {
                        let ret = ret.clone();
                        let he = self.lower_expr(e, cx)?;
                        Some(self.coerce(he, &ret, line)?)
                    }
                };
                out.push(HStmt::Return(v, line));
                Ok(())
            }
            StmtKind::Break => {
                if cx.loop_depth == 0 {
                    return self.err(line, "break outside a loop");
                }
                out.push(HStmt::Break(line));
                Ok(())
            }
            StmtKind::Continue => {
                if cx.loop_depth == 0 {
                    return self.err(line, "continue outside a loop");
                }
                out.push(HStmt::Continue(line));
                Ok(())
            }
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.lower_stmt(st, cx, out)?;
                }
                Ok(())
            }
        }
    }

    /// Lower a condition: any long or pointer expression.
    fn lower_cond(&self, e: &ast::Expr, cx: &mut FnCx) -> Result<HExpr> {
        let he = self.lower_expr(e, cx)?;
        if he.ty == Type::Long || he.ty.is_ptr() {
            Ok(he)
        } else {
            self.err(e.line, "condition must be a long or pointer expression")
        }
    }

    /// Insert the implicit conversions mini-C allows: the literal `0`
    /// as a null pointer, and `char` rvalues widening to `long`
    /// (loads already widen, so `char` never appears as a value type).
    fn coerce(&self, e: HExpr, want: &Type, line: u32) -> Result<HExpr> {
        if &e.ty == want {
            return Ok(e);
        }
        if want.is_ptr() && matches!(e.kind, HExprKind::Const(0)) {
            return Ok(HExpr {
                ty: want.clone(),
                ..e
            });
        }
        if *want == Type::Char && e.ty == Type::Long {
            // Storing a long into a char location truncates.
            return Ok(e);
        }
        self.err(
            line,
            &format!("type mismatch: expected {want:?}, found {:?}", e.ty),
        )
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn lower_expr(&self, e: &ast::Expr, cx: &mut FnCx) -> Result<HExpr> {
        let line = e.line;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(HExpr {
                kind: HExprKind::Const(*v),
                ty: Type::Long,
                line,
            }),
            ExprKind::SizeofType(pt) => {
                let (ty, _) = self.resolve_type(pt, line)?;
                Ok(HExpr {
                    kind: HExprKind::Const(ty.size(&self.structs) as i64),
                    ty: Type::Long,
                    line,
                })
            }
            ExprKind::Var(name) => {
                if let Some(&idx) = cx.names.get(name) {
                    return Ok(HExpr {
                        kind: HExprKind::Local(idx),
                        ty: cx.locals[idx].ty.clone(),
                        line,
                    });
                }
                if let Some(&gid) = self.global_ids.get(name) {
                    let g = &self.globals[gid];
                    if g.array_len.is_some() {
                        // Arrays decay to a pointer to their first element.
                        return Ok(HExpr {
                            kind: HExprKind::GlobalAddr(name.clone()),
                            ty: Type::ptr_to(g.ty.clone()),
                            line,
                        });
                    }
                    return Ok(HExpr {
                        kind: HExprKind::Load {
                            base: Box::new(HExpr {
                                kind: HExprKind::GlobalAddr(name.clone()),
                                ty: Type::ptr_to(g.ty.clone()),
                                line,
                            }),
                            offset: 0,
                            loaded_ty: g.ty.clone(),
                            desc: MemDesc::Scalar {
                                name: name.clone(),
                                type_desc: self.render_ty(&g.ty),
                            },
                        },
                        ty: g.ty.clone(),
                        line,
                    });
                }
                self.err(line, &format!("unknown variable `{name}`"))
            }
            ExprKind::Unary(op, inner) => {
                let he = self.lower_expr(inner, cx)?;
                match op {
                    UnOp::Neg => {
                        if he.ty != Type::Long {
                            return self.err(line, "unary `-` requires a long");
                        }
                        Ok(HExpr {
                            kind: HExprKind::Unary(UnOp::Neg, Box::new(he)),
                            ty: Type::Long,
                            line,
                        })
                    }
                    UnOp::Not => {
                        if he.ty != Type::Long && !he.ty.is_ptr() {
                            return self.err(line, "unary `!` requires a long or pointer");
                        }
                        Ok(HExpr {
                            kind: HExprKind::Unary(UnOp::Not, Box::new(he)),
                            ty: Type::Long,
                            line,
                        })
                    }
                }
            }
            ExprKind::Binary(op, l, r) => self.lower_binary(*op, l, r, cx, line),
            ExprKind::Call(name, args) => self.lower_call(name, args, cx, line),
            ExprKind::Member(..) | ExprKind::Index(..) | ExprKind::Deref(..) => {
                match self.lower_lvalue(e, cx)? {
                    LValue::Local(idx) => Ok(HExpr {
                        kind: HExprKind::Local(idx),
                        ty: cx.locals[idx].ty.clone(),
                        line,
                    }),
                    LValue::Mem {
                        base,
                        offset,
                        ty,
                        desc,
                    } => {
                        if matches!(ty, Type::Struct(_)) {
                            return self.err(line, "cannot load a whole struct; access a member");
                        }
                        // char loads widen to long in the value domain.
                        let vty = if ty == Type::Char {
                            Type::Long
                        } else {
                            ty.clone()
                        };
                        Ok(HExpr {
                            kind: HExprKind::Load {
                                base: Box::new(base),
                                offset,
                                loaded_ty: ty,
                                desc,
                            },
                            ty: vty,
                            line,
                        })
                    }
                }
            }
            ExprKind::AddrOf(inner) => match self.lower_lvalue(inner, cx)? {
                LValue::Local(_) => self.err(
                    line,
                    "cannot take the address of a local (locals live in registers)",
                ),
                LValue::Mem {
                    base, offset, ty, ..
                } => {
                    let addr = add_offset(base, offset, line);
                    Ok(HExpr {
                        kind: addr.kind,
                        ty: Type::ptr_to(ty),
                        line,
                    })
                }
            },
            ExprKind::Cast(pt, inner) => {
                let (ty, _) = self.resolve_type(pt, line)?;
                let he = self.lower_expr(inner, cx)?;
                let ok = (ty == Type::Long && (he.ty == Type::Long || he.ty.is_ptr()))
                    || (ty.is_ptr() && (he.ty == Type::Long || he.ty.is_ptr()));
                if !ok {
                    return self.err(line, &format!("invalid cast to {ty:?} from {:?}", he.ty));
                }
                Ok(HExpr { ty, ..he })
            }
        }
    }

    fn lower_binary(
        &self,
        op: BinOp,
        l: &ast::Expr,
        r: &ast::Expr,
        cx: &mut FnCx,
        line: u32,
    ) -> Result<HExpr> {
        let lh = self.lower_expr(l, cx)?;
        let rh = self.lower_expr(r, cx)?;

        // Pointer arithmetic: scale the integer operand by the pointee
        // size (C semantics; MCF iterates `arc = arc + 1`).
        if matches!(op, BinOp::Add | BinOp::Sub) {
            match (lh.ty.is_ptr(), rh.ty.is_ptr()) {
                (true, false) => {
                    if rh.ty != Type::Long {
                        return self.err(line, "pointer arithmetic requires a long");
                    }
                    let size = lh.ty.pointee().unwrap().size(&self.structs);
                    let ty = lh.ty.clone();
                    let scaled = scale(rh, size, line);
                    return Ok(HExpr {
                        kind: HExprKind::Binary(op, Box::new(lh), Box::new(scaled)),
                        ty,
                        line,
                    });
                }
                (false, true) => {
                    if op == BinOp::Sub {
                        return self.err(line, "cannot subtract a pointer from a long");
                    }
                    if lh.ty != Type::Long {
                        return self.err(line, "pointer arithmetic requires a long");
                    }
                    let size = rh.ty.pointee().unwrap().size(&self.structs);
                    let ty = rh.ty.clone();
                    let scaled = scale(lh, size, line);
                    return Ok(HExpr {
                        kind: HExprKind::Binary(op, Box::new(rh), Box::new(scaled)),
                        ty,
                        line,
                    });
                }
                (true, true) if op == BinOp::Sub => {
                    if lh.ty != rh.ty {
                        return self.err(line, "pointer difference requires matching types");
                    }
                    let size = lh.ty.pointee().unwrap().size(&self.structs) as i64;
                    let diff = HExpr {
                        kind: HExprKind::Binary(BinOp::Sub, Box::new(lh), Box::new(rh)),
                        ty: Type::Long,
                        line,
                    };
                    return Ok(HExpr {
                        kind: HExprKind::Binary(
                            BinOp::Div,
                            Box::new(diff),
                            Box::new(HExpr {
                                kind: HExprKind::Const(size),
                                ty: Type::Long,
                                line,
                            }),
                        ),
                        ty: Type::Long,
                        line,
                    });
                }
                _ => {}
            }
        }

        if op.is_comparison() {
            let ok = (lh.ty == Type::Long && rh.ty == Type::Long)
                || (lh.ty.is_ptr() && rh.ty == lh.ty)
                || (lh.ty.is_ptr() && matches!(rh.kind, HExprKind::Const(0)))
                || (rh.ty.is_ptr() && matches!(lh.kind, HExprKind::Const(0)));
            if !ok {
                return self.err(line, "incomparable operand types");
            }
            return Ok(HExpr {
                kind: HExprKind::Binary(op, Box::new(lh), Box::new(rh)),
                ty: Type::Long,
                line,
            });
        }

        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            for side in [&lh, &rh] {
                if side.ty != Type::Long && !side.ty.is_ptr() {
                    return self.err(line, "logical operands must be long or pointer");
                }
            }
            return Ok(HExpr {
                kind: HExprKind::Binary(op, Box::new(lh), Box::new(rh)),
                ty: Type::Long,
                line,
            });
        }

        // Remaining arithmetic/bitwise ops: long op long.
        if lh.ty != Type::Long || rh.ty != Type::Long {
            return self.err(
                line,
                &format!(
                    "operator {op:?} requires long operands, found {:?} and {:?}",
                    lh.ty, rh.ty
                ),
            );
        }
        Ok(HExpr {
            kind: HExprKind::Binary(op, Box::new(lh), Box::new(rh)),
            ty: Type::Long,
            line,
        })
    }

    fn lower_call(
        &self,
        name: &str,
        args: &[ast::Expr],
        cx: &mut FnCx,
        line: u32,
    ) -> Result<HExpr> {
        if let Some(b) = Builtin::by_name(name) {
            if args.len() != b.arity() {
                return self.err(line, &format!("`{name}` takes {} argument(s)", b.arity()));
            }
            let mut hargs = Vec::new();
            for a in args {
                let ha = self.lower_expr(a, cx)?;
                let ok = match b {
                    Builtin::Prefetch => ha.ty.is_ptr(),
                    _ => ha.ty == Type::Long || ha.ty.is_ptr(),
                };
                if !ok {
                    return self.err(line, &format!("bad argument type for `{name}`"));
                }
                hargs.push(ha);
            }
            return Ok(HExpr {
                kind: HExprKind::Call {
                    target: CallTarget::Builtin(b),
                    args: hargs,
                },
                ty: Type::Void,
                line,
            });
        }
        let Some(sig) = self.sigs.get(name) else {
            return self.err(line, &format!("unknown function `{name}`"));
        };
        if args.len() != sig.params.len() {
            return self.err(
                line,
                &format!(
                    "`{name}` takes {} argument(s), {} given",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        let mut hargs = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(&sig.params) {
            let ha = self.lower_expr(a, cx)?;
            hargs.push(self.coerce(ha, pty, line)?);
        }
        Ok(HExpr {
            kind: HExprKind::Call {
                target: CallTarget::Func(name.to_string()),
                args: hargs,
            },
            ty: sig.ret.clone(),
            line,
        })
    }

    // ------------------------------------------------------------------
    // Lvalues
    // ------------------------------------------------------------------

    fn lower_lvalue(&self, e: &ast::Expr, cx: &mut FnCx) -> Result<LValue> {
        let line = e.line;
        match &e.kind {
            ExprKind::Var(name) => {
                if let Some(&idx) = cx.names.get(name) {
                    return Ok(LValue::Local(idx));
                }
                if let Some(&gid) = self.global_ids.get(name) {
                    let g = &self.globals[gid];
                    if g.array_len.is_some() {
                        return self.err(line, &format!("array `{name}` is not assignable"));
                    }
                    return Ok(LValue::Mem {
                        base: HExpr {
                            kind: HExprKind::GlobalAddr(name.clone()),
                            ty: Type::ptr_to(g.ty.clone()),
                            line,
                        },
                        offset: 0,
                        ty: g.ty.clone(),
                        desc: MemDesc::Scalar {
                            name: name.clone(),
                            type_desc: self.render_ty(&g.ty),
                        },
                    });
                }
                self.err(line, &format!("unknown variable `{name}`"))
            }
            ExprKind::Member(base, field) => {
                let b = self.lower_expr(base, cx)?;
                let Some(Type::Struct(sid)) = b.ty.pointee().cloned() else {
                    return self.err(line, "`->` requires a struct pointer");
                };
                let sinfo = &self.structs[sid];
                let Some((_, finfo)) = sinfo.field(field) else {
                    return self.err(
                        line,
                        &format!("struct `{}` has no field `{field}`", sinfo.name),
                    );
                };
                Ok(LValue::Mem {
                    base: b,
                    offset: finfo.offset as i64,
                    ty: finfo.ty.clone(),
                    desc: MemDesc::Member {
                        struct_name: sinfo.name.clone(),
                        member: field.clone(),
                        member_type: finfo.type_desc.clone(),
                        offset: finfo.offset,
                    },
                })
            }
            ExprKind::Index(base, index) => {
                let b = self.lower_expr(base, cx)?;
                let Some(elem) = b.ty.pointee().cloned() else {
                    return self.err(line, "indexing requires a pointer or array");
                };
                if matches!(elem, Type::Struct(_)) {
                    return self.err(line, "cannot index to a whole struct; use `(p + i)->field`");
                }
                let i = self.lower_expr(index, cx)?;
                if i.ty != Type::Long {
                    return self.err(line, "index must be a long");
                }
                let size = elem.size(&self.structs);
                let scaled = scale(i, size, line);
                let desc = match &b.kind {
                    HExprKind::GlobalAddr(name) => MemDesc::Scalar {
                        name: name.clone(),
                        type_desc: self.render_ty(&elem),
                    },
                    // An indirect indexed access the compiler has no
                    // name for: (Unspecified) in the paper's taxonomy.
                    _ => MemDesc::None,
                };
                Ok(LValue::Mem {
                    base: HExpr {
                        kind: HExprKind::Binary(BinOp::Add, Box::new(b), Box::new(scaled)),
                        ty: Type::ptr_to(elem.clone()),
                        line,
                    },
                    offset: 0,
                    ty: elem,
                    desc,
                })
            }
            ExprKind::Deref(base) => {
                let b = self.lower_expr(base, cx)?;
                let Some(elem) = b.ty.pointee().cloned() else {
                    return self.err(line, "`*` requires a pointer");
                };
                Ok(LValue::Mem {
                    base: b,
                    offset: 0,
                    ty: elem,
                    desc: MemDesc::None,
                })
            }
            _ => self.err(line, "expression is not assignable"),
        }
    }

    /// Render a type for scalar descriptors.
    fn render_ty(&self, ty: &Type) -> String {
        match ty {
            Type::Long => "long".to_string(),
            Type::Char => "char".to_string(),
            Type::Void => "void".to_string(),
            Type::Ptr(inner) => format!("pointer+{}", self.render_ty(inner)),
            Type::Struct(id) => format!("structure:{}", self.structs[*id].name),
        }
    }
}

#[allow(clippy::large_enum_variant)]
enum LValue {
    Local(usize),
    Mem {
        base: HExpr,
        offset: i64,
        ty: Type,
        desc: MemDesc,
    },
}

/// Multiply an index expression by an element size, folding constants.
fn scale(e: HExpr, size: u64, line: u32) -> HExpr {
    if size == 1 {
        return e;
    }
    if let HExprKind::Const(v) = e.kind {
        return HExpr {
            kind: HExprKind::Const(v * size as i64),
            ty: Type::Long,
            line,
        };
    }
    HExpr {
        kind: HExprKind::Binary(
            BinOp::Mul,
            Box::new(e),
            Box::new(HExpr {
                kind: HExprKind::Const(size as i64),
                ty: Type::Long,
                line,
            }),
        ),
        ty: Type::Long,
        line,
    }
}

/// `base + offset` as an expression (for `&p->f`).
fn add_offset(base: HExpr, offset: i64, line: u32) -> HExpr {
    if offset == 0 {
        return base;
    }
    let ty = base.ty.clone();
    HExpr {
        kind: HExprKind::Binary(
            BinOp::Add,
            Box::new(base),
            Box::new(HExpr {
                kind: HExprKind::Const(offset),
                ty: Type::Long,
                line,
            }),
        ),
        ty,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn analyze_src(src: &str) -> Result<HModule> {
        analyze(&parse_module("t", src).unwrap())
    }

    #[test]
    fn reorder_hint_permutes_layout_and_pads() {
        let src = r#"
            struct rec { long a; long b; char *c; long d; };
            long f(struct rec *r) { return r->d; }
        "#;
        let fb = Feedback::from_text("reorder rec d,c pad=64\n").unwrap();
        let m = analyze_with_feedback(&parse_module("t", src).unwrap(), &fb).unwrap();
        let rec = &m.structs[0];
        let names: Vec<&str> = rec.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["d", "c", "a", "b"]);
        assert_eq!(rec.fields[0].offset, 0);
        assert_eq!(rec.fields[3].offset, 24);
        assert_eq!(rec.size, 64, "padded to the requested size");
        // Type descriptors travel with their fields.
        assert_eq!(rec.fields[1].type_desc, "pointer+char");

        // Unknown member and bad pads are hard errors.
        let bad = Feedback::from_text("reorder rec nosuch\n").unwrap();
        assert!(analyze_with_feedback(&parse_module("t", src).unwrap(), &bad).is_err());
        let small = Feedback::from_text("reorder rec d pad=16\n").unwrap();
        assert!(analyze_with_feedback(&parse_module("t", src).unwrap(), &small).is_err());
        let misaligned = Feedback::from_text("reorder rec d pad=36\n").unwrap();
        assert!(analyze_with_feedback(&parse_module("t", src).unwrap(), &misaligned).is_err());
    }

    #[test]
    fn member_descriptors_match_paper_format() {
        let src = r#"
            typedef long cost_t;
            struct arc { cost_t cost; struct node *tail; };
            struct node { long orientation; struct arc *basic_arc; };
            long f(struct node *n) {
                return n->basic_arc->cost + n->orientation;
            }
        "#;
        let m = analyze_src(src).unwrap();
        let arc = &m.structs[0];
        assert_eq!(arc.fields[0].type_desc, "cost_t=long");
        assert_eq!(arc.fields[1].type_desc, "pointer+structure:node");
        let node = &m.structs[1];
        assert_eq!(node.fields[1].type_desc, "pointer+structure:arc");
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let src = r#"
            struct arc { long cost; long pad1; long pad2; long pad3; };
            long f(struct arc *a) {
                a = a + 1;
                return a->cost;
            }
        "#;
        let m = analyze_src(src).unwrap();
        // a + 1 must scale by 32.
        let HStmt::AssignLocal { value, .. } = &m.funcs[0].body[0] else {
            panic!()
        };
        let HExprKind::Binary(BinOp::Add, _, rhs) = &value.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, HExprKind::Const(32)));
    }

    #[test]
    fn pointer_difference_divides() {
        let src = r#"
            struct arc { long a; long b; };
            long f(struct arc *p, struct arc *q) { return p - q; }
        "#;
        let m = analyze_src(src).unwrap();
        let HStmt::Return(Some(e), _) = &m.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, HExprKind::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn null_pointer_literal() {
        let src = r#"
            struct node { struct node *next; };
            long f(struct node *n) {
                n->next = 0;
                if (n->next == 0) { return 1; }
                return 0;
            }
        "#;
        assert!(analyze_src(src).is_ok());
    }

    #[test]
    fn rejects_type_mismatches() {
        assert!(analyze_src("long f(long x) { return x; } long g() { struct node *p; }").is_err());
        assert!(
            analyze_src("struct a { long x; }; struct b { long x; }; long f(struct a *p) { struct b *q; q = p; return 0; }")
                .is_err()
        );
        assert!(analyze_src("long f(long x) { return x + f; }").is_err());
    }

    #[test]
    fn rejects_address_of_local() {
        assert!(analyze_src("long f() { long x; return (long)&x; }").is_err());
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(analyze_src("long f() { break; return 0; }").is_err());
    }

    #[test]
    fn sizeof_folds_to_constant() {
        let src = r#"
            struct node { long a; long b; long c; };
            long f() { return sizeof(struct node); }
        "#;
        let m = analyze_src(src).unwrap();
        let HStmt::Return(Some(e), _) = &m.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, HExprKind::Const(24)));
    }

    #[test]
    fn builtins_resolve() {
        let m = analyze_src("void f(long x) { print_long(x); exit(0); }").unwrap();
        let HStmt::Expr(e, _) = &m.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            HExprKind::Call {
                target: CallTarget::Builtin(Builtin::PrintLong),
                ..
            }
        ));
    }

    #[test]
    fn global_arrays_decay_and_index() {
        let src = r#"
            long table[16];
            long f(long i) {
                table[i] = i * 2;
                return table[i + 1];
            }
        "#;
        let m = analyze_src(src).unwrap();
        let HStmt::Store { desc, .. } = &m.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(
            *desc,
            MemDesc::Scalar {
                name: "table".into(),
                type_desc: "long".into()
            }
        );
    }

    #[test]
    fn prototypes_allow_forward_calls() {
        let src = r#"
            long helper(long x);
            long main() { return helper(1); }
            long helper(long x) { return x + 1; }
        "#;
        assert!(analyze_src(src).is_ok());
    }

    #[test]
    fn conflicting_prototype_rejected() {
        let src = r#"
            long helper(long x);
            long helper(long x, long y) { return x + y; }
        "#;
        assert!(analyze_src(src).is_err());
    }

    #[test]
    fn too_many_params_rejected() {
        let src = "long f(long a, long b, long c, long d, long e, long g, long h) { return 0; }";
        assert!(analyze_src(src).is_err());
    }
}
