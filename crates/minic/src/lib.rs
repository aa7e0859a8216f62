//! # minic — a mini-C compiler with memory-profiling support
//!
//! This crate stands in for the Sun ONE Studio 8 C compiler of the
//! paper *Memory Profiling using Hardware Counters* (SC'03). It
//! compiles a C subset (longs, chars behind pointers, structs,
//! pointers, functions, loops) to the SimSPARC ISA and — when invoked
//! with the equivalent of `-xhwcprof -xdebugformat=dwarf` — emits the
//! symbolic information the memory profiler needs (§2.1):
//!
//! * every memory operation cross-referenced with the data object it
//!   references ([`MemDesc`]),
//! * branch-target tables for trigger-PC validation,
//! * PC → source-line maps,
//! * `nop` padding between memory operations and join nodes, and no
//!   memory operations in branch delay slots.
//!
//! ```
//! use minic::{compile_and_link, CompileOptions};
//!
//! let src = r#"
//!     long main() {
//!         long i;
//!         long s = 0;
//!         for (i = 0; i < 10; i = i + 1) { s = s + i; }
//!         return s;
//!     }
//! "#;
//! let program = compile_and_link(&[("demo.c", src)], CompileOptions::profiling()).unwrap();
//! assert!(program.syms.funcs.iter().any(|f| f.name == "main"));
//! ```

mod ast;
mod codegen;
mod error;
mod feedback;
mod hir;
mod lexer;
mod link;
mod parser;
mod sema;
mod symtab;
mod token;
mod types;

pub use ast::{BinOp, UnOp};
pub use codegen::{CompileOptions, ObjModule, RelocKind};
pub use error::{CompileError, Phase, Result};
pub use feedback::{Feedback, FeedbackError, PrefetchHint, ReorderHint};
pub use hir::MemDesc;
pub use link::{link, Program};
pub use parser::MAX_AST_DEPTH;
pub use symtab::{render_memdesc, FuncSym, GlobalSym, ModuleSym, PcMeta, SymbolTable};
pub use types::{FieldInfo, StructInfo, Type};

/// Compile one source module.
pub fn compile_module(name: &str, src: &str, options: CompileOptions) -> Result<ObjModule> {
    compile_module_with_feedback(name, src, options, &Feedback::default())
}

/// Compile one source module with profile feedback (§4 of the paper:
/// the analyzer's feedback file drives recompilation decisions).
/// Prefetch hints apply in codegen; structure re-layout hints apply
/// during struct layout in sema.
pub fn compile_module_with_feedback(
    name: &str,
    src: &str,
    options: CompileOptions,
    feedback: &Feedback,
) -> Result<ObjModule> {
    let ast = parser::parse_module(name, src)?;
    let hir = sema::analyze_with_feedback(&ast, feedback)?;
    codegen::generate(&hir, options, feedback)
}

/// The runtime-support module (`libc` stand-in): a bump-pointer
/// `malloc`/`free`. Like the real `libc.so.1` in the paper's
/// experiments, it is *not* compiled with `-xhwcprof`, so profile
/// events landing in it become `(Unascertainable)` in the analyzer's
/// data-object view — faithfully reproducing §3.2.5.
pub const RUNTIME_SOURCE: &str = r#"
// minic runtime: bump-pointer allocator over the simulated heap.
long __heap_ptr;

char *malloc(long nbytes) {
    long p;
    long *hdr;
    if (__heap_ptr == 0) {
        __heap_ptr = 1073741824; // HEAP_BASE = 0x4000_0000
    }
    nbytes = nbytes + 15;
    nbytes = nbytes - nbytes % 16;
    // Allocation header, as a real allocator writes: profile events
    // triggered by this store land in a module without -xhwcprof and
    // become (Unascertainable), like the paper's libc.so.1 events.
    hdr = (long*)__heap_ptr;
    *hdr = nbytes;
    p = __heap_ptr + 16;
    __heap_ptr = p + nbytes;
    return (char*)p;
}

void free(char *p) {
    // Allocation is bump-only; MCF frees nothing on the hot path.
}
"#;

/// Compile the runtime-support module (always without `-xhwcprof`,
/// like a system library).
pub fn runtime_module() -> ObjModule {
    let opts = CompileOptions {
        hwcprof: false,
        dwarf: false,
        prefetch: false,
        opt: true,
    };
    compile_module("libc_rt.c", RUNTIME_SOURCE, opts).expect("runtime module must always compile")
}

/// The runtime-support module with `malloc` returning `align`-byte
/// aligned blocks (`align` a power of two > 16) — the §3.3 `heapalign`
/// feedback decision ("aligning node and arc structures on cache
/// lines"). The default 16-byte allocator keeps its exact historic
/// code (and therefore code bytes) when no alignment is requested.
pub fn runtime_module_aligned(align: u64) -> ObjModule {
    assert!(align.is_power_of_two() && align > 16, "bad heapalign");
    let opts = CompileOptions {
        hwcprof: false,
        dwarf: false,
        prefetch: false,
        opt: true,
    };
    let src = format!(
        r#"
// minic runtime: bump-pointer allocator over the simulated heap,
// returning {align}-byte aligned blocks (profile feedback `heapalign`).
long __heap_ptr;

char *malloc(long nbytes) {{
    long p;
    long *hdr;
    if (__heap_ptr == 0) {{
        __heap_ptr = 1073741824; // HEAP_BASE = 0x4000_0000
    }}
    nbytes = nbytes + 15;
    nbytes = nbytes - nbytes % 16;
    p = __heap_ptr + 16;
    p = (p + {pad}) / {align} * {align};
    // Allocation header just below the aligned block, as in the
    // unaligned allocator; events landing here stay (Unascertainable).
    hdr = (long*)(p - 16);
    *hdr = nbytes;
    __heap_ptr = p + nbytes;
    return (char*)p;
}}

void free(char *p) {{
    // Allocation is bump-only; MCF frees nothing on the hot path.
}}
"#,
        pad = align - 1,
    );
    compile_module("libc_rt.c", &src, opts).expect("aligned runtime module must always compile")
}

/// Compile the given sources with uniform options, add the runtime
/// module, and link. Programs that call `malloc`/`free` must declare
/// them (`extern char *malloc(long nbytes);`).
pub fn compile_and_link(sources: &[(&str, &str)], options: CompileOptions) -> Result<Program> {
    compile_and_link_with_feedback(sources, options, &Feedback::default())
}

/// [`compile_and_link`] with profile feedback: prefetch hints,
/// structure re-layout, and heap-allocation alignment all apply; the
/// `pagesize_heap` decision is recorded in the feedback for whoever
/// configures the machine (page size is a property of the MMU, not
/// the binary).
pub fn compile_and_link_with_feedback(
    sources: &[(&str, &str)],
    options: CompileOptions,
    feedback: &Feedback,
) -> Result<Program> {
    let mut modules = Vec::with_capacity(sources.len() + 1);
    for (name, src) in sources {
        modules.push(compile_module_with_feedback(name, src, options, feedback)?);
    }
    modules.push(match feedback.heap_align {
        Some(align) if align > 16 => runtime_module_aligned(align),
        _ => runtime_module(),
    });
    link(&modules)
}
