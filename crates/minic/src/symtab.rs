//! The linked program's symbolic information — the mini-C equivalent
//! of the DWARF tables that `-xhwcprof -xdebugformat=dwarf` records
//! (§2.1 of the paper):
//!
//! 1. symbolic information about data references (per-PC
//!    [`MemDesc`] descriptors),
//! 2. each memory operation cross-referenced with the variable or
//!    structure member it references,
//! 3. information about all instructions that are branch targets,
//! 4. each PC associated with a source line number.
//!
//! The analyzer consumes this table; the machine never sees it.

use crate::hir::MemDesc;
use crate::types::StructInfo;

/// Per-instruction metadata (parallel to the text segment).
#[derive(Clone, Debug)]
pub struct PcMeta {
    /// 1-based source line.
    pub line: u32,
    /// Data-object descriptor for memory-referencing instructions.
    pub memdesc: MemDesc,
    /// Is this instruction a branch target (a label some branch
    /// references, or a function entry)?
    pub is_branch_target: bool,
}

/// One compiled module (load object in the experiment's `map` file).
#[derive(Clone, Debug)]
pub struct ModuleSym {
    pub name: String,
    /// Compiled with `-xhwcprof`?
    pub hwcprof: bool,
    /// Compiled with `-xdebugformat=dwarf`? Without it the
    /// branch-target information is absent and trigger PCs become
    /// `(Unverifiable)`.
    pub dwarf: bool,
    /// Source text for the annotated-source view.
    pub source: String,
}

/// A function's extent in the text segment.
#[derive(Clone, Debug)]
pub struct FuncSym {
    pub name: String,
    /// First instruction address.
    pub entry: u64,
    /// One past the last instruction address.
    pub end: u64,
    /// Index into [`SymbolTable::modules`].
    pub module: usize,
    /// Source line of the definition.
    pub line: u32,
}

/// A linked global with its assigned data address.
#[derive(Clone, Debug)]
pub struct GlobalSym {
    pub name: String,
    pub addr: u64,
    pub size: u64,
    pub type_desc: String,
}

/// Full symbolic information for a linked program.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    pub modules: Vec<ModuleSym>,
    /// Sorted by entry address.
    pub funcs: Vec<FuncSym>,
    /// Parallel to the text segment: `pc_meta[(pc - text_base) / 4]`.
    pub pc_meta: Vec<PcMeta>,
    /// Base address of the text segment.
    pub text_base: u64,
    /// Struct layouts (merged across modules by name), for the
    /// analyzer's data-object expansion view (Figure 7).
    pub structs: Vec<StructInfo>,
    pub globals: Vec<GlobalSym>,
}

impl SymbolTable {
    fn index_of(&self, pc: u64) -> Option<usize> {
        if pc < self.text_base || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - self.text_base) / 4) as usize;
        (idx < self.pc_meta.len()).then_some(idx)
    }

    /// Metadata for one PC.
    pub fn meta_at(&self, pc: u64) -> Option<&PcMeta> {
        self.index_of(pc).map(|i| &self.pc_meta[i])
    }

    /// The function containing `pc`.
    pub fn func_at(&self, pc: u64) -> Option<&FuncSym> {
        self.func_index_at(pc).map(|i| &self.funcs[i])
    }

    /// Index into [`SymbolTable::funcs`] of the function containing
    /// `pc` — a stable interned function id for columnar consumers.
    pub fn func_index_at(&self, pc: u64) -> Option<usize> {
        let idx = self
            .funcs
            .partition_point(|f| f.entry <= pc)
            .checked_sub(1)?;
        (pc < self.funcs[idx].end).then_some(idx)
    }

    /// The module containing `pc`.
    pub fn module_at(&self, pc: u64) -> Option<&ModuleSym> {
        self.func_at(pc).map(|f| &self.modules[f.module])
    }

    /// Is `pc` a recorded branch target? Only meaningful for modules
    /// compiled with DWARF debug info.
    pub fn is_branch_target(&self, pc: u64) -> bool {
        self.meta_at(pc).is_some_and(|m| m.is_branch_target)
    }

    /// Any branch target strictly inside the address range
    /// `(from, to]`? This is the §2.3 validation query: if a branch
    /// target lies between the candidate trigger PC and the delivered
    /// PC, the analysis "can not be sure which instruction caused the
    /// event". Returns the *first* such target (the artificial PC the
    /// event is attributed to).
    ///
    /// Both ends come from the event stream, so the walk is clamped to
    /// the PCs [`SymbolTable::pc_meta`] describes: it takes at most one
    /// step per text instruction whatever the range, and no address
    /// arithmetic can overflow.
    pub fn branch_target_between(&self, from: u64, to: u64) -> Option<u64> {
        if to <= from {
            return None;
        }
        let mut pc = from.checked_add(4)?;
        if pc < self.text_base {
            let steps = (self.text_base - pc).div_ceil(4);
            pc = pc.checked_add(steps.checked_mul(4)?)?;
        }
        let text_bytes = (self.pc_meta.len() as u64).saturating_mul(4);
        let last = to.min(self.text_base.saturating_add(text_bytes).saturating_sub(1));
        while pc <= last {
            if self.is_branch_target(pc) {
                return Some(pc);
            }
            pc = pc.checked_add(4)?;
        }
        None
    }

    /// Source line for a PC.
    pub fn line_at(&self, pc: u64) -> Option<u32> {
        self.meta_at(pc).map(|m| m.line)
    }

    /// Data address of a linked global.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        self.globals.iter().find(|g| g.name == name).map(|g| g.addr)
    }

    /// Struct layout by name (for the expansion view).
    pub fn struct_by_name(&self, name: &str) -> Option<&StructInfo> {
        self.structs.iter().find(|s| s.name == name)
    }
}

/// Render a descriptor the way `er_print` does:
/// `{structure:node -}{long orientation}`.
pub fn render_memdesc(desc: &MemDesc) -> String {
    match desc {
        MemDesc::Member {
            struct_name,
            member,
            member_type,
            ..
        } => format!("{{structure:{struct_name} -}}{{{member_type} {member}}}"),
        MemDesc::Scalar { name, type_desc } => format!("{{{type_desc} {name}}}"),
        MemDesc::Temporary => "{<compiler temporary>}".to_string(),
        MemDesc::None => String::new(),
    }
}

// ----------------------------------------------------------------------
// Persistence: the experiment bundle's `loadobjects`/symbol side.
// ----------------------------------------------------------------------

impl SymbolTable {
    /// Serialize to a line-oriented text file (the stand-in for the
    /// DWARF sections the real tool reads back from the executable at
    /// analysis time).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// The text [`SymbolTable::save`] writes.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let esc = |s: &str| s.replace('\\', "\\\\").replace('\n', "\\n");
        let mut out = String::new();
        writeln!(out, "simsparc-syms text_base={:#x}", self.text_base).unwrap();
        for m in &self.modules {
            writeln!(
                out,
                "MODULE {} {} {} {}",
                m.hwcprof as u8,
                m.dwarf as u8,
                m.name,
                esc(&m.source)
            )
            .unwrap();
        }
        for f in &self.funcs {
            writeln!(
                out,
                "FUNC {:#x} {:#x} {} {} {}",
                f.entry, f.end, f.module, f.line, f.name
            )
            .unwrap();
        }
        for p in &self.pc_meta {
            let desc = match &p.memdesc {
                MemDesc::None => "-".to_string(),
                MemDesc::Temporary => "T".to_string(),
                MemDesc::Scalar { name, type_desc } => format!("S {type_desc} {name}"),
                MemDesc::Member {
                    struct_name,
                    member,
                    member_type,
                    offset,
                } => format!("M {struct_name} {member} {member_type} {offset}"),
            };
            writeln!(out, "PC {} {} {desc}", p.line, p.is_branch_target as u8).unwrap();
        }
        for s in &self.structs {
            writeln!(out, "STRUCT {} {} {} {}", s.name, s.size, s.align, s.line).unwrap();
            for f in &s.fields {
                writeln!(out, "FIELD {} {} {}", f.name, f.offset, f.type_desc).unwrap();
            }
        }
        for g in &self.globals {
            writeln!(
                out,
                "GLOBAL {} {:#x} {} {}",
                g.name,
                g.addr,
                g.size,
                if g.type_desc.is_empty() {
                    "-"
                } else {
                    &g.type_desc
                }
            )
            .unwrap();
        }
        out
    }

    /// Load a table written by [`SymbolTable::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<SymbolTable> {
        SymbolTable::parse(&std::fs::read_to_string(path)?)
    }

    /// Parse the text [`SymbolTable::save`] writes — the form the
    /// table travels in as a packed store's `syms.txt` attachment.
    pub fn parse(content: &str) -> std::io::Result<SymbolTable> {
        use crate::types::Type;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let unesc = |s: &str| -> String {
            let mut out = String::with_capacity(s.len());
            let mut chars = s.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('n') => out.push('\n'),
                        Some('\\') => out.push('\\'),
                        Some(other) => out.push(other),
                        None => {}
                    }
                } else {
                    out.push(c);
                }
            }
            out
        };
        // All legal field types are long/char/pointers (by-value
        // struct fields are rejected by sema), so the descriptor
        // recovers the type exactly. A typedef chain (`cost_t=long`)
        // names its underlying type after the last `=`.
        fn ty_of_desc(desc: &str) -> Type {
            let desc = desc.rsplit_once('=').map_or(desc, |(_, rhs)| rhs);
            if desc.starts_with("pointer+") {
                return Type::ptr_to(Type::Long);
            }
            if desc == "char" {
                return Type::Char;
            }
            Type::Long
        }
        let hex =
            |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|_| bad("hex"));

        let mut lines = content.lines();
        let header = lines.next().ok_or_else(|| bad("empty symtab"))?;
        let text_base = header
            .split_whitespace()
            .find_map(|f| f.strip_prefix("text_base="))
            .ok_or_else(|| bad("missing text_base"))
            .and_then(hex)?;

        let mut t = SymbolTable {
            text_base,
            ..SymbolTable::default()
        };
        for line in lines {
            let mut parts = line.splitn(2, ' ');
            let tag = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("");
            match tag {
                "MODULE" => {
                    let f: Vec<&str> = rest.splitn(4, ' ').collect();
                    if f.len() < 3 {
                        return Err(bad("bad MODULE"));
                    }
                    t.modules.push(ModuleSym {
                        hwcprof: f[0] == "1",
                        dwarf: f[1] == "1",
                        name: f[2].to_string(),
                        source: unesc(f.get(3).copied().unwrap_or("")),
                    });
                }
                "FUNC" => {
                    let f: Vec<&str> = rest.splitn(5, ' ').collect();
                    if f.len() != 5 {
                        return Err(bad("bad FUNC"));
                    }
                    t.funcs.push(FuncSym {
                        entry: hex(f[0])?,
                        end: hex(f[1])?,
                        module: f[2].parse().map_err(|_| bad("bad module idx"))?,
                        line: f[3].parse().map_err(|_| bad("bad line"))?,
                        name: f[4].to_string(),
                    });
                }
                "PC" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    if f.len() < 3 {
                        return Err(bad("bad PC"));
                    }
                    let memdesc = match f[2] {
                        "-" => MemDesc::None,
                        "T" => MemDesc::Temporary,
                        "S" => MemDesc::Scalar {
                            type_desc: f.get(3).ok_or_else(|| bad("bad S"))?.to_string(),
                            name: f.get(4).ok_or_else(|| bad("bad S"))?.to_string(),
                        },
                        "M" => MemDesc::Member {
                            struct_name: f.get(3).ok_or_else(|| bad("bad M"))?.to_string(),
                            member: f.get(4).ok_or_else(|| bad("bad M"))?.to_string(),
                            member_type: f.get(5).ok_or_else(|| bad("bad M"))?.to_string(),
                            offset: f
                                .get(6)
                                .ok_or_else(|| bad("bad M"))?
                                .parse()
                                .map_err(|_| bad("bad offset"))?,
                        },
                        _ => return Err(bad("bad desc tag")),
                    };
                    t.pc_meta.push(PcMeta {
                        line: f[0].parse().map_err(|_| bad("bad line"))?,
                        is_branch_target: f[1] == "1",
                        memdesc,
                    });
                }
                "STRUCT" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    if f.len() != 4 {
                        return Err(bad("bad STRUCT"));
                    }
                    t.structs.push(crate::types::StructInfo {
                        name: f[0].to_string(),
                        size: f[1].parse().map_err(|_| bad("bad size"))?,
                        align: f[2].parse().map_err(|_| bad("bad align"))?,
                        line: f[3].parse().map_err(|_| bad("bad line"))?,
                        fields: Vec::new(),
                    });
                }
                "FIELD" => {
                    let f: Vec<&str> = rest.splitn(3, ' ').collect();
                    if f.len() != 3 {
                        return Err(bad("bad FIELD"));
                    }
                    let s = t
                        .structs
                        .last_mut()
                        .ok_or_else(|| bad("FIELD before STRUCT"))?;
                    s.fields.push(crate::types::FieldInfo {
                        name: f[0].to_string(),
                        offset: f[1].parse().map_err(|_| bad("bad offset"))?,
                        ty: ty_of_desc(f[2]),
                        type_desc: f[2].to_string(),
                    });
                }
                "GLOBAL" => {
                    let f: Vec<&str> = rest.splitn(4, ' ').collect();
                    if f.len() != 4 {
                        return Err(bad("bad GLOBAL"));
                    }
                    t.globals.push(GlobalSym {
                        name: f[0].to_string(),
                        addr: hex(f[1])?,
                        size: f[2].parse().map_err(|_| bad("bad size"))?,
                        type_desc: if f[3] == "-" {
                            String::new()
                        } else {
                            f[3].to_string()
                        },
                    });
                }
                "" => {}
                _ => return Err(bad("unknown record")),
            }
        }
        // Every lookup that maps a function to its module indexes
        // `modules` with `module`, so an index past the MODULE records
        // is refused here rather than panicking there.
        if t.funcs.iter().any(|f| f.module >= t.modules.len()) {
            return Err(bad("FUNC module index past the MODULE records"));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        let meta = |bt: bool| PcMeta {
            line: 1,
            memdesc: MemDesc::None,
            is_branch_target: bt,
        };
        SymbolTable {
            modules: vec![ModuleSym {
                name: "m".into(),
                hwcprof: true,
                dwarf: true,
                source: String::new(),
            }],
            funcs: vec![
                FuncSym {
                    name: "f".into(),
                    entry: 0x1_0000_0000,
                    end: 0x1_0000_0010,
                    module: 0,
                    line: 1,
                },
                FuncSym {
                    name: "g".into(),
                    entry: 0x1_0000_0010,
                    end: 0x1_0000_0020,
                    module: 0,
                    line: 9,
                },
            ],
            pc_meta: vec![
                meta(true),
                meta(false),
                meta(false),
                meta(true),
                meta(true),
                meta(false),
                meta(false),
                meta(false),
            ],
            text_base: 0x1_0000_0000,
            structs: vec![],
            globals: vec![GlobalSym {
                name: "root".into(),
                addr: 0x2000_0000,
                size: 8,
                type_desc: "pointer+structure:node".into(),
            }],
        }
    }

    #[test]
    fn func_lookup() {
        let t = table();
        assert_eq!(t.func_at(0x1_0000_0000).unwrap().name, "f");
        assert_eq!(t.func_at(0x1_0000_000c).unwrap().name, "f");
        assert_eq!(t.func_at(0x1_0000_0010).unwrap().name, "g");
        assert!(t.func_at(0x1_0000_0020).is_none());
        assert!(t.func_at(0x0fff_fffc).is_none());
    }

    #[test]
    fn branch_target_between_is_exclusive_inclusive() {
        let t = table();
        // Targets at indexes 0, 3, 4.
        let b = t.text_base;
        assert_eq!(t.branch_target_between(b, b + 8), None);
        assert_eq!(t.branch_target_between(b, b + 12), Some(b + 12));
        assert_eq!(t.branch_target_between(b + 12, b + 16), Some(b + 16));
        assert_eq!(t.branch_target_between(b + 16, b + 28), None);
        // Empty and inverted ranges.
        assert_eq!(t.branch_target_between(b + 12, b + 12), None);
        assert_eq!(t.branch_target_between(b + 16, b), None);
    }

    #[test]
    fn render_descriptors_like_the_paper() {
        let d = MemDesc::Member {
            struct_name: "node".into(),
            member: "orientation".into(),
            member_type: "long".into(),
            offset: 56,
        };
        assert_eq!(render_memdesc(&d), "{structure:node -}{long orientation}");
        let d = MemDesc::Member {
            struct_name: "arc".into(),
            member: "cost".into(),
            member_type: "cost_t=long".into(),
            offset: 0,
        };
        assert_eq!(render_memdesc(&d), "{structure:arc -}{cost_t=long cost}");
        let d = MemDesc::Member {
            struct_name: "node".into(),
            member: "child".into(),
            member_type: "pointer+structure:node".into(),
            offset: 24,
        };
        assert_eq!(
            render_memdesc(&d),
            "{structure:node -}{pointer+structure:node child}"
        );
    }

    #[test]
    fn global_lookup() {
        let t = table();
        assert_eq!(t.global_addr("root"), Some(0x2000_0000));
        assert_eq!(t.global_addr("nope"), None);
    }
}
