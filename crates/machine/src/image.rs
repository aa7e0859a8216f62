//! Loadable program images and the virtual-address-space layout.
//!
//! An [`Image`] is what a linker (in this workspace, `minic`) hands to
//! the machine: decoded text at [`crate::TEXT_BASE`], initialized data
//! at [`crate::DATA_BASE`], and an entry point. Symbolic information
//! (function names, line tables, the `-xhwcprof` data descriptors)
//! deliberately does *not* live here — it travels separately from the
//! compiler to the analyzer, as in the real toolchain where the
//! experiment's `map` file records load objects whose symbol tables
//! are read at analysis time.

use crate::{DATA_BASE, HEAP_BASE, HEAP_END, STACK_TOP, TEXT_BASE};
use simsparc_isa::Insn;

/// Address-space segment classification, used for per-segment page
/// sizes (`-xpagesize_heap`) and the analyzer's memory-segment view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SegmentKind {
    Text,
    Data,
    Heap,
    Stack,
}

impl SegmentKind {
    /// Classify a virtual address.
    #[inline]
    pub fn of_addr(addr: u64) -> SegmentKind {
        if addr >= TEXT_BASE {
            SegmentKind::Text
        } else if addr >= HEAP_END {
            SegmentKind::Stack
        } else if addr >= HEAP_BASE {
            SegmentKind::Heap
        } else {
            SegmentKind::Data
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            SegmentKind::Text => "text",
            SegmentKind::Data => "data",
            SegmentKind::Heap => "heap",
            SegmentKind::Stack => "stack",
        }
    }
}

/// A segment of the loaded address space (reported by the analyzer's
/// segment view).
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub kind: SegmentKind,
    pub base: u64,
    pub len: u64,
}

/// A loadable program.
#[derive(Clone, Debug, Default)]
pub struct Image {
    /// Decoded instructions, loaded contiguously at [`TEXT_BASE`].
    pub text: Vec<Insn>,
    /// Initialized data, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Zero-initialized bytes following `data` (globals without
    /// initializers).
    pub bss_bytes: u64,
    /// Entry point (absolute address within text).
    pub entry: u64,
}

impl Image {
    /// Absolute address of the last text byte + 1.
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + self.text.len() as u64 * 4
    }

    /// Serialize to a simple text format (`a.out` stand-in): header
    /// line, then one encoded instruction word per line, then the
    /// initialized data as hex bytes.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// The text [`Image::save`] writes.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.text.len() * 9 + 64);
        writeln!(
            out,
            "simsparc-image entry={:#x} bss={} text={} data={}",
            self.entry,
            self.bss_bytes,
            self.text.len(),
            self.data.len()
        )
        .unwrap();
        for insn in &self.text {
            writeln!(out, "{:08x}", insn.encode()).unwrap();
        }
        for chunk in self.data.chunks(32) {
            for b in chunk {
                write!(out, "{b:02x}").unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Load an image written by [`Image::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Image> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let content = std::fs::read_to_string(path)?;
        let mut lines = content.lines();
        let header = lines.next().ok_or_else(|| bad("empty image"))?;
        let mut entry = 0u64;
        let mut bss = 0u64;
        let mut n_text = 0usize;
        let mut n_data = 0usize;
        for field in header.split_whitespace().skip(1) {
            let (k, v) = field.split_once('=').ok_or_else(|| bad("bad header"))?;
            match k {
                "entry" => {
                    entry = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                        .map_err(|_| bad("bad entry"))?
                }
                "bss" => bss = v.parse().map_err(|_| bad("bad bss"))?,
                "text" => n_text = v.parse().map_err(|_| bad("bad text count"))?,
                "data" => n_data = v.parse().map_err(|_| bad("bad data count"))?,
                _ => {}
            }
        }
        let mut text = Vec::with_capacity(n_text);
        for _ in 0..n_text {
            let line = lines.next().ok_or_else(|| bad("truncated text"))?;
            let word = u32::from_str_radix(line.trim(), 16).map_err(|_| bad("bad word"))?;
            let insn = Insn::decode(word).map_err(|_| bad("undecodable instruction"))?;
            text.push(insn);
        }
        let mut data = Vec::with_capacity(n_data);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.len() % 2 != 0 {
                return Err(bad("odd hex data line"));
            }
            for i in (0..line.len()).step_by(2) {
                data.push(
                    u8::from_str_radix(&line[i..i + 2], 16).map_err(|_| bad("bad data hex"))?,
                );
            }
        }
        if data.len() != n_data {
            return Err(bad("data length mismatch"));
        }
        Ok(Image {
            text,
            data,
            bss_bytes: bss,
            entry,
        })
    }

    /// The segments this image occupies once loaded.
    pub fn segments(&self) -> Vec<Segment> {
        vec![
            Segment {
                kind: SegmentKind::Text,
                base: TEXT_BASE,
                len: self.text.len() as u64 * 4,
            },
            Segment {
                kind: SegmentKind::Data,
                base: DATA_BASE,
                len: self.data.len() as u64 + self.bss_bytes,
            },
            Segment {
                kind: SegmentKind::Heap,
                base: HEAP_BASE,
                len: HEAP_END - HEAP_BASE,
            },
            Segment {
                kind: SegmentKind::Stack,
                base: STACK_TOP - 0x10_0000,
                len: 0x10_0000,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_classification() {
        assert_eq!(SegmentKind::of_addr(TEXT_BASE + 0x31b0), SegmentKind::Text);
        assert_eq!(SegmentKind::of_addr(DATA_BASE), SegmentKind::Data);
        assert_eq!(SegmentKind::of_addr(HEAP_BASE), SegmentKind::Heap);
        assert_eq!(SegmentKind::of_addr(HEAP_END - 1), SegmentKind::Heap);
        assert_eq!(SegmentKind::of_addr(STACK_TOP - 8), SegmentKind::Stack);
    }

    #[test]
    fn image_save_load_round_trip() {
        use simsparc_isa::{AluOp, Operand, Reg};
        let img = Image {
            text: vec![
                Insn::mov(Operand::Imm(5), Reg::O0),
                Insn::alu(AluOp::Add, Reg::O0, Operand::Imm(1), Reg::O0),
                Insn::Trap { num: 0 },
            ],
            data: (0..77u8).collect(),
            bss_bytes: 4096,
            entry: TEXT_BASE + 4,
        };
        let path = std::env::temp_dir().join(format!("img_{}.txt", std::process::id()));
        img.save(&path).unwrap();
        let loaded = Image::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.text, img.text);
        assert_eq!(loaded.data, img.data);
        assert_eq!(loaded.bss_bytes, img.bss_bytes);
        assert_eq!(loaded.entry, img.entry);
    }

    #[test]
    fn image_extents() {
        let img = Image {
            text: vec![Insn::Nop; 10],
            data: vec![0; 100],
            bss_bytes: 24,
            entry: TEXT_BASE,
        };
        assert_eq!(img.text_end(), TEXT_BASE + 40);
        let segs = img.segments();
        assert_eq!(segs[0].len, 40);
        assert_eq!(segs[1].len, 124);
    }
}
