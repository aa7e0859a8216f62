//! Sparse byte-addressable data memory.
//!
//! The data address space (everything below [`crate::TEXT_BASE`]) is
//! backed by lazily-allocated 8 KB host pages indexed through a flat
//! page table, so multi-hundred-megabyte simulated heaps cost only
//! what the program actually touches. Accesses must be naturally
//! aligned — the mini-C compiler only emits aligned accesses, and an
//! unaligned access in the simulator indicates a codegen bug, so it is
//! reported as a hard error rather than silently fixed up.

/// Host backing-page size (this is unrelated to the *simulated* TLB
/// page size, which is configurable per segment).
const PAGE_SHIFT: u32 = 13;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Highest mappable data address (exclusive).
pub const MEM_LIMIT: u64 = 0x8000_0000;

/// Sparse simulated data memory covering `[0, MEM_LIMIT)`.
pub struct Memory {
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    /// Bytes of backing store actually allocated (for reporting).
    resident_bytes: usize,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    pub fn new() -> Memory {
        Memory {
            pages: (0..(MEM_LIMIT as usize >> PAGE_SHIFT))
                .map(|_| None)
                .collect(),
            resident_bytes: 0,
        }
    }

    /// Bytes of host memory committed so far.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> Option<&mut [u8; PAGE_BYTES]> {
        let idx = (addr >> PAGE_SHIFT) as usize;
        let slot = self.pages.get_mut(idx)?;
        if slot.is_none() {
            *slot = Some(Box::new([0u8; PAGE_BYTES]));
            self.resident_bytes += PAGE_BYTES;
        }
        slot.as_deref_mut()
    }

    /// Read a little-endian value `len` (1, 2, 4 or 8) bytes wide;
    /// returns `None` for out-of-range or misaligned addresses and for
    /// any other width. Unmapped-but-in-range memory reads as zero
    /// (like freshly mapped anonymous pages).
    #[inline]
    pub fn read(&self, addr: u64, len: u64) -> Option<u64> {
        debug_assert!(matches!(len, 1 | 2 | 4 | 8));
        if addr.checked_add(len)? > MEM_LIMIT || !addr.is_multiple_of(len) {
            return None;
        }
        let idx = (addr >> PAGE_SHIFT) as usize;
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let page = match self.pages.get(idx)? {
            Some(p) => p,
            None => return Some(0),
        };
        let bytes = &page[off..];
        Some(match len {
            1 => bytes[0] as u64,
            2 => u16::from_le_bytes(head(bytes)) as u64,
            4 => u32::from_le_bytes(head(bytes)) as u64,
            8 => u64::from_le_bytes(head(bytes)),
            _ => return None,
        })
    }

    /// Write the low `len` (1, 2, 4 or 8) bytes of `value`; returns
    /// `false` for out-of-range or misaligned addresses and for any
    /// other width.
    #[inline]
    pub fn write(&mut self, addr: u64, len: u64, value: u64) -> bool {
        debug_assert!(matches!(len, 1 | 2 | 4 | 8));
        match addr.checked_add(len) {
            Some(end) if end <= MEM_LIMIT && addr.is_multiple_of(len) => {}
            _ => return false,
        }
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let Some(page) = self.page_mut(addr) else {
            return false;
        };
        let bytes = &mut page[off..];
        match len {
            1 => bytes[0] = value as u8,
            2 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => bytes[..4].copy_from_slice(&(value as u32).to_le_bytes()),
            8 => bytes[..8].copy_from_slice(&value.to_le_bytes()),
            _ => return false,
        }
        true
    }

    /// Bulk write used by the loader; `addr` need not be aligned.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> bool {
        if addr
            .checked_add(bytes.len() as u64)
            .is_none_or(|e| e > MEM_LIMIT)
        {
            return false;
        }
        let mut cur = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (cur as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            let Some(page) = self.page_mut(cur) else {
                return false;
            };
            page[off..off + n].copy_from_slice(&rest[..n]);
            cur += n as u64;
            rest = &rest[n..];
        }
        true
    }

    /// Bulk read used by the host to inspect results.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Option<Vec<u8>> {
        if addr.checked_add(len as u64).is_none_or(|e| e > MEM_LIMIT) {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let off = (cur as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(remaining);
            match &self.pages[(cur >> PAGE_SHIFT) as usize] {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.extend(std::iter::repeat_n(0u8, n)),
            }
            cur += n as u64;
            remaining -= n;
        }
        Some(out)
    }

    /// Read one 64-bit word (convenience for hosts and tests).
    pub fn read_u64(&self, addr: u64) -> Option<u64> {
        self.read(addr, 8)
    }

    /// Write one 64-bit word (convenience for hosts and tests).
    pub fn write_u64(&mut self, addr: u64, v: u64) -> bool {
        self.write(addr, 8, v)
    }
}

/// The first `N` bytes of `bytes`, as an array: a fixed-size copy the
/// compiler turns into one load.
#[inline(always)]
fn head<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[..N]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read(0x4000_0000, 8), Some(0));
        assert_eq!(m.read(0, 1), Some(0));
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = Memory::new();
        for (len, val) in [
            (1u64, 0xab),
            (2, 0xabcd),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            let addr = 0x2000_0000 + 64 * len;
            assert!(m.write(addr, len, val));
            assert_eq!(m.read(addr, len), Some(val));
        }
    }

    #[test]
    fn narrow_write_does_not_clobber_neighbours() {
        let mut m = Memory::new();
        assert!(m.write(0x1000, 8, u64::MAX));
        assert!(m.write(0x1002, 2, 0));
        assert_eq!(m.read(0x1000, 8), Some(0xffff_ffff_0000_ffff));
    }

    #[test]
    fn misaligned_rejected() {
        let mut m = Memory::new();
        assert_eq!(m.read(0x1001, 8), None);
        assert!(!m.write(0x1001, 8, 1));
        assert_eq!(m.read(0x1002, 4), None);
        // 1-byte accesses are always aligned.
        assert!(m.write(0x1001, 1, 7));
        assert_eq!(m.read(0x1001, 1), Some(7));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new();
        assert_eq!(m.read(MEM_LIMIT, 8), None);
        assert_eq!(m.read(MEM_LIMIT - 4, 8), None);
        assert!(!m.write(MEM_LIMIT - 4, 8, 1));
        assert!(m.write(MEM_LIMIT - 8, 8, 1));
        assert_eq!(m.read(u64::MAX - 3, 8), None);
    }

    #[test]
    fn bulk_write_crosses_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * PAGE_BYTES / 2).collect();
        let base = 0x4000_0000 + (PAGE_BYTES as u64) / 2;
        assert!(m.write_bytes(base, &data));
        assert_eq!(m.read_bytes(base, data.len()).unwrap(), data);
    }

    #[test]
    fn residency_tracks_touched_pages_only() {
        let mut m = Memory::new();
        assert_eq!(m.resident_bytes(), 0);
        m.write(0x4000_0000, 8, 1);
        m.write(0x4000_0008, 8, 2);
        assert_eq!(m.resident_bytes(), PAGE_BYTES);
        m.write(0x5000_0000, 8, 3);
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES);
    }
}
