//! The binary experiment format: `MPES` version 3, the one on-disk
//! encoding of an experiment. A live collector writes it incrementally
//! through [`crate::SegmentWriter`]; [`pack_experiment`] replays a
//! whole in-memory experiment through that same writer, so `mp-store
//! pack`/`merge` and `mp-serve` compaction produce the very format a
//! collector streams.
//!
//! ## Layout
//!
//! ```text
//! file   := magic(4)=b"MPES" version(1)=3 chunk*
//! chunk  := kind:u8 len:u32le checksum:u64le payload(len)
//! ```
//!
//! The checksum is XXH64 of the payload, seeded with `kind | len << 8`,
//! so it covers the chunk header too: a corrupted kind or length byte
//! cannot silently skip or resize a chunk. Chunk kinds and their
//! payloads:
//!
//! ```text
//! 0 HEADER  counters clock_period clock_hz        (first, exactly once)
//! 1 STACKS  n, n × stack                          newly interned stacks
//! 2 HWC     n, tag pc_dict pc_index candidate ea  n events, collection
//!              truth_pc truth_ea skid stack_id    order, by column
//! 3 CLOCK   n, pc_dict pc_index stack_id          n ticks, likewise
//! 4 FOOTER  run log attachments                   (last, on clean exit)
//!
//! counters  := n, n × { name:str backtrack:u8 interval }
//! run       := exit:zigzag output:str dropped(n, n × varint)
//!              counts(10 × varint)
//! log       := n, n × str
//! attach    := n, n × { name:str contents:str }
//! stack     := n, first_frame, (n-1) × frame_delta:zigzag
//! str       := len, bytes (UTF-8)
//! ```
//!
//! All integers are LEB128 varints; signed values are zigzag-mapped.
//! Frames are deltas from the previous frame, and events name their
//! callstack by a dense intern id ([`memprof_core::StackId`]) that a
//! `STACKS` chunk earlier in the file defines.
//!
//! ## Event columns
//!
//! An HWC or CLOCK chunk stores its events column by column. Each
//! column is `len, bytes(len)` and must hold exactly its items:
//!
//! ```text
//! tag        n × (counter << 4 | flags)   1 candidate, 2 ea, 4 truth_ea,
//!                                         8 truth_ea equals ea
//! pc_dict    m, m × pc_delta:zigzag        the chunk's distinct delivered
//!                                         PCs in first use, each a delta
//!                                         from the one before
//! pc_index   n × index (< m)               each event's delivered PC
//! candidate  (candidate − delivered):zigzag, one per flag-1 event
//! ea         (ea − counter's previous ea):zigzag, one per flag-2 event
//! truth_pc   n × (truth_pc − delivered):zigzag
//! truth_ea   (truth_ea − counter's previous truth_ea):zigzag, one per
//!            flag-4 event
//! skid       n × truth_skid (≤ u32::MAX)
//! stack_id   n × stack_id
//! ```
//!
//! Within a chunk a handful of delivered PCs repeat, a counter's
//! addresses move in small strides, and the ground-truth EA usually
//! equals the reconstructed one, so a counter event costs 8–10 bytes
//! against the 20–21 of a row-wise record. Candidate and truth PCs sit
//! within a few instructions of delivery — the skid, §2.2.2. All
//! delta state (the dictionary, each counter's previous addresses)
//! starts afresh in every chunk, so each chunk decodes alone and any
//! *prefix* of chunks is self-contained, which is the crash-safety
//! story (see [`crate::StreamFile`]). Delta arithmetic wraps. Unknown
//! chunk kinds are skipped, which is safe precisely because they are
//! checksummed.
//!
//! Per-item decoders return [`DecodeError`], which the reader turns
//! into a [`crate::StoreError`] once per chunk.

use std::collections::HashMap;
use std::path::Path;

use memprof_core::{
    CallstackTable, CollectSink, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent,
    RunInfo, StackId, StreamConfig,
};
use simsparc_machine::{CounterEvent, EventCounts};

use crate::varint::{get_str, put_i64, put_str, put_u64, Cursor, DecodeError};
use crate::writer::SegmentWriter;
use crate::StoreError;

pub(crate) const MAGIC: [u8; 4] = *b"MPES";
pub(crate) const VERSION: u8 = 3;
/// magic + version.
pub(crate) const PREAMBLE_LEN: usize = MAGIC.len() + 1;
/// kind + len + checksum.
pub(crate) const CHUNK_HEADER_LEN: usize = 1 + 4 + 8;

pub(crate) const CHUNK_HEADER: u8 = 0;
pub(crate) const CHUNK_STACKS: u8 = 1;
pub(crate) const CHUNK_HWC: u8 = 2;
pub(crate) const CHUNK_CLOCK: u8 = 3;
pub(crate) const CHUNK_FOOTER: u8 = 4;

/// Size ceiling for any single decoded allocation (strings, counts).
pub(crate) const LIMIT: usize = 1 << 31;

/// Columns of an HWC and of a CLOCK chunk; the stack ids are the last.
pub(crate) const HWC_COLUMNS: usize = 9;
pub(crate) const CLOCK_COLUMNS: usize = 3;

const FLAG_CANDIDATE: u64 = 1;
const FLAG_EA: u64 = 2;
/// The truth EA is stored in its column.
const FLAG_TRUTH_EA: u64 = 4;
/// The truth EA equals the event's EA and is not stored.
const FLAG_TRUTH_IS_EA: u64 = 8;
const FLAG_BITS: u32 = 4;

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// The little-endian `u64` in the first 8 bytes of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// XXH64 of `bytes` with `seed`. It reads 32-byte stripes through
/// four independent lanes. Seed 0 is the serve crate's fingerprint of
/// whole packed stores (its compaction cache and manifests); the chunk
/// checksum seeds it with the chunk's kind and length. It detects
/// damage, not a deliberate collision.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            seed.wrapping_add(XXH_P1).wrapping_add(XXH_P2),
            seed.wrapping_add(XXH_P2),
            seed,
            seed.wrapping_sub(XXH_P1),
        ];
        for s in &mut stripes {
            v[0] = xxh_round(v[0], le_u64(&s[0..]));
            v[1] = xxh_round(v[1], le_u64(&s[8..]));
            v[2] = xxh_round(v[2], le_u64(&s[16..]));
            v[3] = xxh_round(v[3], le_u64(&s[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh_merge)
    } else {
        seed.wrapping_add(XXH_P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let mut word = [0u8; 4];
        word.copy_from_slice(&tail[..4]);
        h = (h ^ u64::from(u32::from_le_bytes(word)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// XXH64 of the payload, seeded with `kind | len << 8`.
pub(crate) fn chunk_checksum(kind: u8, len: u32, payload: &[u8]) -> u64 {
    xxh64(payload, u64::from(kind) | u64::from(len) << 8)
}

/// The HEADER payload: the collection recipe.
pub(crate) fn put_header(
    out: &mut Vec<u8>,
    counters: &[CounterRequest],
    clock_period: Option<u64>,
    clock_hz: u64,
) {
    put_u64(out, counters.len() as u64);
    for c in counters {
        put_str(out, c.event.name());
        out.push(c.backtrack as u8);
        put_u64(out, c.interval);
    }
    put_u64(out, clock_period.unwrap_or(0));
    put_u64(out, clock_hz);
}

/// Decoded HEADER chunk: counters, clock period, clock rate.
pub(crate) type Header = (Vec<CounterRequest>, Option<u64>, u64);

pub(crate) fn get_header(payload: &[u8]) -> Result<Header, DecodeError> {
    let mut cur = Cursor::new(payload);
    let n = cur.get_len(4096)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(&mut cur, 256)?;
        let event =
            CounterEvent::parse(&name).ok_or(DecodeError::Corrupt("unknown counter event name"))?;
        let backtrack = match cur.take_byte()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Corrupt("bad backtrack flag")),
        };
        let interval = cur.get_u64()?;
        counters.push(CounterRequest {
            event,
            backtrack,
            interval,
        });
    }
    let period = cur.get_u64()?;
    let clock_hz = cur.get_u64()?;
    Ok((counters, (period > 0).then_some(period), clock_hz))
}

pub(crate) fn put_stack(out: &mut Vec<u8>, stack: &[u64]) {
    put_u64(out, stack.len() as u64);
    let mut prev = 0u64;
    for (i, &frame) in stack.iter().enumerate() {
        if i == 0 {
            put_u64(out, frame);
        } else {
            put_i64(out, frame.wrapping_sub(prev) as i64);
        }
        prev = frame;
    }
}

fn get_stack(cur: &mut Cursor<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = cur.get_len(cur.remaining())?;
    let mut stack = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let frame = if i == 0 {
            cur.get_u64()?
        } else {
            prev.wrapping_add(cur.get_i64()? as u64)
        };
        stack.push(frame);
        prev = frame;
    }
    Ok(stack)
}

/// Decode a STACKS chunk's `n` stacks onto `out`.
pub(crate) fn get_stacks(
    items: &[u8],
    n: usize,
    out: &mut Vec<Vec<u64>>,
) -> Result<(), DecodeError> {
    let mut cur = Cursor::new(items);
    for _ in 0..n {
        out.push(get_stack(&mut cur)?);
    }
    consumed(&[cur])
}

/// A counter's previous addresses within the current chunk: the bases
/// its `ea` and `truth_ea` deltas apply to.
#[derive(Clone, Copy, Default)]
struct Prev {
    ea: u64,
    truth_ea: u64,
}

/// Reusable encode scratch for event chunks: one buffer per column,
/// the chunk's PC dictionary and each counter's previous addresses.
/// A [`SegmentWriter`] keeps one, so the buffers grow to a chunk's
/// size once and are reused for every later chunk.
#[derive(Default)]
pub(crate) struct ChunkEncoder {
    cols: [Vec<u8>; HWC_COLUMNS],
    /// Delivered PC → its dictionary index.
    index: HashMap<u64, u64>,
    /// Dictionary PCs in first use.
    dict: Vec<u64>,
    prev: Vec<Prev>,
}

/// Append `bytes` as one length-prefixed column.
fn put_column(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

impl ChunkEncoder {
    /// Clear every column and the dictionary for a new chunk.
    fn reset(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.index.clear();
        self.dict.clear();
    }

    /// Append `pc`'s dictionary index to `out`, adding it to the
    /// dictionary on first use.
    fn put_pc(index: &mut HashMap<u64, u64>, dict: &mut Vec<u64>, out: &mut Vec<u8>, pc: u64) {
        let next = dict.len() as u64;
        let i = *index.entry(pc).or_insert_with(|| {
            dict.push(pc);
            next
        });
        put_u64(out, i);
    }

    /// The dictionary column: its size, then each PC as a delta from
    /// the one before.
    fn put_dict(dict: &[u64], out: &mut Vec<u8>) {
        put_u64(out, dict.len() as u64);
        let mut prev = 0u64;
        for &pc in dict {
            put_i64(out, pc.wrapping_sub(prev) as i64);
            prev = pc;
        }
    }

    /// The HWC payload for `events` (see the module docs), replacing
    /// `out`'s contents. Every event must name one of the header's
    /// `n_counters` counters.
    pub(crate) fn hwc(
        &mut self,
        events: &[PackedHwcEvent],
        n_counters: usize,
        out: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        self.reset();
        self.prev.clear();
        self.prev.resize(n_counters, Prev::default());
        let ChunkEncoder {
            cols,
            index,
            dict,
            prev,
        } = self;
        let [tags, dict_col, pcs, cands, eas, truth_pcs, truth_eas, skids, stacks] = &mut *cols;
        for ev in events {
            let last = prev.get_mut(ev.counter).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "event names a counter the header does not declare",
                )
            })?;
            let mut flags = 0;
            if let Some(c) = ev.candidate_pc {
                flags |= FLAG_CANDIDATE;
                put_i64(cands, c.wrapping_sub(ev.delivered_pc) as i64);
            }
            if let Some(a) = ev.ea {
                flags |= FLAG_EA;
                put_i64(eas, a.wrapping_sub(last.ea) as i64);
                last.ea = a;
            }
            if let Some(t) = ev.truth_ea {
                if ev.ea == Some(t) {
                    flags |= FLAG_TRUTH_IS_EA;
                } else {
                    flags |= FLAG_TRUTH_EA;
                    put_i64(truth_eas, t.wrapping_sub(last.truth_ea) as i64);
                }
                last.truth_ea = t;
            }
            put_u64(tags, (ev.counter as u64) << FLAG_BITS | flags);
            Self::put_pc(index, dict, pcs, ev.delivered_pc);
            put_i64(
                truth_pcs,
                ev.truth_trigger_pc.wrapping_sub(ev.delivered_pc) as i64,
            );
            put_u64(skids, u64::from(ev.truth_skid));
            put_u64(stacks, u64::from(ev.stack));
        }
        Self::put_dict(dict, dict_col);
        out.clear();
        put_u64(out, events.len() as u64);
        for col in cols.iter() {
            put_column(out, col);
        }
        Ok(())
    }

    /// The CLOCK payload for `events`, replacing `out`'s contents.
    pub(crate) fn clock(&mut self, events: &[PackedClockEvent], out: &mut Vec<u8>) {
        self.reset();
        let ChunkEncoder {
            cols, index, dict, ..
        } = self;
        let [dict_col, pcs, stacks, ..] = &mut *cols;
        for ev in events {
            Self::put_pc(index, dict, pcs, ev.pc);
            put_u64(stacks, u64::from(ev.stack));
        }
        Self::put_dict(dict, dict_col);
        out.clear();
        put_u64(out, events.len() as u64);
        for col in &cols[..CLOCK_COLUMNS] {
            put_column(out, col);
        }
    }
}

/// Split a chunk's items into its `N` length-prefixed columns, which
/// must fill the items exactly.
fn columns<const N: usize>(items: &[u8]) -> Result<[Cursor<'_>; N], DecodeError> {
    let mut cur = Cursor::new(items);
    let mut cols = [(); N].map(|_| Cursor::new(&[]));
    for col in &mut cols {
        let len = cur.get_len(cur.remaining())?;
        *col = Cursor::new(cur.take_bytes(len)?);
    }
    consumed(&[cur])?;
    Ok(cols)
}

/// Every column read to its end: a byte left over is corrupt.
fn consumed(cols: &[Cursor<'_>]) -> Result<(), DecodeError> {
    if cols.iter().all(Cursor::is_empty) {
        Ok(())
    } else {
        Err(DecodeError::Corrupt("trailing bytes in chunk"))
    }
}

/// A stack id that must be one of the `n_stacks` defined so far.
#[inline]
fn get_stack_id(cur: &mut Cursor<'_>, n_stacks: usize) -> Result<u32, DecodeError> {
    u32::try_from(cur.get_u64()?)
        .ok()
        .filter(|&id| (id as usize) < n_stacks)
        .ok_or(DecodeError::Corrupt("event references undefined stack id"))
}

/// Append an event chunk's items — `columns` length-prefixed columns
/// for `n` events, the last holding their stack ids — to `out` with
/// every stack id checked against the `n_stacks` defined before the
/// chunk and shifted by `base`. The other columns are copied byte for
/// byte and not decoded. `base + n_stacks` must fit a [`StackId`].
pub(crate) fn shift_stack_ids(
    items: &[u8],
    columns: usize,
    n: usize,
    n_stacks: usize,
    base: StackId,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let mut cur = Cursor::new(items);
    for _ in 1..columns {
        let len = cur.get_len(cur.remaining())?;
        cur.take_bytes(len)?;
    }
    out.extend_from_slice(&items[..items.len() - cur.remaining()]);
    let len = cur.get_len(cur.remaining())?;
    let mut ids = Cursor::new(cur.take_bytes(len)?);
    let mut shifted = Vec::with_capacity(len);
    for _ in 0..n {
        put_u64(
            &mut shifted,
            u64::from(get_stack_id(&mut ids, n_stacks)? + base),
        );
    }
    consumed(&[cur, ids])?;
    put_column(out, &shifted);
    Ok(())
}

/// Reusable decode scratch for event chunks: the chunk's PC
/// dictionary and each counter's previous addresses. One decode call
/// keeps one across all the chunks it reads.
#[derive(Default)]
pub(crate) struct ChunkDecoder {
    dict: Vec<u64>,
    prev: Vec<Prev>,
}

impl ChunkDecoder {
    /// Read a whole dictionary column into `dict`.
    fn read_dict(dict: &mut Vec<u64>, col: &mut Cursor<'_>) -> Result<(), DecodeError> {
        // Every entry takes at least one byte, which bounds the size.
        let m = col.get_len(col.remaining())?;
        dict.clear();
        dict.reserve(m);
        let mut pc = 0u64;
        for _ in 0..m {
            pc = pc.wrapping_add(col.get_i64()? as u64);
            dict.push(pc);
        }
        Ok(())
    }

    /// The dictionary PC the next index in `col` names.
    #[inline]
    fn get_pc(dict: &[u64], col: &mut Cursor<'_>) -> Result<u64, DecodeError> {
        usize::try_from(col.get_u64()?)
            .ok()
            .and_then(|i| dict.get(i).copied())
            .ok_or(DecodeError::Corrupt("pc index past the dictionary"))
    }

    /// Decode an HWC chunk's `n` events in order, handing each to `f`
    /// with its position. Each is checked against the recipe's
    /// `n_counters` and the `n_stacks` defined before its chunk; every
    /// column is parsed and checked whatever `f` reads.
    #[inline]
    pub(crate) fn hwc(
        &mut self,
        items: &[u8],
        n: usize,
        n_counters: usize,
        n_stacks: usize,
        mut f: impl FnMut(usize, PackedHwcEvent),
    ) -> Result<(), DecodeError> {
        let mut cols = columns::<HWC_COLUMNS>(items)?;
        let [tags, dict_col, pcs, cands, eas, truth_pcs, truth_eas, skids, stacks] = &mut cols;
        let ChunkDecoder { dict, prev } = self;
        Self::read_dict(dict, dict_col)?;
        prev.clear();
        prev.resize(n_counters, Prev::default());
        for i in 0..n {
            let tag = tags.get_u64()?;
            let counter = usize::try_from(tag >> FLAG_BITS)
                .ok()
                .filter(|&c| c < n_counters)
                .ok_or(DecodeError::Corrupt("event references unknown counter"))?;
            let flags = tag & ((1 << FLAG_BITS) - 1);
            if flags & FLAG_TRUTH_EA != 0 && flags & FLAG_TRUTH_IS_EA != 0 {
                return Err(DecodeError::Corrupt("unknown hwc event flags"));
            }
            if flags & FLAG_TRUTH_IS_EA != 0 && flags & FLAG_EA == 0 {
                return Err(DecodeError::Corrupt("truth ea equals a missing ea"));
            }
            let last = &mut prev[counter];
            let delivered_pc = Self::get_pc(dict, pcs)?;
            let candidate_pc = if flags & FLAG_CANDIDATE != 0 {
                Some(delivered_pc.wrapping_add(cands.get_i64()? as u64))
            } else {
                None
            };
            let ea = if flags & FLAG_EA != 0 {
                last.ea = last.ea.wrapping_add(eas.get_i64()? as u64);
                Some(last.ea)
            } else {
                None
            };
            let truth_trigger_pc = delivered_pc.wrapping_add(truth_pcs.get_i64()? as u64);
            let truth_ea = if flags & FLAG_TRUTH_EA != 0 {
                last.truth_ea = last.truth_ea.wrapping_add(truth_eas.get_i64()? as u64);
                Some(last.truth_ea)
            } else if flags & FLAG_TRUTH_IS_EA != 0 {
                last.truth_ea = last.ea;
                ea
            } else {
                None
            };
            let truth_skid = u32::try_from(skids.get_u64()?)
                .map_err(|_| DecodeError::Corrupt("skid overflows u32"))?;
            f(
                i,
                PackedHwcEvent {
                    counter,
                    delivered_pc,
                    candidate_pc,
                    ea,
                    stack: get_stack_id(stacks, n_stacks)?,
                    truth_trigger_pc,
                    truth_ea,
                    truth_skid,
                },
            );
        }
        consumed(&cols)
    }

    /// Decode a CLOCK chunk's `n` ticks in order, checking each
    /// tick's stack id.
    #[inline]
    pub(crate) fn clock(
        &mut self,
        items: &[u8],
        n: usize,
        n_stacks: usize,
        mut f: impl FnMut(usize, PackedClockEvent),
    ) -> Result<(), DecodeError> {
        let mut cols = columns::<CLOCK_COLUMNS>(items)?;
        let [dict_col, pcs, stacks] = &mut cols;
        Self::read_dict(&mut self.dict, dict_col)?;
        for i in 0..n {
            let pc = Self::get_pc(&self.dict, pcs)?;
            f(
                i,
                PackedClockEvent {
                    pc,
                    stack: get_stack_id(stacks, n_stacks)?,
                },
            );
        }
        consumed(&cols)
    }
}

/// The FOOTER payload: run summary, collector log, attachments.
pub(crate) fn put_footer(
    out: &mut Vec<u8>,
    run: &RunInfo,
    log: &[String],
    attachments: &[(String, String)],
) {
    put_i64(out, run.exit_code);
    put_str(out, &run.output);
    put_u64(out, run.dropped.len() as u64);
    for &d in &run.dropped {
        put_u64(out, d);
    }
    let c = &run.counts;
    for v in [
        c.cycles,
        c.insts,
        c.ic_miss,
        c.dc_read_miss,
        c.dtlb_miss,
        c.ec_ref,
        c.ec_read_miss,
        c.ec_stall_cycles,
        c.loads,
        c.stores,
    ] {
        put_u64(out, v);
    }
    put_u64(out, log.len() as u64);
    for line in log {
        put_str(out, line);
    }
    put_u64(out, attachments.len() as u64);
    for (name, contents) in attachments {
        put_str(out, name);
        put_str(out, contents);
    }
}

/// Decoded FOOTER chunk: run summary, collector log, attachments.
pub(crate) type Footer = (RunInfo, Vec<String>, Vec<(String, String)>);

pub(crate) fn get_footer(payload: &[u8], clock_hz: u64) -> Result<Footer, DecodeError> {
    let mut cur = Cursor::new(payload);
    let exit_code = cur.get_i64()?;
    let output = get_str(&mut cur, LIMIT)?;
    let n_dropped = cur.get_len(4096)?;
    let mut dropped = Vec::with_capacity(n_dropped);
    for _ in 0..n_dropped {
        dropped.push(cur.get_u64()?);
    }
    let mut counts = EventCounts::default();
    for field in [
        &mut counts.cycles,
        &mut counts.insts,
        &mut counts.ic_miss,
        &mut counts.dc_read_miss,
        &mut counts.dtlb_miss,
        &mut counts.ec_ref,
        &mut counts.ec_read_miss,
        &mut counts.ec_stall_cycles,
        &mut counts.loads,
        &mut counts.stores,
    ] {
        *field = cur.get_u64()?;
    }
    let n_log = cur.get_len(cur.remaining())?;
    let mut log = Vec::with_capacity(n_log);
    for _ in 0..n_log {
        log.push(get_str(&mut cur, LIMIT)?);
    }
    let n_attach = cur.get_len(4096)?;
    let mut attachments = Vec::with_capacity(n_attach);
    for _ in 0..n_attach {
        let name = get_str(&mut cur, 4096)?;
        let contents = get_str(&mut cur, LIMIT)?;
        attachments.push((name, contents));
    }
    Ok((
        RunInfo {
            exit_code,
            output,
            counts,
            clock_hz,
            dropped,
        },
        log,
        attachments,
    ))
}

/// Encode an experiment (plus auxiliary text files such as `syms.txt`
/// and `image.txt`) as an `MPES` v3 image. The events replay through
/// the collector's own [`SegmentWriter`] one spill-sized chunk at a
/// time — the stacks a chunk newly uses first, then the chunk — so at
/// most one chunk of events is held besides the output image.
///
/// Stacks are renumbered in first use, hwc chunks before clock chunks,
/// and a stack the experiment's table lists twice is written once. So
/// the output depends only on each event's frames, never on how the
/// input table is numbered: `pack(load(pack(x))) == pack(x)`, and a
/// merge of concatenated tables packs like a merge of re-read ones.
/// The first use of an input id interns its frames through a
/// [`CallstackTable`]; every later use is an array lookup.
pub fn pack_experiment(exp: &Experiment, attachments: &[(String, String)]) -> Vec<u8> {
    fn pack(exp: &Experiment, attachments: &[(String, String)]) -> std::io::Result<Vec<u8>> {
        let chunk = StreamConfig::default().spill_events;
        let mut w = SegmentWriter::new(Vec::new());
        for (name, contents) in attachments {
            w.attach(name, contents);
        }
        w.begin(&exp.counters, exp.clock_period, exp.run.clock_hz)?;
        let mut table = CallstackTable::new();
        let mut remap: Vec<Option<StackId>> = vec![None; exp.stacks.len()];
        let mut renumber = |table: &mut CallstackTable, id: StackId| {
            *remap[id as usize].get_or_insert_with(|| table.intern(&exp.stacks[id as usize]))
        };
        let mut hwc: Vec<PackedHwcEvent> = Vec::with_capacity(chunk.min(exp.hwc_events.len()));
        for events in exp.hwc_events.chunks(chunk) {
            let known = table.len();
            hwc.clear();
            hwc.extend(events.iter().map(|ev| PackedHwcEvent {
                stack: renumber(&mut table, ev.stack),
                ..*ev
            }));
            if table.len() > known {
                w.stacks(table.stacks_from(known))?;
            }
            w.hwc_segment(&hwc)?;
        }
        drop(hwc);
        let mut clock: Vec<PackedClockEvent> =
            Vec::with_capacity(chunk.min(exp.clock_events.len()));
        for events in exp.clock_events.chunks(chunk) {
            let known = table.len();
            clock.clear();
            clock.extend(events.iter().map(|ev| PackedClockEvent {
                stack: renumber(&mut table, ev.stack),
                ..*ev
            }));
            if table.len() > known {
                w.stacks(table.stacks_from(known))?;
            }
            w.clock_segment(&clock)?;
        }
        w.finish(&exp.run, &exp.log)?;
        Ok(w.into_inner())
    }
    // Writes into a `Vec` cannot fail. Only a single chunk over the
    // format's 4 GiB limit can, and event chunks are spill-sized, or
    // an event naming a counter the recipe lacks, which every loader
    // of an `Experiment` rejects.
    pack(exp, attachments).expect("experiment events fit the MPES chunk format")
}

/// The auxiliary files `mp-collect` writes next to the experiment
/// proper. They are packed as attachments so `pack` → `unpack`
/// reproduces the directory exactly.
pub const ATTACHMENT_FILES: [&str; 2] = ["syms.txt", "image.txt"];

/// Pack a text experiment directory into a packed store file.
pub fn pack_dir(dir: &Path, out: &Path) -> Result<(), StoreError> {
    let exp = Experiment::load(dir)?;
    let mut attachments = Vec::new();
    for name in ATTACHMENT_FILES {
        let p = dir.join(name);
        if p.exists() {
            attachments.push((name.to_string(), std::fs::read_to_string(p)?));
        }
    }
    std::fs::write(out, pack_experiment(&exp, &attachments))?;
    Ok(())
}

/// Unpack an opened packed store (or a collector's stream file) back
/// into a text experiment directory.
pub fn unpack_to_dir(stream: &crate::StreamFile, dir: &Path) -> Result<(), StoreError> {
    stream.to_experiment()?.save(dir)?;
    for (name, contents) in stream.attachments() {
        std::fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_published_seed_zero_values() {
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn xxh64_changes_with_every_single_bit_flip() {
        let mut buf: Vec<u8> = (0..1024u32).map(|i| (i * 131 + 7) as u8).collect();
        let base = xxh64(&buf, 0);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&buf, 0), base, "flipping bit {bit} kept the hash");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Lengths 0..=100 cover the short-input path, whole 32-byte
    /// stripes, and every 8-, 4- and 1-byte tail after them.
    #[test]
    fn xxh64_prefixes_hash_to_distinct_values() {
        let pattern: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=pattern.len() {
            assert!(
                seen.insert(xxh64(&pattern[..len], 0)),
                "prefix {len} collided"
            );
        }
    }

    /// The seed reaches both the short-input path and the four
    /// stripe lanes, so the chunk checksum covers a chunk's kind and
    /// length whatever its payload size.
    #[test]
    fn chunk_checksum_covers_kind_and_length() {
        for len in [0usize, 5, 31, 32, 100] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 29 + 3) as u8).collect();
            let n = len as u32;
            let sum = chunk_checksum(CHUNK_HWC, n, &payload);
            assert_eq!(
                sum,
                xxh64(&payload, u64::from(CHUNK_HWC) | u64::from(n) << 8)
            );
            for kind in [CHUNK_HEADER, CHUNK_STACKS, CHUNK_CLOCK, CHUNK_FOOTER, 0x82] {
                assert_ne!(
                    chunk_checksum(kind, n, &payload),
                    sum,
                    "kind {kind}, {len} B"
                );
            }
            for other in [n ^ 1, n ^ 0x100, n ^ 0x8000_0000] {
                assert_ne!(
                    chunk_checksum(CHUNK_HWC, other, &payload),
                    sum,
                    "len {other}"
                );
            }
        }
    }

    fn hwc_event(counter: usize, delivered_pc: u64) -> PackedHwcEvent {
        PackedHwcEvent {
            counter,
            delivered_pc,
            candidate_pc: None,
            ea: None,
            stack: 0,
            truth_trigger_pc: delivered_pc,
            truth_ea: None,
            truth_skid: 0,
        }
    }

    /// Encode `events`, decode them back, and return what came out.
    fn hwc_round_trip(events: &[PackedHwcEvent]) -> Vec<PackedHwcEvent> {
        let mut payload = Vec::new();
        ChunkEncoder::default()
            .hwc(events, 2, &mut payload)
            .unwrap();
        let mut cur = Cursor::new(&payload);
        let n = cur.get_len(payload.len()).unwrap();
        let mut back = Vec::new();
        ChunkDecoder::default()
            .hwc(
                &payload[payload.len() - cur.remaining()..],
                n,
                2,
                4,
                |_, e| back.push(e),
            )
            .unwrap();
        back
    }

    /// Deltas wrap at both ends of the address space, per counter,
    /// and every flag combination survives.
    #[test]
    fn hwc_columns_round_trip_extreme_values() {
        let mut events = Vec::new();
        for (i, pc) in [0u64, u64::MAX, 1, u64::MAX - 3, 0x1_0000]
            .iter()
            .enumerate()
        {
            for ea in [
                None,
                Some(0u64),
                Some(u64::MAX),
                Some(0x4000_0000 + i as u64),
            ] {
                for truth in [None, ea, Some(u64::MAX - i as u64), Some(7)] {
                    events.push(PackedHwcEvent {
                        candidate_pc: (i % 2 == 0).then(|| pc.wrapping_sub(4 * i as u64)),
                        ea,
                        truth_ea: truth,
                        truth_trigger_pc: pc.wrapping_add(i as u64 * 8),
                        truth_skid: u32::MAX - i as u32,
                        stack: (i % 4) as u32,
                        ..hwc_event(i % 2, *pc)
                    });
                }
            }
        }
        assert_eq!(hwc_round_trip(&events), events);
        assert_eq!(hwc_round_trip(&[]), []);
    }

    #[test]
    fn encoder_refuses_an_undeclared_counter() {
        let err = ChunkEncoder::default()
            .hwc(&[hwc_event(2, 0x1000)], 2, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// Columns laid out by hand: `cols` are the nine HWC columns of
    /// one event, for checks the encoder never produces.
    fn hwc_from_columns(cols: [&[u8]; 9]) -> Result<(), DecodeError> {
        let mut items = Vec::new();
        for col in cols {
            put_column(&mut items, col);
        }
        ChunkDecoder::default().hwc(&items, 1, 2, 1, |_, _| {})
    }

    #[test]
    fn hand_laid_columns_hit_every_new_check() {
        let dict: &[u8] = &[1, 2];
        let ok = hwc_from_columns([&[0], dict, &[0], &[], &[], &[0], &[], &[0], &[0]]);
        assert_eq!(ok, Ok(()));
        let cases: [([&[u8]; 9], &str); 5] = [
            (
                [&[0], dict, &[1], &[], &[], &[0], &[], &[0], &[0]],
                "pc index past the dictionary",
            ),
            (
                [
                    &[FLAG_TRUTH_IS_EA as u8],
                    dict,
                    &[0],
                    &[],
                    &[],
                    &[0],
                    &[],
                    &[0],
                    &[0],
                ],
                "truth ea equals a missing ea",
            ),
            (
                [&[12], dict, &[0], &[], &[], &[0], &[0], &[0], &[0]],
                "unknown hwc event flags",
            ),
            (
                [&[0], dict, &[0], &[], &[], &[0], &[], &[0], &[0, 0]],
                "trailing bytes in chunk",
            ),
            (
                [
                    &[2 << FLAG_BITS],
                    dict,
                    &[0],
                    &[],
                    &[],
                    &[0],
                    &[],
                    &[0],
                    &[0],
                ],
                "event references unknown counter",
            ),
        ];
        for (cols, why) in cases {
            assert_eq!(hwc_from_columns(cols), Err(DecodeError::Corrupt(why)));
        }
        // A column the chunk's events do not reach the end of.
        assert_eq!(
            hwc_from_columns([&[0], dict, &[0], &[3], &[], &[0], &[], &[0], &[0]]),
            Err(DecodeError::Corrupt("trailing bytes in chunk"))
        );
        // A flagged event whose column has run dry.
        assert_eq!(
            hwc_from_columns([
                &[FLAG_CANDIDATE as u8],
                dict,
                &[0],
                &[],
                &[],
                &[0],
                &[],
                &[0],
                &[0]
            ]),
            Err(DecodeError::Truncated)
        );
    }
}
