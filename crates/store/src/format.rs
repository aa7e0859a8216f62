//! The binary experiment format: `MPES` version 2, the one on-disk
//! encoding of an experiment. A live collector writes it incrementally
//! through [`crate::SegmentWriter`]; [`pack_experiment`] replays a
//! whole in-memory experiment through that same writer, so `mp-store
//! pack`/`merge` and `mp-serve` compaction produce the very format a
//! collector streams.
//!
//! ## Layout
//!
//! ```text
//! file   := magic(4)=b"MPES" version(1)=2 chunk*
//! chunk  := kind:u8 len:u32le checksum:u64le payload(len)
//! ```
//!
//! The checksum is FNV-1a 64 over `kind || len || payload` — covering
//! the chunk header too, so a corrupted kind or length byte cannot
//! silently skip or resize a chunk. Chunk kinds and their payloads:
//!
//! ```text
//! 0 HEADER  counters clock_period clock_hz        (first, exactly once)
//! 1 STACKS  n, n × stack                          newly interned stacks
//! 2 HWC     n, n × hwc_event                      collection order
//! 3 CLOCK   n, n × { pc stack_id }                collection order
//! 4 FOOTER  run log attachments                   (last, on clean exit)
//!
//! counters  := n, n × { name:str backtrack:u8 interval }
//! run       := exit:zigzag output:str dropped(n, n × varint)
//!              counts(10 × varint)
//! log       := n, n × str
//! attach    := n, n × { name:str contents:str }
//! hwc_event := counter flags:u8 delivered_pc [candidate_delta:zigzag]
//!              [ea] truth_delta:zigzag [truth_ea] truth_skid stack_id
//! stack     := n, first_frame, (n-1) × frame_delta:zigzag
//! str       := len, bytes (UTF-8)
//! ```
//!
//! All integers are LEB128 varints; signed values are zigzag-mapped.
//! Candidate and truth PCs are deltas from `delivered_pc` (they sit
//! within a few instructions of delivery — the skid, §2.2.2), frames
//! are deltas from the previous frame, and events name their
//! callstack by a dense intern id ([`memprof_core::StackId`]) that a
//! `STACKS` chunk earlier in the file defines. Any *prefix* of chunks
//! is therefore self-contained, which is the crash-safety story (see
//! [`crate::StreamFile`]). `truth_ea` (flag bit 4) is the simulator's
//! ground-truth effective address; streams written before it existed
//! never set the bit and load with no truth EA. Unknown chunk kinds
//! are skipped, which is safe precisely because they are checksummed.

use std::path::Path;

use memprof_core::{
    CallstackTable, CollectSink, CounterRequest, Experiment, PackedClockEvent, PackedHwcEvent,
    RunInfo, StackId, StreamConfig,
};
use simsparc_machine::{CounterEvent, EventCounts};

use crate::varint::{get_str, put_i64, put_str, put_u64, Cursor};
use crate::writer::SegmentWriter;
use crate::StoreError;

pub(crate) const MAGIC: [u8; 4] = *b"MPES";
pub(crate) const VERSION: u8 = 2;
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

const FLAG_CANDIDATE: u8 = 1;
const FLAG_EA: u8 = 2;
const FLAG_TRUTH_EA: u8 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash: the chunk checksum's function. The serve crate
/// also reads it back from compaction manifests written before whole
/// stores were fingerprinted with [`xxh64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

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

/// XXH64 with seed 0: the serve crate's fingerprint of whole packed
/// stores (its compaction cache and manifests). It reads 32-byte
/// stripes through four independent lanes, about ten times the speed
/// of the byte-at-a-time [`fnv1a64`]. Like FNV-1a it detects damage,
/// not a deliberate collision.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
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
        XXH_P5
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

/// FNV-1a 64 over `kind || len_le || payload`.
pub(crate) fn chunk_checksum(kind: u8, len: u32, payload: &[u8]) -> u64 {
    let mut head = [0u8; 5];
    head[0] = kind;
    head[1..5].copy_from_slice(&len.to_le_bytes());
    fnv_fold(fnv_fold(FNV_OFFSET, &head), payload)
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

pub(crate) fn get_header(payload: &[u8]) -> Result<Header, StoreError> {
    let mut cur = Cursor::new(payload);
    let n = cur.get_len(4096)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(&mut cur, 256)?;
        let event =
            CounterEvent::parse(&name).ok_or(StoreError::Corrupt("unknown counter event name"))?;
        let backtrack = match cur.take_byte()? {
            0 => false,
            1 => true,
            _ => return Err(StoreError::Corrupt("bad backtrack flag")),
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

pub(crate) fn get_stack(cur: &mut Cursor<'_>) -> Result<Vec<u64>, StoreError> {
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

pub(crate) fn put_hwc_event(out: &mut Vec<u8>, ev: &PackedHwcEvent) {
    put_u64(out, ev.counter as u64);
    let mut flags = 0u8;
    if ev.candidate_pc.is_some() {
        flags |= FLAG_CANDIDATE;
    }
    if ev.ea.is_some() {
        flags |= FLAG_EA;
    }
    if ev.truth_ea.is_some() {
        flags |= FLAG_TRUTH_EA;
    }
    out.push(flags);
    put_u64(out, ev.delivered_pc);
    if let Some(c) = ev.candidate_pc {
        put_i64(out, c.wrapping_sub(ev.delivered_pc) as i64);
    }
    if let Some(ea) = ev.ea {
        put_u64(out, ea);
    }
    put_i64(
        out,
        ev.truth_trigger_pc.wrapping_sub(ev.delivered_pc) as i64,
    );
    if let Some(tea) = ev.truth_ea {
        put_u64(out, tea);
    }
    put_u64(out, ev.truth_skid as u64);
    put_u64(out, ev.stack as u64);
}

/// A stack id that must be one of the `n_stacks` defined so far.
fn get_stack_id(cur: &mut Cursor<'_>, n_stacks: usize) -> Result<u32, StoreError> {
    u32::try_from(cur.get_u64()?)
        .ok()
        .filter(|&id| (id as usize) < n_stacks)
        .ok_or(StoreError::Corrupt("event references undefined stack id"))
}

/// Decode one hwc event, checking its counter against the recipe's
/// `n_counters` and its stack id against the `n_stacks` defined
/// before its chunk.
#[inline]
pub(crate) fn get_hwc_event(
    cur: &mut Cursor<'_>,
    n_counters: usize,
    n_stacks: usize,
) -> Result<PackedHwcEvent, StoreError> {
    let counter = cur.get_u64()?;
    if counter >= n_counters as u64 {
        return Err(StoreError::Corrupt("event references unknown counter"));
    }
    let flags = cur.take_byte()?;
    if flags & !(FLAG_CANDIDATE | FLAG_EA | FLAG_TRUTH_EA) != 0 {
        return Err(StoreError::Corrupt("unknown hwc event flags"));
    }
    let delivered_pc = cur.get_u64()?;
    let candidate_pc = if flags & FLAG_CANDIDATE != 0 {
        Some(delivered_pc.wrapping_add(cur.get_i64()? as u64))
    } else {
        None
    };
    let ea = if flags & FLAG_EA != 0 {
        Some(cur.get_u64()?)
    } else {
        None
    };
    let truth_trigger_pc = delivered_pc.wrapping_add(cur.get_i64()? as u64);
    let truth_ea = if flags & FLAG_TRUTH_EA != 0 {
        Some(cur.get_u64()?)
    } else {
        None
    };
    let truth_skid =
        u32::try_from(cur.get_u64()?).map_err(|_| StoreError::Corrupt("skid overflows u32"))?;
    Ok(PackedHwcEvent {
        counter: counter as usize,
        delivered_pc,
        candidate_pc,
        ea,
        stack: get_stack_id(cur, n_stacks)?,
        truth_trigger_pc,
        truth_ea,
        truth_skid,
    })
}

#[inline]
pub(crate) fn get_clock_event(
    cur: &mut Cursor<'_>,
    n_stacks: usize,
) -> Result<PackedClockEvent, StoreError> {
    Ok(PackedClockEvent {
        pc: cur.get_u64()?,
        stack: get_stack_id(cur, n_stacks)?,
    })
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

pub(crate) fn get_footer(payload: &[u8], clock_hz: u64) -> Result<Footer, StoreError> {
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
/// and `image.txt`) as an `MPES` v2 image. The events replay through
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
    // Writes into a `Vec` cannot fail; only a single chunk over the
    // format's 4 GiB limit can, and event chunks are spill-sized.
    pack(exp, attachments).expect("experiment chunk exceeds the 4 GiB chunk limit")
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

/// Unpack a packed store (or a collector's stream file) back into a
/// text experiment directory.
pub fn unpack_to_dir(file: &Path, dir: &Path) -> Result<(), StoreError> {
    let stream = crate::StreamFile::open(file)?;
    stream.to_experiment()?.save(dir)?;
    for (name, contents) in stream.attachments() {
        std::fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::xxh64;

    #[test]
    fn xxh64_matches_published_seed_zero_values() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn xxh64_changes_with_every_single_bit_flip() {
        let mut buf: Vec<u8> = (0..1024u32).map(|i| (i * 131 + 7) as u8).collect();
        let base = xxh64(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&buf), base, "flipping bit {bit} kept the hash");
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
            assert!(seen.insert(xxh64(&pattern[..len])), "prefix {len} collided");
        }
    }
}
