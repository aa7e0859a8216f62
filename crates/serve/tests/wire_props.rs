//! Seeded fuzz of the daemon's input decoders: the frame reader, the
//! HELLO payload parser and the query-line parser. Every input —
//! arbitrary bytes, every truncation and single-byte replacement of
//! valid frames, generated query lines — must end in a typed error or
//! a success, never a panic. A frame that reads re-encodes to exactly
//! the bytes it consumed.

mod common;

use std::io::Cursor;

use memprof_serve::wire::{
    hello_payload, parse_hello, read_frame, write_frame, Frame, TAG_CHUNK, TAG_HELLO, TAG_QUERY,
};
use memprof_serve::{answer, compact_window, StoreDirs, WindowRegistry};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestRng;

use common::{local_bytes_with, object_syms, scratch};

/// Read one frame from `bytes`. An `Ok` frame must re-encode to the
/// bytes the read consumed.
fn read_checked(bytes: &[u8]) -> Result<Option<Frame>, TestCaseError> {
    let mut cur = Cursor::new(bytes);
    let Ok(frame) = read_frame(&mut cur) else {
        return Ok(None);
    };
    let mut again = Vec::new();
    write_frame(&mut again, frame.tag, &frame.payload).unwrap();
    prop_assert_eq!(&again[..], &bytes[..cur.position() as usize]);
    Ok(Some(frame))
}

/// `parse_hello` on `payload`: a success names strings whose HELLO
/// payload starts it (trailing bytes are not read).
fn hello_checked(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((name, window)) = parse_hello(payload) {
        prop_assert!(payload.starts_with(&hello_payload(&name, &window)));
    }
    Ok(())
}

fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload).unwrap();
    out
}

/// Valid frames of the three kinds a peer opens with or streams: a
/// HELLO, a QUERY and a CHUNK holding the start of a real session.
fn valid_frames() -> Vec<Vec<u8>> {
    let session = local_bytes_with(3, 1, common::SYMS);
    vec![
        frame(TAG_HELLO, &hello_payload("mp-collect", "wa")),
        frame(TAG_QUERY, b"functions wa"),
        frame(TAG_CHUNK, &session[..session.len().min(96)]),
    ]
}

/// Arbitrary bytes, half the time behind a plausible frame header so
/// that the length field and the payload read are reached too.
fn byte_strings() -> BoxedStrategy<Vec<u8>> {
    BoxedStrategy::new(|rng: &mut TestRng| {
        let len = (rng.next_u64() % 48) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if rng.next_u64().is_multiple_of(2) {
            let claimed = (rng.next_u64() % 64) as u32;
            let mut head = vec![(rng.next_u64() % 12) as u8];
            head.extend_from_slice(&claimed.to_le_bytes());
            head.append(&mut bytes);
            bytes = head;
        }
        bytes
    })
}

const WORDS: [&str; 11] = [
    "windows",
    "functions",
    "stat",
    "diff",
    "objects",
    "segments",
    "pages",
    "lines",
    "compact",
    "shutdown",
    "cpu",
];

/// One word of a generated query line: a grammar word, a label, a
/// number or control characters.
fn word(rng: &mut TestRng) -> String {
    let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n as u64) as usize;
    match pick(rng, 5) {
        0 | 1 => WORDS[pick(rng, WORDS.len())].to_string(),
        2 => [
            "wa", "wb", "..", "/", "", "a/b", "../wa", ".", "w\u{e9}", "ecstall", "ecrm",
        ][pick(rng, 11)]
        .to_string(),
        3 => [
            "0",
            "-1",
            "10",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-9223372036854775809",
        ][pick(rng, 7)]
        .to_string(),
        _ => match pick(rng, 4) {
            0 => "w".repeat(1 + pick(rng, 400)),
            1 => "\0".to_string(),
            2 => "\u{1b}[2J\t\r\n".to_string(),
            _ => "\u{7f}\u{b}\u{c}".to_string(),
        },
    }
}

fn query_lines() -> BoxedStrategy<String> {
    BoxedStrategy::new(|rng: &mut TestRng| {
        let n = (rng.next_u64() % 5) as usize;
        let words: Vec<String> = (0..n).map(|_| word(rng)).collect();
        words.join(if rng.next_u64().is_multiple_of(4) {
            "\t"
        } else {
            " "
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_frame_types_arbitrary_bytes(bytes in byte_strings()) {
        read_checked(&bytes)?;
    }

    #[test]
    fn parse_hello_types_arbitrary_payloads(bytes in byte_strings()) {
        hello_checked(&bytes)?;
    }
}

/// Every truncation of a valid frame is a typed error; every
/// single-byte replacement reads as a typed error or a frame that
/// re-encodes to what it consumed, and a HELLO frame's payload then
/// parses or fails typed.
#[test]
fn truncated_and_mutated_frames_are_typed() {
    let mut rng = TestRng::new("wire_mutations");
    for valid in valid_frames() {
        assert_eq!(read_checked(&valid).unwrap().map(|f| f.tag), Some(valid[0]));
        for cut in 0..valid.len() {
            assert!(
                read_checked(&valid[..cut]).unwrap().is_none(),
                "cut at {cut}"
            );
        }
        for at in 0..valid.len() {
            for byte in [
                0x00,
                0xff,
                valid[at] ^ 0x01,
                valid[at] ^ 0x80,
                rng.next_u64() as u8,
            ] {
                let mut bytes = valid.clone();
                bytes[at] = byte;
                if let Some(f) = read_checked(&bytes).unwrap() {
                    if f.tag == TAG_HELLO {
                        hello_checked(&f.payload).unwrap();
                    }
                }
            }
        }
    }
}

/// The same mutations of a HELLO payload itself.
#[test]
fn truncated_and_mutated_hello_payloads_are_typed() {
    let mut rng = TestRng::new("hello_mutations");
    for (name, window) in [("mp-collect", "wa"), ("", ""), ("n\u{e9}", "w")] {
        let valid = hello_payload(name, window);
        assert_eq!(
            parse_hello(&valid).unwrap(),
            (name.to_string(), window.to_string())
        );
        for cut in 0..valid.len() {
            assert!(parse_hello(&valid[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..valid.len() {
            for byte in [
                0x00,
                0xff,
                valid[at] ^ 0x01,
                valid[at] ^ 0x80,
                rng.next_u64() as u8,
            ] {
                let mut bytes = valid.clone();
                bytes[at] = byte;
                hello_checked(&bytes).unwrap();
            }
        }
    }
}

/// Generated query lines against a store holding one window — a
/// compacted session plus a fresh one — answer or fail typed.
#[test]
fn generated_query_lines_answer_or_fail_typed() {
    let root = scratch("wire_props_queries");
    let dirs = StoreDirs::create(&root).unwrap();
    let registry = WindowRegistry::new();
    let land = |seq: u64| {
        let path = dirs.raw_path("wa", &format!("{seq:010}-fuzz"));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, local_bytes_with(seq, 2, &object_syms())).unwrap();
    };
    land(1);
    compact_window(&dirs, "wa").unwrap();
    land(2);
    for line in ["functions wa", "objects wa", "pages wa 3"] {
        assert!(answer(&dirs, &registry, line).is_ok(), "{line}");
    }
    let lines = query_lines();
    let mut rng = TestRng::new("query_lines");
    let mut answered = 0;
    for _ in 0..400 {
        // Either outcome is fine; reaching it without a panic is the
        // property.
        answered += usize::from(answer(&dirs, &registry, &lines.generate(&mut rng)).is_ok());
    }
    assert!(answered > 0, "no generated line answered");
    std::fs::remove_dir_all(&root).ok();
}
