//! Protocol robustness: arbitrary bytes never panic the decoder, and
//! arbitrary well-formed messages always round-trip — the properties a
//! network-facing applet server needs against hostile clients. Batch
//! messages are drawn with 0–3 ports, 0–300 values per column (across
//! the 64-value plane-word edges), widths 1–70 and all four logic
//! values; hostile batch bodies are refused without a large
//! allocation.
//!
//! Randomized with the in-repo deterministic RNG (`ipd-testutil`), so
//! the suite runs with zero registry dependencies.

use ipd_cosim::{read_frame, write_frame, CosimError, Message};
use ipd_hdl::{Logic, LogicColumn, LogicVec, PortDir};
use ipd_testutil::{check_n, XorShift64};

fn any_logic(rng: &mut XorShift64) -> Logic {
    match rng.below(4) {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

fn any_logic_vec(rng: &mut XorShift64, max: usize) -> LogicVec {
    let len = rng.index(max);
    (0..len).map(|_| any_logic(rng)).collect()
}

/// 0–3 ports, each a column of 0–300 values 1–70 bits wide.
fn any_columns(rng: &mut XorShift64) -> Vec<(String, LogicColumn)> {
    (0..rng.index(4))
        .map(|_| {
            let (count, width) = (rng.index(301), 1 + rng.index(70));
            let mut column = LogicColumn::unknown(width, count);
            for k in 0..count {
                column.set(k, &(0..width).map(|_| any_logic(rng)).collect());
            }
            (any_name(rng), column)
        })
        .collect()
}

fn any_name(rng: &mut XorShift64) -> String {
    let len = 1 + rng.index(16);
    (0..len)
        .map(|i| {
            let alphabet = if i == 0 {
                b"abcdefghijklmnopqrstuvwxyz".as_slice()
            } else {
                b"abcdefghijklmnopqrstuvwxyz0123456789_".as_slice()
            };
            alphabet[rng.index(alphabet.len())] as char
        })
        .collect()
}

fn any_dir(rng: &mut XorShift64) -> PortDir {
    match rng.below(3) {
        0 => PortDir::Input,
        1 => PortDir::Output,
        _ => PortDir::Inout,
    }
}

fn any_message(rng: &mut XorShift64) -> Message {
    match rng.below(13) {
        0 => Message::Hello,
        1 => Message::GetInterface,
        2 => Message::Interface(
            (0..rng.index(8))
                .map(|_| (any_name(rng), any_dir(rng), 1 + rng.below(63) as u32))
                .collect(),
        ),
        3 => Message::SetInput {
            port: any_name(rng),
            value: any_logic_vec(rng, 64),
        },
        4 => Message::Cycle {
            n: rng.below(1_000_000) as u32,
        },
        5 => Message::Reset,
        6 => Message::GetOutput {
            port: any_name(rng),
        },
        7 => Message::Value {
            port: any_name(rng),
            value: any_logic_vec(rng, 64),
        },
        8 => Message::Ok,
        9 => Message::Error {
            message: (0..rng.index(64))
                .map(|_| (b' ' + (rng.below(95) as u8)) as char)
                .collect(),
        },
        10 => Message::Bye,
        11 => Message::BatchRun {
            cycles: rng.below(16) as u32,
            inputs: any_columns(rng),
        },
        _ => Message::BatchResult {
            outputs: any_columns(rng),
        },
    }
}

/// Arbitrary bytes must decode to Ok or Err — never panic.
#[test]
fn decode_never_panics() {
    check_n("decode_never_panics", 128, |rng| {
        let len = rng.index(256);
        let bytes = rng.bytes(len);
        let _ = Message::decode(&bytes);
    });
}

/// Arbitrary frames (length prefix + garbage) never panic the frame
/// reader either.
#[test]
fn read_frame_never_panics() {
    check_n("read_frame_never_panics", 128, |rng| {
        let len = rng.index(64);
        let bytes = rng.bytes(len);
        let _ = read_frame(std::io::Cursor::new(bytes));
    });
}

/// Every well-formed message round-trips through encode/decode.
#[test]
fn messages_round_trip() {
    check_n("messages_round_trip", 128, |rng| {
        let msg = any_message(rng);
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).expect("decode"), msg);
    });
}

/// Every well-formed message round-trips through the framing layer.
#[test]
fn frames_round_trip() {
    check_n("frames_round_trip", 128, |rng| {
        let msgs: Vec<Message> = (0..1 + rng.index(7)).map(|_| any_message(rng)).collect();
        let mut buf = Vec::new();
        for msg in &msgs {
            write_frame(&mut buf, msg).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in &msgs {
            assert_eq!(&read_frame(&mut cursor).expect("read"), msg);
        }
    });
}

/// Truncating a valid encoding anywhere must produce an error, not a
/// silently different message.
#[test]
fn truncation_is_detected() {
    check_n("truncation_is_detected", 128, |rng| {
        let msg = any_message(rng);
        let bytes = msg.encode();
        if bytes.len() > 1 {
            let cut = 1 + rng.index(bytes.len() - 1);
            if cut < bytes.len() {
                match Message::decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(decoded) => {
                        assert_ne!(decoded, msg, "truncated decode must not equal the original")
                    }
                }
            }
        }
    });
}

/// Random byte flips in valid batch encodings never panic the decoder,
/// and whatever still decodes re-encodes to the same bytes: every
/// accepted column is canonical.
#[test]
fn mutated_batches_never_panic() {
    check_n("mutated_batches_never_panic", 128, |rng| {
        let msg = Message::BatchRun {
            cycles: 1,
            inputs: any_columns(rng),
        };
        let mut bytes = msg.encode();
        for _ in 0..1 + rng.index(4) {
            let at = rng.index(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        if let Ok(decoded) = Message::decode(&bytes) {
            assert_eq!(decoded.encode(), bytes);
        }
    });
}

/// A `BatchRun` with one port `x` whose column header declares
/// `count` values of `width` bits, followed by `planes`.
fn hostile_batch(count: u32, width: u32, planes: &[u8]) -> Vec<u8> {
    let mut bytes = Message::BatchRun {
        cycles: 1,
        inputs: vec![],
    }
    .encode();
    bytes[5] = 1; // one port
    bytes.extend_from_slice(&[1, 0, b'x']);
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(&width.to_le_bytes());
    bytes.extend_from_slice(planes);
    bytes
}

fn refused(bytes: &[u8]) -> bool {
    matches!(Message::decode(bytes), Err(CosimError::Protocol { .. }))
}

#[test]
fn hostile_batch_bodies_are_refused() {
    let planes = vec![0u8; 4096];
    // A count of u32::MAX needs 2^26 plane words per bit.
    assert!(refused(&hostile_batch(u32::MAX, 1, &planes)));
    // Zero-width values cost no plane bytes at all.
    assert!(refused(&hostile_batch(1, 0, &[])));
    assert!(refused(&hostile_batch(u32::MAX, 0, &[])));
    // A width past a single value's `u16`, even for no values.
    assert!(refused(&hostile_batch(0, u32::MAX, &[])));
    assert!(refused(&hostile_batch(64, u32::MAX, &planes)));
    assert!(refused(&hostile_batch(u32::MAX, u32::MAX, &planes)));
    // A width whose plane size exceeds any frame.
    assert!(refused(&hostile_batch(u32::MAX, 65_535, &planes)));
    // Bits past the count (60..64 of the last word, the top nibble of
    // its last byte), in the value and the unknown plane.
    for (byte, bits) in [(7, 0x10), (7, 0x80), (15, 0x10), (15, 0x80)] {
        let mut planes = [0u8; 16];
        planes[byte] = bits;
        assert!(refused(&hostile_batch(60, 1, &planes)), "byte {byte}");
    }
    // In-range bits decode.
    assert!(!refused(&hostile_batch(60, 1, &[0x0F; 16])));
    assert!(!refused(&hostile_batch(64, 1, &[0x80; 16])));
    assert!(!refused(&hostile_batch(0, 0, &[])));
    assert!(!refused(&hostile_batch(0, 65_535, &[])));
}
