//! The black-box co-simulation wire protocol.
//!
//! The paper (§4.2) exchanges "simulation events … over network sockets
//! and a custom communication protocol" between applets and the
//! customer's system simulator. This module defines the *payload*
//! encoding of that protocol; framing, size caps and deadlines live in
//! `ipd-wire`, the one transport layer shared with the delivery stack.
//!
//! A single value ([`Message::SetInput`], [`Message::Value`]) is a
//! `u16` width and two bits per logic value, four values per byte. A
//! batch ([`Message::BatchRun`], [`Message::BatchResult`]) is one
//! [`LogicColumn`] per port: the port name, a `u32` value count, a
//! `u32` width, then the column's planes as little-endian `u64` words,
//! each bit's value plane followed by its unknown plane. That is
//! `width × ⌈count/64⌉ × 16` bytes, the same two bits per value with
//! no per-value prefix. The decoder refuses a column of zero-width
//! values, a width above `u16::MAX` (a single value's limit), a plane
//! size that overflows or exceeds the frame, and set bits past the
//! count, all before allocating more than the frame holds.

use std::io::{Read, Write};

use ipd_hdl::{Logic, LogicColumn, LogicVec, PortDir};
use ipd_wire::{codec, Reader};

use crate::error::CosimError;

/// Maximum accepted frame size (a sanity bound against corruption) —
/// the wire layer's shared default.
pub const MAX_FRAME: u32 = ipd_wire::DEFAULT_MAX_FRAME;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client greeting; the server answers with [`Message::Interface`].
    Hello,
    /// Queries the model's port interface.
    GetInterface,
    /// The model's interface: `(name, dir, width)` per port.
    Interface(Vec<(String, PortDir, u32)>),
    /// Drives an input port.
    SetInput {
        /// Port name.
        port: String,
        /// Value to drive.
        value: LogicVec,
    },
    /// Advances the model's clock.
    Cycle {
        /// Number of cycles.
        n: u32,
    },
    /// Resets the model to power-on state.
    Reset,
    /// Reads a port's current value.
    GetOutput {
        /// Port name.
        port: String,
    },
    /// A port value (response to [`Message::GetOutput`]).
    Value {
        /// Port name.
        port: String,
        /// Current value.
        value: LogicVec,
    },
    /// Generic success acknowledgement.
    Ok,
    /// Error report.
    Error {
        /// Human-readable message.
        message: String,
    },
    /// Ends the session.
    Bye,
    /// Runs a whole batch of stimulus vectors in one round trip. Each
    /// vector is simulated from power-on: inputs applied, `cycles`
    /// clock edges, outputs sampled. The server answers with
    /// [`Message::BatchResult`]. This amortizes the per-event
    /// round-trip cost that dominates the remote-simulation baselines.
    BatchRun {
        /// Clock cycles to run after applying each vector.
        cycles: u32,
        /// Per input port, a column of one value per stimulus vector.
        /// All columns must hold the same number of vectors.
        inputs: Vec<(String, LogicColumn)>,
    },
    /// Per output port, a column of one value per stimulus vector
    /// (response to [`Message::BatchRun`], in vector submission order).
    BatchResult {
        /// Per output port, a column of one value per stimulus vector.
        outputs: Vec<(String, LogicColumn)>,
    },
}

impl Message {
    /// The wire endpoint id this message is routed to — the message
    /// tag, so per-endpoint [`WireStats`](ipd_wire::WireStats) break
    /// traffic down by request kind.
    #[must_use]
    pub fn wire_endpoint(&self) -> u16 {
        u16::from(self.tag())
    }

    fn tag(&self) -> u8 {
        match self {
            Message::Hello => 0,
            Message::GetInterface => 1,
            Message::Interface(_) => 2,
            Message::SetInput { .. } => 3,
            Message::Cycle { .. } => 4,
            Message::Reset => 5,
            Message::GetOutput { .. } => 6,
            Message::Value { .. } => 7,
            Message::Ok => 8,
            Message::Error { .. } => 9,
            Message::Bye => 10,
            // Tags 11 and 12 carried batches one value at a time; they
            // stay unused so a peer speaking them gets an unknown tag.
            Message::BatchRun { .. } => 13,
            Message::BatchResult { .. } => 14,
        }
    }

    /// Encodes the message body (without framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u8(&mut out, self.tag());
        match self {
            Message::Hello
            | Message::GetInterface
            | Message::Reset
            | Message::Ok
            | Message::Bye => {}
            Message::Interface(ports) => {
                codec::put_u16(&mut out, ports.len() as u16);
                for (name, dir, width) in ports {
                    codec::put_str(&mut out, name);
                    codec::put_u8(
                        &mut out,
                        match dir {
                            PortDir::Input => 0,
                            PortDir::Output => 1,
                            PortDir::Inout => 2,
                        },
                    );
                    codec::put_u32(&mut out, *width);
                }
            }
            Message::SetInput { port, value } => {
                codec::put_str(&mut out, port);
                put_vec(&mut out, value);
            }
            Message::Cycle { n } => codec::put_u32(&mut out, *n),
            Message::GetOutput { port } => codec::put_str(&mut out, port),
            Message::Value { port, value } => {
                codec::put_str(&mut out, port);
                put_vec(&mut out, value);
            }
            Message::Error { message } => codec::put_str(&mut out, message),
            Message::BatchRun { cycles, inputs } => {
                codec::put_u32(&mut out, *cycles);
                put_columns(&mut out, inputs);
            }
            Message::BatchResult { outputs } => put_columns(&mut out, outputs),
        }
        out
    }

    /// Decodes a message body through the hardened wire reader: every
    /// declared length and count is capped against the bytes actually
    /// present before allocation, and trailing garbage is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Protocol`] for unknown tags, truncated
    /// fields, hostile counts and trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, CosimError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let msg = match tag {
            0 => Message::Hello,
            1 => Message::GetInterface,
            2 => {
                let count = r.u16()? as usize;
                // Each port needs ≥ 7 bytes (name prefix + dir + width).
                let count = r.cap_count(count, 7)?;
                let mut ports = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = r.str()?;
                    let dir = match r.u8()? {
                        0 => PortDir::Input,
                        1 => PortDir::Output,
                        2 => PortDir::Inout,
                        other => {
                            return Err(CosimError::Protocol {
                                reason: format!("bad direction {other}"),
                            })
                        }
                    };
                    let width = r.u32()?;
                    ports.push((name, dir, width));
                }
                Message::Interface(ports)
            }
            3 => Message::SetInput {
                port: r.str()?,
                value: logic_vec(&mut r)?,
            },
            4 => Message::Cycle { n: r.u32()? },
            5 => Message::Reset,
            6 => Message::GetOutput { port: r.str()? },
            7 => Message::Value {
                port: r.str()?,
                value: logic_vec(&mut r)?,
            },
            8 => Message::Ok,
            9 => Message::Error { message: r.str()? },
            10 => Message::Bye,
            13 => Message::BatchRun {
                cycles: r.u32()?,
                inputs: columns(&mut r)?,
            },
            14 => Message::BatchResult {
                outputs: columns(&mut r)?,
            },
            other => {
                return Err(CosimError::Protocol {
                    reason: format!("unknown message tag {other}"),
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Display name for a co-simulation endpoint id (stats reports).
#[must_use]
pub fn endpoint_name(endpoint: u16) -> &'static str {
    match endpoint {
        0 => "cosim.hello",
        1 => "cosim.get-interface",
        2 => "cosim.interface",
        3 => "cosim.set-input",
        4 => "cosim.cycle",
        5 => "cosim.reset",
        6 => "cosim.get-output",
        7 => "cosim.value",
        8 => "cosim.ok",
        9 => "cosim.error",
        10 => "cosim.bye",
        13 => "cosim.batch-run",
        14 => "cosim.batch-result",
        _ => "cosim.unknown",
    }
}

/// Writes one length-prefixed frame. A mut reference can be passed as
/// the writer.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_frame<W: Write>(writer: W, message: &Message) -> Result<(), CosimError> {
    ipd_wire::write_frame(writer, &message.encode(), MAX_FRAME)?;
    Ok(())
}

/// Reads one length-prefixed frame. A mut reference can be passed as
/// the reader.
///
/// # Errors
///
/// Fails on I/O errors, oversized frames or malformed bodies.
pub fn read_frame<R: Read>(reader: R) -> Result<Message, CosimError> {
    let body = ipd_wire::read_frame(reader, MAX_FRAME)?;
    Message::decode(&body)
}

fn put_vec(out: &mut Vec<u8>, v: &LogicVec) {
    codec::put_u16(out, v.width() as u16);
    // Two bits per logic value, packed four per byte.
    let mut byte = 0u8;
    for (i, bit) in v.iter().enumerate() {
        let code = match bit {
            Logic::Zero => 0u8,
            Logic::One => 1,
            Logic::X => 2,
            Logic::Z => 3,
        };
        byte |= code << ((i % 4) * 2);
        if i % 4 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !v.width().is_multiple_of(4) {
        out.push(byte);
    }
}

fn put_columns(out: &mut Vec<u8>, columns: &[(String, LogicColumn)]) {
    codec::put_u16(out, columns.len() as u16);
    for (name, column) in columns {
        codec::put_str(out, name);
        codec::put_u32(out, column.len() as u32);
        codec::put_u32(out, column.width() as u32);
        out.reserve(8 * column.planes().len());
        for word in column.planes() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
}

fn logic_vec(r: &mut Reader<'_>) -> Result<LogicVec, CosimError> {
    let width = r.u16()? as usize;
    let bytes = r.take(width.div_ceil(4))?;
    let mut bits = Vec::with_capacity(width);
    for i in 0..width {
        let code = (bytes[i / 4] >> ((i % 4) * 2)) & 0b11;
        bits.push(match code {
            0 => Logic::Zero,
            1 => Logic::One,
            2 => Logic::X,
            _ => Logic::Z,
        });
    }
    Ok(LogicVec::from_bits(bits))
}

fn columns(r: &mut Reader<'_>) -> Result<Vec<(String, LogicColumn)>, CosimError> {
    let ports = r.u16()? as usize;
    // Each column needs ≥ 10 bytes (name prefix, count, width).
    let ports = r.cap_count(ports, 10)?;
    let mut columns = Vec::with_capacity(ports);
    for _ in 0..ports {
        let name = r.str()?;
        columns.push((name, column(r)?));
    }
    Ok(columns)
}

/// Reads one column. Every refusal comes before any allocation larger
/// than the column's own bytes in the frame.
fn column(r: &mut Reader<'_>) -> Result<LogicColumn, CosimError> {
    let count = r.u32()? as usize;
    let width = r.u32()? as usize;
    // Zero-width values cost no plane bytes, so their count would be
    // bounded by nothing.
    if width == 0 && count > 0 {
        return Err(CosimError::Protocol {
            reason: format!("column of {count} zero-width values"),
        });
    }
    // A column of no values has no plane bytes either, so its width
    // is capped like a single value's `u16` width.
    if width > usize::from(u16::MAX) {
        return Err(CosimError::Protocol {
            reason: format!("column of {width}-bit values exceeds {} bits", u16::MAX),
        });
    }
    let size = width
        .checked_mul(count.div_ceil(64))
        .and_then(|words| words.checked_mul(16))
        .ok_or_else(|| CosimError::Protocol {
            reason: format!("{width}-bit column of {count} values overflows"),
        })?;
    let planes = r
        .take(size)?
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunks")))
        .collect();
    LogicColumn::from_planes(width, count, planes).ok_or_else(|| CosimError::Protocol {
        reason: format!("column sets bits past its {count} values"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Hello);
        round_trip(Message::GetInterface);
        round_trip(Message::Interface(vec![
            ("clk".into(), PortDir::Input, 1),
            ("x".into(), PortDir::Input, 8),
            ("y".into(), PortDir::Output, 17),
        ]));
        round_trip(Message::SetInput {
            port: "x".into(),
            value: LogicVec::from_i64(-56, 8),
        });
        round_trip(Message::Cycle { n: 1000 });
        round_trip(Message::Reset);
        round_trip(Message::GetOutput { port: "y".into() });
        round_trip(Message::Value {
            port: "y".into(),
            value: LogicVec::unknown(5),
        });
        round_trip(Message::Ok);
        round_trip(Message::Error {
            message: "no such port".into(),
        });
        round_trip(Message::Bye);
    }

    fn column(values: &[LogicVec]) -> LogicColumn {
        LogicColumn::from_values(values).expect("one width")
    }

    #[test]
    fn batch_messages_round_trip() {
        round_trip(Message::BatchRun {
            cycles: 3,
            inputs: vec![
                (
                    "x".into(),
                    column(
                        &(0..130)
                            .map(|k| LogicVec::from_u64(k, 8))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("en".into(), LogicColumn::unknown(1, 130)),
            ],
        });
        round_trip(Message::BatchRun {
            cycles: 0,
            inputs: vec![],
        });
        round_trip(Message::BatchResult {
            outputs: vec![("y".into(), column(&[LogicVec::from_i64(-3, 12)]))],
        });
        round_trip(Message::BatchResult {
            outputs: vec![("y".into(), LogicColumn::unknown(12, 0))],
        });
        round_trip(Message::BatchResult { outputs: vec![] });
    }

    #[test]
    fn batch_columns_cost_two_bits_per_value() {
        let msg = Message::BatchRun {
            cycles: 1,
            inputs: vec![("x".into(), LogicColumn::unknown(16, 4096))],
        };
        // tag + cycles + port count + name + count + width + planes.
        assert_eq!(msg.encode().len(), 1 + 4 + 2 + 3 + 4 + 4 + 16 * 4096 / 4);
    }

    #[test]
    fn endpoints_follow_tags() {
        assert_eq!(Message::Hello.wire_endpoint(), 0);
        assert_eq!(
            Message::BatchRun {
                cycles: 0,
                inputs: vec![]
            }
            .wire_endpoint(),
            13
        );
        assert_eq!(endpoint_name(13), "cosim.batch-run");
        assert_eq!(endpoint_name(14), "cosim.batch-result");
        assert_eq!(endpoint_name(11), "cosim.unknown");
        assert_eq!(endpoint_name(999), "cosim.unknown");
    }

    #[test]
    fn per_vector_batch_tags_are_unknown() {
        // A `BatchRun` of one 1-bit value and a `BatchResult` with no
        // ports, as a peer using the per-vector tags encodes them.
        for bytes in [
            &[11u8, 0, 0, 0, 0, 1, 0, 1, 0, b'a', 1, 0, 0, 0, 1, 0, 1][..],
            &[12, 0, 0],
        ] {
            match Message::decode(bytes) {
                Err(CosimError::Protocol { reason }) => {
                    assert_eq!(reason, format!("unknown message tag {}", bytes[0]));
                }
                other => panic!("tag {} decoded as {other:?}", bytes[0]),
            }
        }
    }

    /// A `BatchResult` of one port `y` with the given column header
    /// and plane bytes.
    fn batch_result_bytes(count: u32, width: u32, planes: &[u8]) -> Vec<u8> {
        let mut bytes = vec![14, 1, 0, 1, 0, b'y'];
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&width.to_le_bytes());
        bytes.extend_from_slice(planes);
        bytes
    }

    fn refusal(bytes: &[u8]) -> String {
        match Message::decode(bytes) {
            Err(CosimError::Protocol { reason }) => reason,
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn zero_width_columns_are_refused() {
        let bytes = batch_result_bytes(500_000, 0, &[]);
        assert_eq!(refusal(&bytes), "column of 500000 zero-width values");
        // No values of no width is an empty column.
        round_trip(Message::BatchResult {
            outputs: vec![("y".into(), LogicColumn::default())],
        });
    }

    #[test]
    fn oversized_columns_are_refused_before_allocation() {
        // A plane size the frame does not hold is refused by the take,
        // before the planes are allocated; the checked product guards
        // targets where it overflows `usize`.
        for (count, width) in [(u32::MAX, 1), (u32::MAX, 65_535), (65, 1)] {
            let reason = refusal(&batch_result_bytes(count, width, &[0; 31]));
            assert!(
                reason.starts_with("truncated payload") || reason.ends_with("overflows"),
                "{count} x {width}: {reason}"
            );
        }
        // A width past a single value's `u16` is refused even for no
        // values, whose planes take no bytes.
        for (count, width) in [
            (0, u32::MAX),
            (0, 65_536),
            (1, u32::MAX),
            (u32::MAX, u32::MAX),
        ] {
            assert_eq!(
                refusal(&batch_result_bytes(count, width, &[0; 31])),
                format!("column of {width}-bit values exceeds 65535 bits"),
                "{count} x {width}"
            );
        }
        // The widest column of no values is an empty column.
        let bytes = batch_result_bytes(0, 65_535, &[]);
        let Ok(Message::BatchResult { outputs }) = Message::decode(&bytes) else {
            panic!("not a batch result")
        };
        assert_eq!((outputs[0].1.width(), outputs[0].1.len()), (65_535, 0));
        assert!(outputs[0].1.to_values().is_empty());
    }

    #[test]
    fn padding_bits_are_refused() {
        // 65 values of 1 bit: two words per plane; word 1 holds value
        // 64 in its bit 0 only.
        for (word, bit) in [(1, 1), (3, 63), (3, 1)] {
            let mut planes = [0u8; 32];
            planes[word * 8 + bit / 8] |= 1 << (bit % 8);
            let reason = refusal(&batch_result_bytes(65, 1, &planes));
            assert_eq!(reason, "column sets bits past its 65 values");
        }
        let mut planes = [0u8; 32];
        planes[8] = 1;
        planes[24] = 1;
        let msg = Message::decode(&batch_result_bytes(65, 1, &planes)).expect("canonical");
        let Message::BatchResult { outputs } = msg else {
            panic!("not a batch result")
        };
        assert_eq!(outputs[0].1.get(64), LogicVec::high_z(1));
    }

    #[test]
    fn truncated_batches_rejected() {
        let msg = Message::BatchRun {
            cycles: 1,
            inputs: vec![("x".into(), column(&vec![LogicVec::from_u64(9, 4); 7]))],
        };
        let bytes = msg.encode();
        for len in 1..bytes.len() {
            assert!(Message::decode(&bytes[..len]).is_err(), "prefix {len}");
        }
        // An absurd port count must fail fast, not allocate.
        let mut bytes = vec![14];
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(Message::decode(&bytes).is_err());
        // And an absurd interface port count.
        let mut bytes = vec![2];
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn four_state_values_survive() {
        let mut v = LogicVec::from_u64(0b1010, 4);
        v.set_bit(1, Logic::X);
        v.set_bit(2, Logic::Z);
        round_trip(Message::Value {
            port: "p".into(),
            value: v,
        });
    }

    #[test]
    fn framing_round_trip_over_a_pipe() {
        let mut buf = Vec::new();
        let msg = Message::SetInput {
            port: "multiplicand".into(),
            value: LogicVec::from_u64(42, 8),
        };
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Message::Bye).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
        assert_eq!(read_frame(&mut cursor).unwrap(), Message::Bye);
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[200]).is_err());
        assert!(Message::decode(&[3, 5, 0]).is_err()); // truncated string
                                                       // Trailing junk.
        let mut bytes = Message::Ok.encode();
        bytes.push(7);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(std::io::Cursor::new(buf)),
            Err(CosimError::Protocol { .. })
        ));
    }
}
