//! Request/response envelopes — what frame bodies contain.
//!
//! Every session starts with a [`Envelope::Hello`] /
//! [`Envelope::HelloAck`] handshake (protocol magic, version, frame
//! cap, optional auth token), then exchanges request-id'd
//! [`Envelope::Request`] / [`Envelope::Response`] pairs. Failures
//! travel as typed [`Envelope::Error`] frames so a client can react to
//! the [`ErrorCode`] without string matching.

use crate::codec::{self, Reader};
use crate::error::{ErrorCode, WireError};

/// Protocol magic carried by the hello frame (`"IPDW"`).
pub const MAGIC: u32 = 0x4950_4457;

/// Wire protocol version.
pub const VERSION: u16 = 1;

/// One envelope — the decoded body of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Client greeting: magic, version, the client's frame cap, and an
    /// optional authentication token (e.g. a customer id).
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// The client's maximum acceptable frame size.
        max_frame: u32,
        /// Optional authentication token, passed to the service.
        token: Option<String>,
    },
    /// Server acceptance: the session id and the server's frame cap.
    /// Both sides thereafter cap frames at the *minimum* of the two.
    HelloAck {
        /// Server-assigned session id (unique per server lifetime).
        session: u64,
        /// The server's maximum acceptable frame size.
        max_frame: u32,
    },
    /// A request: client-chosen id, endpoint selector, payload.
    Request {
        /// Client-chosen id echoed by the response.
        id: u64,
        /// Which endpoint handles the payload.
        endpoint: u16,
        /// Endpoint-specific payload bytes.
        body: Vec<u8>,
    },
    /// A successful response to the request with the same id.
    Response {
        /// The request id this answers.
        id: u64,
        /// Endpoint-specific payload bytes.
        body: Vec<u8>,
    },
    /// A typed failure response (id 0 when no request is at fault,
    /// e.g. a refused connection).
    Error {
        /// The request id this answers, or 0.
        id: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Polite end of session.
    Goodbye,
    /// Opens a logical channel (a multiplexed session) on this
    /// connection. The channel id is client-chosen and scopes every
    /// `Mux*` envelope that follows; `low_priority` marks the channel
    /// sheddable under load.
    MuxOpen {
        /// Client-chosen channel id, unique on this connection.
        channel: u32,
        /// Optional authentication token, passed to the service.
        token: Option<String>,
        /// Volunteer for load-shedding when the server is saturated.
        low_priority: bool,
    },
    /// Server acceptance of a [`Envelope::MuxOpen`].
    MuxOpenAck {
        /// The channel id being acknowledged.
        channel: u32,
        /// Server-assigned session id for this logical session.
        session: u64,
    },
    /// A request on a logical channel.
    MuxRequest {
        /// Which open channel carries this request.
        channel: u32,
        /// Client-chosen id echoed by the response.
        id: u64,
        /// Which endpoint handles the payload.
        endpoint: u16,
        /// Endpoint-specific payload bytes.
        body: Vec<u8>,
    },
    /// A successful response on a logical channel.
    MuxResponse {
        /// Which open channel carries this response.
        channel: u32,
        /// The request id this answers.
        id: u64,
        /// Endpoint-specific payload bytes.
        body: Vec<u8>,
    },
    /// A typed failure scoped to one channel (the connection and its
    /// other channels survive; id 0 when no request is at fault, e.g.
    /// a refused or shed open).
    MuxError {
        /// Which channel failed.
        channel: u32,
        /// The request id this answers, or 0.
        id: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Polite end of one logical channel; the connection stays up.
    MuxClose {
        /// Which channel is closing.
        channel: u32,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_RESPONSE: u8 = 3;
const TAG_ERROR: u8 = 4;
const TAG_GOODBYE: u8 = 5;
const TAG_MUX_OPEN: u8 = 6;
const TAG_MUX_OPEN_ACK: u8 = 7;
const TAG_MUX_REQUEST: u8 = 8;
const TAG_MUX_RESPONSE: u8 = 9;
const TAG_MUX_ERROR: u8 = 10;
const TAG_MUX_CLOSE: u8 = 11;

/// The envelope header of a [`Envelope::Response`] for a body of
/// `body_len` bytes, without the body: the session loop appends the
/// `Arc`-shared body as its own vectored write segment, so shared
/// payloads are never copied into an encode buffer.
pub(crate) fn response_header(id: u64, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    codec::put_u8(&mut out, TAG_RESPONSE);
    codec::put_u64(&mut out, id);
    codec::put_u32(
        &mut out,
        u32::try_from(body_len).expect("wire payload over 4 GiB"),
    );
    out
}

/// The [`Envelope::MuxResponse`] analogue of [`response_header`].
pub(crate) fn mux_response_header(channel: u32, id: u64, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    codec::put_u8(&mut out, TAG_MUX_RESPONSE);
    codec::put_u32(&mut out, channel);
    codec::put_u64(&mut out, id);
    codec::put_u32(
        &mut out,
        u32::try_from(body_len).expect("wire payload over 4 GiB"),
    );
    out
}

impl Envelope {
    /// Encodes the envelope as a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Envelope::Hello {
                version,
                max_frame,
                token,
            } => {
                codec::put_u8(&mut out, TAG_HELLO);
                codec::put_u32(&mut out, MAGIC);
                codec::put_u16(&mut out, *version);
                codec::put_u32(&mut out, *max_frame);
                codec::put_opt_str(&mut out, token.as_deref());
            }
            Envelope::HelloAck { session, max_frame } => {
                codec::put_u8(&mut out, TAG_HELLO_ACK);
                codec::put_u64(&mut out, *session);
                codec::put_u32(&mut out, *max_frame);
            }
            Envelope::Request { id, endpoint, body } => {
                codec::put_u8(&mut out, TAG_REQUEST);
                codec::put_u64(&mut out, *id);
                codec::put_u16(&mut out, *endpoint);
                codec::put_bytes(&mut out, body);
            }
            Envelope::Response { id, body } => {
                codec::put_u8(&mut out, TAG_RESPONSE);
                codec::put_u64(&mut out, *id);
                codec::put_bytes(&mut out, body);
            }
            Envelope::Error { id, code, message } => {
                codec::put_u8(&mut out, TAG_ERROR);
                codec::put_u64(&mut out, *id);
                codec::put_u16(&mut out, code.to_u16());
                codec::put_str(&mut out, message);
            }
            Envelope::Goodbye => codec::put_u8(&mut out, TAG_GOODBYE),
            Envelope::MuxOpen {
                channel,
                token,
                low_priority,
            } => {
                codec::put_u8(&mut out, TAG_MUX_OPEN);
                codec::put_u32(&mut out, *channel);
                codec::put_opt_str(&mut out, token.as_deref());
                codec::put_u8(&mut out, u8::from(*low_priority));
            }
            Envelope::MuxOpenAck { channel, session } => {
                codec::put_u8(&mut out, TAG_MUX_OPEN_ACK);
                codec::put_u32(&mut out, *channel);
                codec::put_u64(&mut out, *session);
            }
            Envelope::MuxRequest {
                channel,
                id,
                endpoint,
                body,
            } => {
                codec::put_u8(&mut out, TAG_MUX_REQUEST);
                codec::put_u32(&mut out, *channel);
                codec::put_u64(&mut out, *id);
                codec::put_u16(&mut out, *endpoint);
                codec::put_bytes(&mut out, body);
            }
            Envelope::MuxResponse { channel, id, body } => {
                codec::put_u8(&mut out, TAG_MUX_RESPONSE);
                codec::put_u32(&mut out, *channel);
                codec::put_u64(&mut out, *id);
                codec::put_bytes(&mut out, body);
            }
            Envelope::MuxError {
                channel,
                id,
                code,
                message,
            } => {
                codec::put_u8(&mut out, TAG_MUX_ERROR);
                codec::put_u32(&mut out, *channel);
                codec::put_u64(&mut out, *id);
                codec::put_u16(&mut out, code.to_u16());
                codec::put_str(&mut out, message);
            }
            Envelope::MuxClose { channel } => {
                codec::put_u8(&mut out, TAG_MUX_CLOSE);
                codec::put_u32(&mut out, *channel);
            }
        }
        out
    }

    /// Decodes a frame body, rejecting unknown tags, bad magic and
    /// trailing garbage.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on any malformation.
    pub fn decode(bytes: &[u8]) -> Result<Envelope, WireError> {
        let mut r = Reader::new(bytes);
        let envelope = match r.u8()? {
            TAG_HELLO => {
                let magic = r.u32()?;
                if magic != MAGIC {
                    return Err(WireError::protocol(format!(
                        "bad protocol magic {magic:#x}"
                    )));
                }
                Envelope::Hello {
                    version: r.u16()?,
                    max_frame: r.u32()?,
                    token: r.opt_str()?,
                }
            }
            TAG_HELLO_ACK => Envelope::HelloAck {
                session: r.u64()?,
                max_frame: r.u32()?,
            },
            TAG_REQUEST => Envelope::Request {
                id: r.u64()?,
                endpoint: r.u16()?,
                body: r.bytes()?,
            },
            TAG_RESPONSE => Envelope::Response {
                id: r.u64()?,
                body: r.bytes()?,
            },
            TAG_ERROR => {
                let id = r.u64()?;
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| WireError::protocol(format!("unknown error code {raw}")))?;
                Envelope::Error {
                    id,
                    code,
                    message: r.str()?,
                }
            }
            TAG_GOODBYE => Envelope::Goodbye,
            TAG_MUX_OPEN => {
                let channel = r.u32()?;
                let token = r.opt_str()?;
                let low_priority = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(WireError::protocol(format!("bad priority flag {other}"))),
                };
                Envelope::MuxOpen {
                    channel,
                    token,
                    low_priority,
                }
            }
            TAG_MUX_OPEN_ACK => Envelope::MuxOpenAck {
                channel: r.u32()?,
                session: r.u64()?,
            },
            TAG_MUX_REQUEST => Envelope::MuxRequest {
                channel: r.u32()?,
                id: r.u64()?,
                endpoint: r.u16()?,
                body: r.bytes()?,
            },
            TAG_MUX_RESPONSE => Envelope::MuxResponse {
                channel: r.u32()?,
                id: r.u64()?,
                body: r.bytes()?,
            },
            TAG_MUX_ERROR => {
                let channel = r.u32()?;
                let id = r.u64()?;
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| WireError::protocol(format!("unknown error code {raw}")))?;
                Envelope::MuxError {
                    channel,
                    id,
                    code,
                    message: r.str()?,
                }
            }
            TAG_MUX_CLOSE => Envelope::MuxClose { channel: r.u32()? },
            other => return Err(WireError::protocol(format!("unknown envelope tag {other}"))),
        };
        r.finish()?;
        Ok(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(env: Envelope) {
        let bytes = env.encode();
        assert_eq!(Envelope::decode(&bytes).expect("decode"), env);
    }

    #[test]
    fn all_envelopes_round_trip() {
        round_trip(Envelope::Hello {
            version: VERSION,
            max_frame: 1 << 20,
            token: None,
        });
        round_trip(Envelope::Hello {
            version: VERSION,
            max_frame: 4096,
            token: Some("acme".into()),
        });
        round_trip(Envelope::HelloAck {
            session: 42,
            max_frame: 1 << 16,
        });
        round_trip(Envelope::Request {
            id: 7,
            endpoint: 0x21,
            body: vec![1, 2, 3],
        });
        round_trip(Envelope::Response {
            id: 7,
            body: Vec::new(),
        });
        round_trip(Envelope::Error {
            id: 9,
            code: ErrorCode::Busy,
            message: "session cap reached".into(),
        });
        round_trip(Envelope::Goodbye);
        round_trip(Envelope::MuxOpen {
            channel: 3,
            token: Some("acme".into()),
            low_priority: true,
        });
        round_trip(Envelope::MuxOpen {
            channel: 0,
            token: None,
            low_priority: false,
        });
        round_trip(Envelope::MuxOpenAck {
            channel: 3,
            session: 99,
        });
        round_trip(Envelope::MuxRequest {
            channel: 3,
            id: 12,
            endpoint: 0x20,
            body: vec![4, 5],
        });
        round_trip(Envelope::MuxResponse {
            channel: 3,
            id: 12,
            body: vec![6],
        });
        round_trip(Envelope::MuxError {
            channel: 3,
            id: 0,
            code: ErrorCode::Shed,
            message: "low priority shed".into(),
        });
        round_trip(Envelope::MuxClose { channel: 3 });
    }

    #[test]
    fn zero_copy_headers_match_the_full_encoding() {
        let body = vec![7u8, 8, 9];
        let mut split = response_header(42, body.len());
        split.extend_from_slice(&body);
        assert_eq!(
            split,
            Envelope::Response {
                id: 42,
                body: body.clone()
            }
            .encode()
        );
        let mut split = mux_response_header(5, 42, body.len());
        split.extend_from_slice(&body);
        assert_eq!(
            split,
            Envelope::MuxResponse {
                channel: 5,
                id: 42,
                body
            }
            .encode()
        );
    }

    #[test]
    fn malformations_rejected() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[200]).is_err());
        // Bad magic.
        let mut hello = Envelope::Hello {
            version: VERSION,
            max_frame: 16,
            token: None,
        }
        .encode();
        hello[1] ^= 0xFF;
        assert!(Envelope::decode(&hello).is_err());
        // Trailing garbage.
        let mut bytes = Envelope::Goodbye.encode();
        bytes.push(0);
        assert!(Envelope::decode(&bytes).is_err());
        // Unknown error code.
        let mut err = Envelope::Error {
            id: 1,
            code: ErrorCode::App,
            message: "x".into(),
        }
        .encode();
        err[9] = 0xEE;
        err[10] = 0xEE;
        assert!(Envelope::decode(&err).is_err());
    }

    #[test]
    fn every_truncation_of_every_envelope_is_rejected() {
        let envelopes = [
            Envelope::Hello {
                version: VERSION,
                max_frame: 1024,
                token: Some("tok".into()),
            },
            Envelope::Request {
                id: u64::MAX,
                endpoint: 3,
                body: vec![0; 9],
            },
            Envelope::Error {
                id: 2,
                code: ErrorCode::Protocol,
                message: "m".into(),
            },
            Envelope::MuxOpen {
                channel: 1,
                token: Some("t".into()),
                low_priority: true,
            },
            Envelope::MuxRequest {
                channel: 1,
                id: 3,
                endpoint: 0xE0,
                body: vec![0; 5],
            },
            Envelope::MuxError {
                channel: 1,
                id: 0,
                code: ErrorCode::Busy,
                message: "m".into(),
            },
        ];
        for env in envelopes {
            let bytes = env.encode();
            for len in 0..bytes.len() {
                assert!(Envelope::decode(&bytes[..len]).is_err(), "prefix {len}");
            }
        }
    }
}
