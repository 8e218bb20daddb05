//! `ipd-wire` — the one framed transport under every `ipd` socket.
//!
//! Before this crate, the co-simulation stack and the delivery stack
//! each carried their own ad-hoc framing, limits and timeouts. Now a
//! single layer owns all of it:
//!
//! - [`frame`]: length-prefixed frames with hard size caps validated
//!   *before* allocation, plus polled reads bounded by [`Deadlines`]
//!   and interruptible by a shutdown flag.
//! - [`codec`]: a hardened bounds-checked [`Reader`] and `put_*`
//!   writers shared by every payload encoding.
//! - [`envelope`]: the hello handshake (magic, version, frame-cap
//!   negotiation, optional auth token) and request-id'd
//!   request/response/error envelopes.
//! - [`server`]: a concurrent [`WireServer`] with a
//!   [`SessionRegistry`], connection cap, and graceful shutdown via
//!   [`ServerHandle`]. Two transports, selected by [`ServerMode`]
//!   (and the `IPD_WIRE_MODE` environment variable): the classic
//!   thread-per-session loop, or a readiness-driven event loop over
//!   nonblocking sockets that multiplexes many logical sessions per
//!   connection, applies graduated load-shed tiers instead of a hard
//!   `Busy`, and writes `Arc`-shared payloads zero-copy with vectored
//!   writes.
//! - [`client`]: the blocking [`WireClient`], plus the [`MuxClient`]
//!   that drives many logical sessions over one connection.
//! - [`stats`]: symmetric per-endpoint [`WireStats`] so server totals
//!   reconcile exactly against the sum of client-observed counts.
//!
//! Higher layers (`ipd-cosim`, `ipd-core`) define *what* the payload
//! bytes mean; this crate defines *how* they travel.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod envelope;
mod error;
mod evloop;
pub mod frame;
pub mod mux;
pub mod server;
pub mod stats;

pub use client::{ClientConfig, WireClient};
pub use envelope::{Envelope, MAGIC, VERSION};
pub use error::{ErrorCode, WireError};
pub use frame::{
    read_frame, read_frame_deadline, read_frame_polled, write_frame, write_frame_parts, Deadlines,
    DEFAULT_MAX_FRAME,
};
pub use mux::MuxClient;
pub use server::{
    Reply, ReplyBody, ServerHandle, ServerMode, SessionInfo, SessionRegistry, WireConfig,
    WireServer, WireService, WireSession,
};
pub use stats::{EndpointStats, WireStats};

// Re-export the reader at the crate root: every payload codec in the
// workspace starts with `ipd_wire::Reader::new(body)`.
pub use codec::Reader;
