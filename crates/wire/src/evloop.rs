//! The per-connection session loop: the one way a server speaks the
//! protocol.
//!
//! Every accepted connection runs [`serve`] on a thread of its own
//! (the caller's thread under [`crate::WireServer::serve_next`]). The
//! thread blocks in `read` straight into the connection's input
//! buffer, slices every complete frame out of it, runs each through
//! the connection's session state machine, and writes the whole reply
//! queue before it reads again. The socket's read timeout is
//! [`WireConfig::poll_interval`]: each time it expires the loop checks
//! the shutdown flag and the idle and frame deadlines. A peer that
//! stops reading blocks only its own thread, and is dropped at
//! [`WireConfig::write_timeout`].
//!
//! On top of the plain protocol a connection speaks the `Mux*`
//! envelopes: many logical sessions (channels) ride one TCP
//! connection, each with its own [`WireSession`], registry slot and
//! stats. Admission is graduated rather than binary: below the soft
//! cap opens are plainly accepted; above [`WireConfig::queue_sessions`]
//! they are admitted but counted queued; above
//! [`WireConfig::shed_sessions`] low-priority opens are refused with
//! [`ErrorCode::Shed`] (the connection survives); at
//! [`WireConfig::max_sessions`] everything is refused with
//! [`ErrorCode::Busy`].
//!
//! Replies whose payload is a [`ReplyBody::Shared`] segment are queued
//! as their own write segment: the `Arc` is cloned, never the bytes,
//! and the socket write gathers header and payload with
//! `write_vectored` — the zero-copy path a [`BundleStore`]-backed
//! delivery server takes for packed segments.
//!
//! [`BundleStore`]: ../../ipd_core/store/struct.BundleStore.html

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::envelope::{self, Envelope, VERSION};
use crate::error::{ErrorCode, WireError};
use crate::frame::frame_len;
use crate::server::{ReplyBody, SessionRegistry, WireConfig, WireService, WireSession};
use crate::stats::WireStats;

/// Where a new logical session lands in the graduated backpressure
/// ladder, judged against the number of currently active sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Below every threshold: plain accept.
    Accept,
    /// Above the soft cap: accept, but count as queued.
    Queue,
    /// Above the shed threshold: refuse low-priority opens with
    /// [`ErrorCode::Shed`]; normal-priority opens fall back to
    /// [`Admission::Queue`].
    Shed,
    /// At the hard cap: refuse with [`ErrorCode::Busy`].
    Refuse,
}

fn admission(config: &WireConfig, active: usize) -> Admission {
    if active >= config.max_sessions {
        Admission::Refuse
    } else if config.shed_sessions > 0 && active >= config.shed_sessions {
        Admission::Shed
    } else if config.queue_sessions > 0 && active >= config.queue_sessions {
        Admission::Queue
    } else {
        Admission::Accept
    }
}

/// One queued write segment: bytes built for this connection, or a
/// shared payload written without copying.
enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(a) => a,
        }
    }
}

/// A connection's pending output: a deque of segments drained with
/// vectored writes; `head_off` is the progress into the front segment.
#[derive(Default)]
struct OutQueue {
    segs: VecDeque<Seg>,
    head_off: usize,
}

/// How many segments one `write_vectored` call gathers.
const WRITEV_BATCH: usize = 16;

impl OutQueue {
    fn push(&mut self, seg: Seg) {
        if !seg.bytes().is_empty() {
            self.segs.push_back(seg);
        }
    }

    /// Writes the whole queue. An error — the write timeout expiring
    /// included — means the connection is dead.
    fn flush(&mut self, stream: &TcpStream) -> io::Result<()> {
        while !self.segs.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(WRITEV_BATCH);
            for (i, seg) in self.segs.iter().take(WRITEV_BATCH).enumerate() {
                let b = seg.bytes();
                slices.push(IoSlice::new(if i == 0 { &b[self.head_off..] } else { b }));
            }
            match (&mut &*stream).write_vectored(&slices) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let left = self.segs[0].bytes().len() - self.head_off;
            if n < left {
                self.head_off += n;
                return;
            }
            n -= left;
            self.segs.pop_front();
            self.head_off = 0;
        }
    }
}

/// One logical session riding a connection.
struct Channel {
    session: Box<dyn WireSession>,
    registry_id: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accepted; the hello frame has not arrived yet.
    AwaitHello,
    /// Handshake done; requests flow.
    Open,
    /// No longer reading; writes the reply queue, then closes.
    Closing,
}

/// The smallest input buffer a connection reads into; it grows to hold
/// a larger frame once that frame's header has arrived.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's full state.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Received bytes: `inbuf[..filled]` is what has not been handled
    /// yet. The rest is zeroed once, when the buffer grows, and reads
    /// land in it directly.
    inbuf: Vec<u8>,
    filled: usize,
    out: OutQueue,
    state: ConnState,
    send_cap: u32,
    /// Open logical sessions; the implicit hello session is channel 0.
    channels: HashMap<u32, Channel>,
}

impl Conn {
    /// Reads once into the input buffer, first making room for the rest
    /// of a frame whose header has arrived. `Ok(0)` is the peer's EOF.
    fn read(&mut self) -> io::Result<usize> {
        // `drain_frames` has refused any header over the frame cap and
        // handled every complete frame, so this fits and leaves room.
        let pending = match self.inbuf[..self.filled] {
            [a, b, c, d, ..] => 4 + u32::from_le_bytes([a, b, c, d]) as usize,
            _ => 0,
        };
        let want = pending.max(READ_CHUNK);
        if self.inbuf.len() < want {
            self.inbuf.resize(want, 0);
        }
        let n = (&self.stream).read(&mut self.inbuf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    fn push_envelope(&mut self, envelope: &Envelope) {
        let body = envelope.encode();
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        self.out.push(Seg::Owned(buf));
    }

    /// Queues a response whose payload stays in place: one owned
    /// segment for the frame length plus envelope header, then the
    /// payload as its own segment (an `Arc` clone when shared).
    fn push_response(&mut self, header: Vec<u8>, body: ReplyBody) {
        let total = header.len() + body.len();
        let mut head = Vec::with_capacity(4 + header.len());
        head.extend_from_slice(&(total as u32).to_le_bytes());
        head.extend_from_slice(&header);
        self.out.push(Seg::Owned(head));
        match body {
            ReplyBody::Owned(v) => self.out.push(Seg::Owned(v)),
            ReplyBody::Shared(a) => self.out.push(Seg::Shared(a)),
        }
    }

    /// Queues a connection-level error frame and stops reading.
    fn refuse(&mut self, code: ErrorCode, message: String) {
        self.push_envelope(&Envelope::Error {
            id: 0,
            code,
            message,
        });
        self.state = ConnState::Closing;
    }
}

/// What every connection of one server shares.
pub(crate) struct ConnCtx<'a> {
    pub(crate) service: &'a dyn WireService,
    pub(crate) config: &'a WireConfig,
    pub(crate) stats: &'a WireStats,
    pub(crate) registry: &'a SessionRegistry,
}

impl ConnCtx<'_> {
    /// Counts a malformed frame, reports it to the peer and closes the
    /// connection — the stream can no longer be trusted to be in sync.
    fn malformed(&self, conn: &mut Conn, error: &WireError) {
        self.stats.note_protocol_error();
        let (code, message) = error.as_frame();
        conn.refuse(code, message);
    }

    /// Admits one logical session through the backpressure ladder.
    /// `Ok` carries the registry id; `Err` carries the refusal frame's
    /// code and message.
    fn admit(&self, peer: SocketAddr, low_priority: bool) -> Result<u64, (ErrorCode, String)> {
        let tier = admission(self.config, self.registry.active_count());
        match tier {
            Admission::Refuse => {
                self.stats.note_session_refused();
                return Err((ErrorCode::Busy, "session cap reached".to_owned()));
            }
            Admission::Shed if low_priority => {
                self.stats.note_session_shed();
                return Err((
                    ErrorCode::Shed,
                    "low-priority session shed under load".to_owned(),
                ));
            }
            _ => {}
        }
        let Some(id) = self.registry.register(peer) else {
            // Lost a race to the hard cap.
            self.stats.note_session_refused();
            return Err((ErrorCode::Busy, "session cap reached".to_owned()));
        };
        self.stats.note_session_opened();
        if matches!(tier, Admission::Queue | Admission::Shed) {
            self.stats.note_session_queued();
        }
        Ok(id)
    }

    /// Admits a logical session and opens it on the service. `Ok`
    /// carries the registered channel's session id.
    fn open(
        &self,
        conn: &mut Conn,
        channel: u32,
        token: Option<&str>,
        low_priority: bool,
    ) -> Result<u64, (ErrorCode, String)> {
        let id = self.admit(conn.peer, low_priority)?;
        match self.service.open_session(conn.peer, token) {
            Ok(session) => {
                conn.channels.insert(
                    channel,
                    Channel {
                        session,
                        registry_id: id,
                    },
                );
                Ok(id)
            }
            Err(e) => {
                self.registry.unregister(id);
                self.stats.note_session_closed();
                Err(e.as_frame())
            }
        }
    }

    /// Runs one request through a channel's session, recording stats
    /// before any output is queued so server totals always cover what
    /// a client has observed. Returns whether the reply asked to end
    /// the session.
    fn dispatch(&self, conn: &mut Conn, channel: u32, id: u64, endpoint: u16, body: &[u8]) -> bool {
        let Some(chan) = conn.channels.get_mut(&channel) else {
            let frame = Envelope::MuxError {
                channel,
                id,
                code: ErrorCode::Protocol,
                message: format!("channel {channel} is not open"),
            };
            self.stats.note_protocol_error();
            conn.push_envelope(&frame);
            return false;
        };
        let bytes_in = body.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| chan.session.handle(endpoint, body)));
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(_) => Err(WireError::app("handler panicked")),
        };
        match outcome {
            Ok(reply) => {
                let (reply_body, end) = reply.into_parts();
                let bytes_out = reply_body.len() as u64;
                let header = if channel == 0 {
                    envelope::response_header(id, reply_body.len())
                } else {
                    envelope::mux_response_header(channel, id, reply_body.len())
                };
                if (header.len() + reply_body.len()) as u64 > u64::from(conn.send_cap) {
                    self.stats.record(endpoint, bytes_in, 0, false);
                    let message =
                        format!("response of {bytes_out} bytes exceeds the peer's frame cap");
                    conn.push_envelope(&error_frame(channel, id, ErrorCode::TooLarge, message));
                    false
                } else {
                    self.stats.record(endpoint, bytes_in, bytes_out, true);
                    conn.push_response(header, reply_body);
                    end
                }
            }
            Err(e) => {
                self.stats.record(endpoint, bytes_in, 0, false);
                let (code, message) = e.as_frame();
                conn.push_envelope(&error_frame(channel, id, code, message));
                false
            }
        }
    }

    fn close_channel(&self, conn: &mut Conn, channel: u32) {
        if let Some(chan) = conn.channels.remove(&channel) {
            self.registry.unregister(chan.registry_id);
            self.stats.note_session_closed();
        }
    }

    /// Handles one decoded envelope. Protocol violations close the
    /// connection; everything else queues output and keeps reading.
    fn handle(&self, conn: &mut Conn, envelope: Envelope) {
        match (conn.state, envelope) {
            (
                ConnState::AwaitHello,
                Envelope::Hello {
                    version,
                    max_frame,
                    token,
                },
            ) => {
                if version != VERSION {
                    let e = WireError::protocol(format!("unsupported protocol version {version}"));
                    self.malformed(conn, &e);
                    return;
                }
                conn.send_cap = max_frame.min(self.config.max_frame).max(256);
                match self.open(conn, 0, token.as_deref(), false) {
                    Ok(session) => {
                        conn.state = ConnState::Open;
                        conn.push_envelope(&Envelope::HelloAck {
                            session,
                            max_frame: self.config.max_frame,
                        });
                    }
                    Err((code, message)) => conn.refuse(code, message),
                }
            }
            (ConnState::Open, Envelope::Goodbye) => {
                conn.state = ConnState::Closing;
            }
            (ConnState::Open, Envelope::Request { id, endpoint, body }) => {
                if self.dispatch(conn, 0, id, endpoint, &body) {
                    conn.state = ConnState::Closing;
                }
            }
            (
                ConnState::Open,
                Envelope::MuxOpen {
                    channel,
                    token,
                    low_priority,
                },
            ) => {
                if channel == 0 || conn.channels.contains_key(&channel) {
                    self.stats.note_protocol_error();
                    conn.push_envelope(&Envelope::MuxError {
                        channel,
                        id: 0,
                        code: ErrorCode::Protocol,
                        message: format!("channel {channel} is reserved or already open"),
                    });
                    return;
                }
                let frame = match self.open(conn, channel, token.as_deref(), low_priority) {
                    Ok(session) => Envelope::MuxOpenAck { channel, session },
                    Err((code, message)) => Envelope::MuxError {
                        channel,
                        id: 0,
                        code,
                        message,
                    },
                };
                conn.push_envelope(&frame);
            }
            (
                ConnState::Open,
                Envelope::MuxRequest {
                    channel,
                    id,
                    endpoint,
                    body,
                },
            ) => {
                if channel == 0 {
                    let e = WireError::protocol("mux request on the hello channel");
                    self.malformed(conn, &e);
                    return;
                }
                if self.dispatch(conn, channel, id, endpoint, &body) {
                    // The handler ended this logical session: confirm
                    // to the peer, free the slot, keep the connection.
                    conn.push_envelope(&Envelope::MuxClose { channel });
                    self.close_channel(conn, channel);
                }
            }
            (ConnState::Open, Envelope::MuxClose { channel }) => {
                self.close_channel(conn, channel);
            }
            (_, _) => {
                let e = WireError::protocol("unexpected envelope kind mid-session");
                self.malformed(conn, &e);
            }
        }
    }
}

fn error_frame(channel: u32, id: u64, code: ErrorCode, message: String) -> Envelope {
    if channel == 0 {
        Envelope::Error { id, code, message }
    } else {
        Envelope::MuxError {
            channel,
            id,
            code,
            message,
        }
    }
}

/// Slices complete frames out of the input buffer and handles them, in
/// order. Returns whether at least one frame was handled; protocol
/// failures close the connection.
fn drain_frames(ctx: &ConnCtx<'_>, conn: &mut Conn) -> bool {
    let mut consumed = 0usize;
    while conn.state != ConnState::Closing {
        let Some(header) = conn.inbuf[consumed..conn.filled].first_chunk::<4>() else {
            break;
        };
        let len = match frame_len(*header, ctx.config.max_frame) {
            Ok(len) => len,
            Err(e) => {
                ctx.malformed(conn, &e);
                break;
            }
        };
        let end = consumed + 4 + len;
        if end > conn.filled {
            break;
        }
        match Envelope::decode(&conn.inbuf[consumed + 4..end]) {
            Ok(envelope) => ctx.handle(conn, envelope),
            Err(e) => ctx.malformed(conn, &e),
        }
        consumed = end;
    }
    conn.inbuf.copy_within(consumed..conn.filled, 0);
    conn.filled -= consumed;
    consumed > 0
}

/// Serves one accepted connection on the calling thread until the peer
/// hangs up or breaks the protocol, a deadline or the write timeout
/// expires, or `shutdown` turns true; then releases every logical
/// session the connection still holds.
pub(crate) fn serve(ctx: &ConnCtx<'_>, stream: TcpStream, peer: SocketAddr, shutdown: &AtomicBool) {
    let mut conn = Conn {
        stream,
        peer,
        inbuf: Vec::new(),
        filled: 0,
        out: OutQueue::default(),
        state: ConnState::AwaitHello,
        send_cap: ctx.config.max_frame,
        channels: HashMap::new(),
    };
    if configure(&conn.stream, ctx.config).is_ok() {
        run(ctx, &mut conn, shutdown);
    }
    for (_, chan) in conn.channels.drain() {
        ctx.registry.unregister(chan.registry_id);
        ctx.stats.note_session_closed();
    }
}

fn configure(stream: &TcpStream, config: &WireConfig) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.poll_interval.max(Duration::from_millis(1))))?;
    let write = Some(config.write_timeout).filter(|d| !d.is_zero());
    stream.set_write_timeout(write)
}

/// The read → handle → write loop of one connection.
fn run(ctx: &ConnCtx<'_>, conn: &mut Conn, shutdown: &AtomicBool) {
    // When the connection last finished a read's work, and when the
    // frame that is still incomplete began to arrive.
    let mut idle_since = Instant::now();
    let mut frame_since: Option<Instant> = None;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            conn.refuse(ErrorCode::Shutdown, "server shutting down".to_owned());
            let _ = conn.out.flush(&conn.stream);
            return;
        }
        match conn.read() {
            // The peer hung up: between frames a clean end, mid-frame
            // nothing more can arrive. Either way, no ceremony.
            Ok(0) => return,
            Ok(_) => {
                let handled = drain_frames(ctx, conn);
                if conn.out.flush(&conn.stream).is_err() || conn.state == ConnState::Closing {
                    return;
                }
                idle_since = Instant::now();
                frame_since = match (conn.filled, frame_since) {
                    (0, _) => None,
                    (_, Some(since)) if !handled => Some(since),
                    _ => Some(idle_since),
                };
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // An idle peer is closed quietly, a mid-frame stall
                // (trickle attack) likewise.
                let (limit, since) = match frame_since {
                    Some(since) => (ctx.config.frame_timeout, since),
                    None => (ctx.config.idle_timeout, idle_since),
                };
                if !limit.is_zero() && since.elapsed() >= limit {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_ladder_orders_the_tiers() {
        let config = WireConfig {
            max_sessions: 8,
            queue_sessions: 2,
            shed_sessions: 4,
            ..WireConfig::default()
        };
        assert_eq!(admission(&config, 0), Admission::Accept);
        assert_eq!(admission(&config, 1), Admission::Accept);
        assert_eq!(admission(&config, 2), Admission::Queue);
        assert_eq!(admission(&config, 3), Admission::Queue);
        assert_eq!(admission(&config, 4), Admission::Shed);
        assert_eq!(admission(&config, 7), Admission::Shed);
        assert_eq!(admission(&config, 8), Admission::Refuse);
        // Disabled tiers collapse to accept-or-refuse.
        let plain = WireConfig {
            max_sessions: 2,
            ..WireConfig::default()
        };
        assert_eq!(admission(&plain, 1), Admission::Accept);
        assert_eq!(admission(&plain, 2), Admission::Refuse);
    }

    #[test]
    fn out_queue_consumes_across_segments() {
        let pending =
            |q: &OutQueue| q.segs.iter().map(|s| s.bytes().len()).sum::<usize>() - q.head_off;
        let mut q = OutQueue::default();
        q.push(Seg::Owned(vec![1, 2, 3]));
        q.push(Seg::Shared(Arc::from(&[4u8, 5][..])));
        q.push(Seg::Owned(Vec::new())); // empty segments are dropped
        assert_eq!(q.segs.len(), 2);
        assert_eq!(pending(&q), 5);
        q.consume(2);
        assert_eq!(pending(&q), 3);
        assert_eq!(q.head_off, 2);
        q.consume(2); // crosses the segment boundary
        assert_eq!(pending(&q), 1);
        assert_eq!(q.head_off, 1);
        q.consume(1);
        assert!(q.segs.is_empty());
        assert_eq!(pending(&q), 0);
    }
}
