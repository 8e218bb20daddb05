//! The concurrent multi-session wire server.
//!
//! A [`WireServer`] accepts any number of connections (up to a cap)
//! and serves them through one of two transports selected by
//! [`ServerMode`]: the classic thread-per-session protocol loop, or
//! the readiness-driven event loop of the `evloop` module that
//! multiplexes many logical sessions per connection. Either way each
//! logical session runs a [`WireSession`] opened by the
//! [`WireService`], live sessions are tracked in a
//! [`SessionRegistry`], traffic is counted in a shared [`WireStats`],
//! and shutdown is graceful: in-flight sessions are interrupted at the
//! next poll and joined before [`ServerHandle::shutdown`] returns.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::envelope::{self, Envelope, VERSION};
use crate::error::{ErrorCode, WireError};
use crate::evloop::run_event_loop;
use crate::frame::{
    read_frame_polled, write_frame, write_frame_parts, Deadlines, DEFAULT_MAX_FRAME,
};
use crate::stats::WireStats;

/// Which transport a [`WireServer`] runs its sessions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// One OS thread per connection (the original transport).
    #[default]
    Threaded,
    /// A single readiness-driven event loop over nonblocking sockets,
    /// multiplexing every connection — and every logical channel on
    /// each connection — on one thread.
    EventLoop,
}

impl ServerMode {
    /// The mode selected by the `IPD_WIRE_MODE` environment variable
    /// (`"evloop"` → [`ServerMode::EventLoop`], anything else →
    /// [`ServerMode::Threaded`]). This is how CI runs the whole test
    /// suite over both transports without code changes.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("IPD_WIRE_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("evloop") => ServerMode::EventLoop,
            _ => ServerMode::Threaded,
        }
    }
}

/// Transport tuning knobs shared by servers and clients.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Hard cap on received frame bodies (checked before allocation).
    pub max_frame: u32,
    /// Maximum concurrent sessions; excess connections are refused
    /// with a [`ErrorCode::Busy`] error frame.
    pub max_sessions: usize,
    /// How long a session may sit idle between requests before it is
    /// closed (`Duration::ZERO` = forever).
    pub idle_timeout: Duration,
    /// How long a started frame may take to complete
    /// (`Duration::ZERO` = forever) — the trickle-attack bound.
    pub frame_timeout: Duration,
    /// Socket write timeout (`Duration::ZERO` = none).
    pub write_timeout: Duration,
    /// How often blocked reads wake to check deadlines and shutdown.
    pub poll_interval: Duration,
    /// Which transport serves the sessions. Defaults to
    /// [`ServerMode::from_env`].
    pub mode: ServerMode,
    /// Soft session cap: above this many active logical sessions new
    /// opens are still admitted but counted as queued
    /// ([`WireStats::sessions_queued`]). `0` disables the tier.
    pub queue_sessions: usize,
    /// Shed threshold: above this many active logical sessions,
    /// *low-priority* channel opens are refused with
    /// [`ErrorCode::Shed`] (the connection survives). `0` disables the
    /// tier. [`WireConfig::max_sessions`] stays the hard refusal cap.
    pub shed_sessions: usize,
    /// Per-connection cap on queued unsent response bytes in the event
    /// loop. A connection whose peer stops reading is not read from
    /// again until its backlog drains below this, so one slow reader
    /// cannot pin the loop's memory or stall other connections.
    pub max_backlog: usize,
    /// Event-loop sleep when no socket made progress in a pass.
    pub evloop_tick: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            mode: ServerMode::from_env(),
            queue_sessions: 0,
            shed_sessions: 0,
            max_backlog: 4 << 20,
            evloop_tick: Duration::from_micros(500),
        }
    }
}

impl WireConfig {
    fn deadlines(&self) -> Deadlines {
        let opt = |d: Duration| if d.is_zero() { None } else { Some(d) };
        Deadlines {
            idle: opt(self.idle_timeout),
            frame: opt(self.frame_timeout),
        }
    }

    fn apply_to(&self, stream: &TcpStream) -> Result<(), WireError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.poll_interval.max(Duration::from_millis(1))))?;
        let write = if self.write_timeout.is_zero() {
            None
        } else {
            Some(self.write_timeout)
        };
        stream.set_write_timeout(write)?;
        Ok(())
    }
}

/// A reply payload: owned bytes built for this response, or a shared
/// reference-counted segment (e.g. a packed bundle from a store) that
/// travels to the socket without ever being copied.
#[derive(Debug, Clone)]
pub enum ReplyBody {
    /// Bytes built for this one response.
    Owned(Vec<u8>),
    /// A shared segment, written zero-copy as its own vectored-write
    /// slice.
    Shared(Arc<[u8]>),
}

impl ReplyBody {
    /// The payload bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        match self {
            ReplyBody::Owned(v) => v,
            ReplyBody::Shared(a) => a,
        }
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// The payload as owned bytes (copies only the shared variant).
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            ReplyBody::Owned(v) => v,
            ReplyBody::Shared(a) => a.to_vec(),
        }
    }
}

/// A successful reply from a session handler.
#[derive(Debug)]
pub struct Reply {
    body: ReplyBody,
    end_session: bool,
}

impl Reply {
    /// A normal reply; the session continues.
    #[must_use]
    pub fn body(body: Vec<u8>) -> Self {
        Reply {
            body: ReplyBody::Owned(body),
            end_session: false,
        }
    }

    /// A normal reply whose payload is a shared segment, served
    /// zero-copy.
    #[must_use]
    pub fn shared(body: Arc<[u8]>) -> Self {
        Reply {
            body: ReplyBody::Shared(body),
            end_session: false,
        }
    }

    /// A final reply; the session closes after it is sent.
    #[must_use]
    pub fn end(body: Vec<u8>) -> Self {
        Reply {
            body: ReplyBody::Owned(body),
            end_session: true,
        }
    }

    /// The reply payload.
    #[must_use]
    pub fn payload(&self) -> &ReplyBody {
        &self.body
    }

    /// Whether the session closes after this reply is sent.
    #[must_use]
    pub fn ends_session(&self) -> bool {
        self.end_session
    }

    pub(crate) fn into_parts(self) -> (ReplyBody, bool) {
        (self.body, self.end_session)
    }
}

/// Per-connection request handler state.
pub trait WireSession: Send {
    /// Handles one request payload for an endpoint.
    ///
    /// # Errors
    ///
    /// Errors are sent to the peer as typed error frames (via
    /// [`WireError::as_frame`]); the session survives them.
    fn handle(&mut self, endpoint: u16, body: &[u8]) -> Result<Reply, WireError>;
}

/// A connection-scoped service: opens one [`WireSession`] per
/// accepted connection.
pub trait WireService: Send + Sync {
    /// Opens a session for a newly accepted connection. The `token` is
    /// the authentication token from the client's hello frame.
    ///
    /// # Errors
    ///
    /// An error refuses the connection with a typed error frame.
    fn open_session(
        &self,
        peer: SocketAddr,
        token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError>;

    /// Display name for an endpoint id (stats reports).
    fn endpoint_name(&self, endpoint: u16) -> String {
        format!("endpoint-{endpoint:#06x}")
    }
}

/// One live session's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Server-assigned session id.
    pub id: u64,
    /// The peer's socket address.
    pub peer: SocketAddr,
}

/// The live-session table: who is connected, under a connection cap.
#[derive(Debug)]
pub struct SessionRegistry {
    next: AtomicU64,
    served: AtomicU64,
    max_sessions: usize,
    active: Mutex<HashMap<u64, SessionInfo>>,
}

impl SessionRegistry {
    fn new(max_sessions: usize) -> Self {
        SessionRegistry {
            next: AtomicU64::new(1),
            served: AtomicU64::new(0),
            max_sessions: max_sessions.max(1),
            active: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a new session, or `None` at the connection cap.
    pub(crate) fn register(&self, peer: SocketAddr) -> Option<u64> {
        let mut active = self.active.lock().expect("registry lock");
        if active.len() >= self.max_sessions {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        active.insert(id, SessionInfo { id, peer });
        Some(id)
    }

    pub(crate) fn unregister(&self, id: u64) {
        if self
            .active
            .lock()
            .expect("registry lock")
            .remove(&id)
            .is_some()
        {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Currently connected sessions, sorted by id.
    #[must_use]
    pub fn active(&self) -> Vec<SessionInfo> {
        let mut rows: Vec<SessionInfo> = self
            .active
            .lock()
            .expect("registry lock")
            .values()
            .copied()
            .collect();
        rows.sort_unstable_by_key(|s| s.id);
        rows
    }

    /// Number of currently connected sessions.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.lock().expect("registry lock").len()
    }

    /// Sessions that have connected and finished.
    #[must_use]
    pub fn sessions_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

/// A bound, not-yet-started wire server.
#[derive(Debug)]
pub struct WireServer {
    listener: TcpListener,
    addr: SocketAddr,
    config: WireConfig,
    stats: Arc<WireStats>,
    registry: Arc<SessionRegistry>,
}

impl WireServer {
    /// Binds on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: WireConfig) -> Result<Self, WireError> {
        Self::bind_addr("127.0.0.1:0", config)
    }

    /// Binds on an explicit address.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_addr(addr: &str, config: WireConfig) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(SessionRegistry::new(config.max_sessions));
        Ok(WireServer {
            listener,
            addr,
            config,
            stats: Arc::new(WireStats::new()),
            registry,
        })
    }

    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared traffic counters.
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }

    /// The live-session table.
    #[must_use]
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Accepts and serves exactly one connection on the current
    /// thread, then returns; the server (address, stats, registry)
    /// stays usable. This is the single-shot path legacy callers
    /// build on.
    ///
    /// # Errors
    ///
    /// Propagates accept failures; protocol failures inside the
    /// session are reported to the peer and end the session normally.
    pub fn serve_next(&self, service: &dyn WireService) -> Result<(), WireError> {
        let (stream, peer) = self.listener.accept()?;
        let Some(id) = self.registry.register(peer) else {
            self.stats.note_session_refused();
            refuse(&stream, &self.config);
            return Err(WireError::Remote {
                code: ErrorCode::Busy,
                message: "session cap reached".to_owned(),
            });
        };
        self.stats.note_session_opened();
        let outcome = serve_connection(
            &stream,
            peer,
            id,
            service,
            &self.config,
            &self.stats,
            &|| false,
        );
        self.registry.unregister(id);
        self.stats.note_session_closed();
        outcome
    }

    /// Starts serving on a background thread until
    /// [`ServerHandle::shutdown`]: the thread-per-session accept loop
    /// under [`ServerMode::Threaded`], or the readiness-driven event
    /// loop under [`ServerMode::EventLoop`].
    #[must_use]
    pub fn start(self, service: Arc<dyn WireService>) -> ServerHandle {
        let WireServer {
            listener,
            addr,
            config,
            stats,
            registry,
        } = self;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            let config = config.clone();
            std::thread::spawn(move || match config.mode {
                ServerMode::Threaded => {
                    accept_loop(&listener, &service, &config, &stats, &registry, &shutdown);
                }
                ServerMode::EventLoop => {
                    run_event_loop(&listener, &service, &config, &stats, &registry, &shutdown);
                }
            })
        };
        ServerHandle {
            addr,
            stats,
            registry,
            shutdown,
            accept: Some(accept),
        }
    }
}

/// Control handle for a running server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stats: Arc<WireStats>,
    registry: Arc<SessionRegistry>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared traffic counters.
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }

    /// The live-session table.
    #[must_use]
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Currently connected sessions.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.registry.active_count()
    }

    /// Stops accepting, interrupts every live session at its next
    /// poll, and joins all session threads.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for join
    /// diagnostics.
    pub fn shutdown(mut self) -> Result<(), WireError> {
        self.request_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        Ok(())
    }

    fn request_stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.request_stop();
            let _ = accept.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<dyn WireService>,
    config: &WireConfig,
    stats: &Arc<WireStats>,
    registry: &Arc<SessionRegistry>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the shutdown unblock connection
        }
        workers.retain(|w| !w.is_finished());
        let Some(id) = registry.register(peer) else {
            stats.note_session_refused();
            refuse(&stream, config);
            continue;
        };
        stats.note_session_opened();
        let service = Arc::clone(service);
        let config = config.clone();
        let stats = Arc::clone(stats);
        let registry = Arc::clone(registry);
        let shutdown = Arc::clone(shutdown);
        workers.push(std::thread::spawn(move || {
            let _ = serve_connection(&stream, peer, id, &*service, &config, &stats, &|| {
                shutdown.load(Ordering::SeqCst)
            });
            registry.unregister(id);
            stats.note_session_closed();
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Best-effort busy rejection for connections over the cap.
fn refuse(stream: &TcpStream, config: &WireConfig) {
    let _ = config.apply_to(stream);
    let _ = send_envelope(
        stream,
        &Envelope::Error {
            id: 0,
            code: ErrorCode::Busy,
            message: "session cap reached".to_owned(),
        },
        config.max_frame,
    );
}

fn send_envelope(stream: &TcpStream, envelope: &Envelope, cap: u32) -> Result<(), WireError> {
    write_frame(stream, &envelope.encode(), cap)
}

/// Runs the handshake and request loop for one connection.
fn serve_connection(
    stream: &TcpStream,
    peer: SocketAddr,
    session_id: u64,
    service: &dyn WireService,
    config: &WireConfig,
    stats: &WireStats,
    should_stop: &dyn Fn() -> bool,
) -> Result<(), WireError> {
    config.apply_to(stream)?;
    let deadlines = config.deadlines();

    // ---- handshake -------------------------------------------------
    let hello = match read_frame_polled(stream, config.max_frame, &deadlines, should_stop) {
        Ok(Some(body)) => body,
        Ok(None) | Err(WireError::Io(_)) => return Ok(()),
        Err(e) => {
            note_malformed(stream, stats, config, &e);
            return Ok(());
        }
    };
    let (token, client_cap) = match Envelope::decode(&hello) {
        Ok(Envelope::Hello {
            version,
            max_frame,
            token,
        }) if version == VERSION => (token, max_frame),
        Ok(Envelope::Hello { version, .. }) => {
            let e = WireError::protocol(format!("unsupported protocol version {version}"));
            note_malformed(stream, stats, config, &e);
            return Ok(());
        }
        Ok(_) => {
            let e = WireError::protocol("expected hello envelope");
            note_malformed(stream, stats, config, &e);
            return Ok(());
        }
        Err(e) => {
            note_malformed(stream, stats, config, &e);
            return Ok(());
        }
    };
    // Never send the peer more than it declared it accepts.
    let send_cap = client_cap.min(config.max_frame).max(256);
    let mut session = match service.open_session(peer, token.as_deref()) {
        Ok(session) => session,
        Err(e) => {
            let (code, message) = e.as_frame();
            let _ = send_envelope(
                stream,
                &Envelope::Error {
                    id: 0,
                    code,
                    message,
                },
                send_cap,
            );
            return Ok(());
        }
    };
    send_envelope(
        stream,
        &Envelope::HelloAck {
            session: session_id,
            max_frame: config.max_frame,
        },
        send_cap,
    )?;

    // ---- request loop ----------------------------------------------
    loop {
        let body = match read_frame_polled(stream, config.max_frame, &deadlines, should_stop) {
            Ok(Some(body)) => body,
            Ok(None) | Err(WireError::Io(_)) => return Ok(()),
            Err(WireError::Shutdown) => {
                let _ = send_envelope(
                    stream,
                    &Envelope::Error {
                        id: 0,
                        code: ErrorCode::Shutdown,
                        message: "server shutting down".to_owned(),
                    },
                    send_cap,
                );
                return Ok(());
            }
            Err(WireError::Deadline { .. }) => return Ok(()), // idle peer
            Err(e) => {
                // Oversized or garbled framing: the stream can no
                // longer be trusted to be in sync — report and close.
                note_malformed(stream, stats, config, &e);
                return Ok(());
            }
        };
        let envelope = match Envelope::decode(&body) {
            Ok(envelope) => envelope,
            Err(e) => {
                note_malformed(stream, stats, config, &e);
                return Ok(());
            }
        };
        match envelope {
            Envelope::Goodbye => return Ok(()),
            Envelope::Request { id, endpoint, body } => {
                let bytes_in = body.len() as u64;
                match session.handle(endpoint, &body) {
                    Ok(reply) => {
                        let (reply_body, end) = reply.into_parts();
                        let bytes_out = reply_body.len() as u64;
                        let header = envelope::response_header(id, reply_body.len());
                        if (header.len() + reply_body.len()) as u64 > u64::from(send_cap) {
                            stats.record(endpoint, bytes_in, 0, false);
                            send_envelope(
                                stream,
                                &Envelope::Error {
                                    id,
                                    code: ErrorCode::TooLarge,
                                    message: format!(
                                        "response of {bytes_out} bytes exceeds the peer's frame cap"
                                    ),
                                },
                                send_cap,
                            )?;
                        } else {
                            // Record before the write: any response a
                            // client has observed is then guaranteed to
                            // already be in the server totals, so the
                            // two sides reconcile exactly at any
                            // moment. Shared payloads go out as their
                            // own vectored-write slice, uncopied.
                            stats.record(endpoint, bytes_in, bytes_out, true);
                            write_frame_parts(stream, &[&header, reply_body.bytes()], send_cap)?;
                            if end {
                                return Ok(());
                            }
                        }
                    }
                    Err(e) => {
                        stats.record(endpoint, bytes_in, 0, false);
                        let (code, message) = e.as_frame();
                        send_envelope(stream, &Envelope::Error { id, code, message }, send_cap)?;
                    }
                }
            }
            _ => {
                let e = WireError::protocol("unexpected envelope kind mid-session");
                note_malformed(stream, stats, config, &e);
                return Ok(());
            }
        }
    }
}

/// Counts a malformed frame and reports it to the peer (best effort).
fn note_malformed(stream: &TcpStream, stats: &WireStats, config: &WireConfig, error: &WireError) {
    stats.note_protocol_error();
    let (code, message) = error.as_frame();
    let _ = send_envelope(
        stream,
        &Envelope::Error {
            id: 0,
            code,
            message,
        },
        config.max_frame,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enforces_the_cap() {
        let registry = SessionRegistry::new(2);
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let a = registry.register(peer).unwrap();
        let _b = registry.register(peer).unwrap();
        assert!(registry.register(peer).is_none(), "cap of 2");
        assert_eq!(registry.active_count(), 2);
        registry.unregister(a);
        assert_eq!(registry.active_count(), 1);
        assert_eq!(registry.sessions_served(), 1);
        assert!(registry.register(peer).is_some(), "slot freed");
        // Double-unregister is harmless and not double-counted.
        registry.unregister(a);
        assert_eq!(registry.sessions_served(), 1);
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = WireConfig::default();
        assert_eq!(config.max_frame, DEFAULT_MAX_FRAME);
        assert!(config.max_sessions >= 16);
        let deadlines = config.deadlines();
        assert!(deadlines.idle.is_some());
        assert!(deadlines.frame.is_some());
    }
}
