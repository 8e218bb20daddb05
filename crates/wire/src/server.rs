//! The concurrent multi-session wire server.
//!
//! A [`WireServer`] accepts connections and serves each on a thread of
//! its own, up to [`WireConfig::max_sessions`] connections at once;
//! past that, a new connection gets a [`ErrorCode::Busy`] error frame
//! at accept. Every connection runs the one session state machine of
//! the `evloop` module, which speaks the plain protocol and the `Mux*`
//! envelopes that carry many logical sessions over one connection.
//! Each logical session runs a [`WireSession`] opened by the
//! [`WireService`], live sessions are tracked in a
//! [`SessionRegistry`], traffic is counted in a shared [`WireStats`],
//! and shutdown is graceful: connections are interrupted at their next
//! poll and joined before [`ServerHandle::shutdown`] returns.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::envelope::Envelope;
use crate::error::{ErrorCode, WireError};
use crate::evloop::{self, ConnCtx};
use crate::frame::{write_frame, DEFAULT_MAX_FRAME};
use crate::stats::WireStats;

/// Transport tuning knobs shared by servers and clients.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Hard cap on received frame bodies (checked before allocation).
    pub max_frame: u32,
    /// Maximum concurrent logical sessions, and of connections: a
    /// session opened past it, or a connection accepted past it, is
    /// refused with a [`ErrorCode::Busy`] error frame.
    pub max_sessions: usize,
    /// How long a connection may sit idle between requests before it
    /// is closed (`Duration::ZERO` = forever).
    pub idle_timeout: Duration,
    /// How long a started frame may take to complete
    /// (`Duration::ZERO` = forever) — the trickle-attack bound.
    pub frame_timeout: Duration,
    /// Socket write timeout (`Duration::ZERO` = none). A peer that
    /// stops reading its replies is dropped when it expires.
    pub write_timeout: Duration,
    /// How often a connection blocked in `read` wakes to check the
    /// deadlines and shutdown.
    pub poll_interval: Duration,
    /// Soft session cap: above this many active logical sessions new
    /// opens are still admitted but counted as queued
    /// ([`WireStats::sessions_queued`]). `0` disables the tier.
    pub queue_sessions: usize,
    /// Shed threshold: above this many active logical sessions,
    /// *low-priority* channel opens are refused with
    /// [`ErrorCode::Shed`] (the connection survives). `0` disables the
    /// tier. [`WireConfig::max_sessions`] stays the hard refusal cap.
    pub shed_sessions: usize,
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
            queue_sessions: 0,
            shed_sessions: 0,
        }
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
    /// stays usable.
    ///
    /// # Errors
    ///
    /// Propagates accept failures; protocol failures inside the
    /// session are reported to the peer and end the session normally.
    pub fn serve_next(&self, service: &dyn WireService) -> Result<(), WireError> {
        let (stream, peer) = self.listener.accept()?;
        let ctx = ConnCtx {
            service,
            config: &self.config,
            stats: &self.stats,
            registry: &self.registry,
        };
        evloop::serve(&ctx, stream, peer, &AtomicBool::new(false));
        Ok(())
    }

    /// Starts serving on a background thread until
    /// [`ServerHandle::shutdown`]: it accepts connections and serves
    /// each on a thread of its own.
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
            std::thread::spawn(move || {
                accept_loop(&listener, &service, &config, &stats, &registry, &shutdown);
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
    while !shutdown.load(Ordering::SeqCst) {
        let Ok((stream, peer)) = listener.accept() else {
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the shutdown unblock connection
        }
        workers.retain(|w| !w.is_finished());
        if workers.len() >= config.max_sessions {
            // Every connection holds a thread, hello or not, so the
            // session cap bounds them too.
            stats.note_session_refused();
            refuse_busy(&stream);
            continue;
        }
        let service = Arc::clone(service);
        let config = config.clone();
        let stats = Arc::clone(stats);
        let registry = Arc::clone(registry);
        let shutdown = Arc::clone(shutdown);
        workers.push(std::thread::spawn(move || {
            let ctx = ConnCtx {
                service: &*service,
                config: &config,
                stats: &stats,
                registry: &registry,
            };
            evloop::serve(&ctx, stream, peer, &shutdown);
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Best-effort `Busy` refusal of a connection over the cap. The socket
/// is nonblocking, so the accept loop never waits on the peer.
fn refuse_busy(stream: &TcpStream) {
    let busy = Envelope::Error {
        id: 0,
        code: ErrorCode::Busy,
        message: "session cap reached".to_owned(),
    };
    if stream.set_nonblocking(true).is_ok() {
        let _ = write_frame(stream, &busy.encode(), DEFAULT_MAX_FRAME);
    }
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
        assert!(!config.idle_timeout.is_zero());
        assert!(!config.frame_timeout.is_zero());
    }
}
