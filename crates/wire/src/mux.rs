//! The multiplexing client: many logical sessions over one socket.
//!
//! A [`MuxClient`] speaks the `Mux*` envelopes to a
//! [`WireServer`](crate::WireServer): it opens logical channels (each
//! backed by its own server-side [`WireSession`](crate::WireSession)
//! and registry slot), then issues requests on any of them over the
//! single TCP connection. Because the server handles a connection's frames in
//! order and queues replies in order, answers arrive in exactly the
//! order the questions were sent — so the client keeps one FIFO of
//! outstanding expectations and never needs per-request bookkeeping.
//!
//! That ordering is also the batching lever: [`MuxClient::call_batch`]
//! and [`MuxClient::open_many`] write every request of a batch as one
//! gathered buffer (one syscall), then collect the answers — the
//! pipelining that lets a single connection carry thousands of logical
//! sessions at throughput a one-session-per-socket client cannot reach.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::client::ClientConfig;
use crate::envelope::{Envelope, VERSION};
use crate::error::WireError;
use crate::frame::{read_frame_deadline, write_frame, DEFAULT_MAX_FRAME};
use crate::stats::WireStats;

/// What the client is waiting for, in send order.
#[derive(Debug)]
enum Expect {
    Open {
        channel: u32,
    },
    Call {
        channel: u32,
        id: u64,
        endpoint: u16,
        bytes_in: u64,
    },
}

/// One answer pulled off the wire.
#[derive(Debug)]
enum Answer {
    Opened { channel: u32 },
    OpenFailed { error: WireError },
    Response { result: Result<Vec<u8>, WireError> },
}

/// A client driving many logical sessions over one connection.
#[derive(Debug)]
pub struct MuxClient {
    stream: TcpStream,
    session: u64,
    recv_cap: u32,
    send_cap: u32,
    read_timeout: Option<Duration>,
    next_id: u64,
    next_channel: u32,
    pending: VecDeque<Expect>,
    stats: Arc<WireStats>,
    closed: bool,
}

impl MuxClient {
    /// Connects and performs the hello handshake. The config token
    /// authenticates the connection's implicit channel-0 session;
    /// each opened channel carries its own token.
    ///
    /// # Errors
    ///
    /// Fails on connection refusal, handshake protocol violations, or
    /// a typed refusal.
    pub fn connect(addr: SocketAddr, config: &ClientConfig) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let opt = |d: Duration| if d.is_zero() { None } else { Some(d) };
        let read_timeout = opt(config.read_timeout);
        stream.set_write_timeout(opt(config.write_timeout))?;
        let recv_cap = if config.max_frame == 0 {
            DEFAULT_MAX_FRAME
        } else {
            config.max_frame
        };
        let hello = Envelope::Hello {
            version: VERSION,
            max_frame: recv_cap,
            token: config.token.clone(),
        };
        write_frame(&stream, &hello.encode(), recv_cap)?;
        let ack = read_frame_deadline(&stream, recv_cap, read_timeout)?;
        let (session, server_cap) = match Envelope::decode(&ack)? {
            Envelope::HelloAck { session, max_frame } => (session, max_frame),
            Envelope::Error { code, message, .. } => {
                return Err(WireError::Remote { code, message })
            }
            _ => return Err(WireError::protocol("expected hello-ack envelope")),
        };
        Ok(MuxClient {
            stream,
            session,
            recv_cap,
            send_cap: server_cap.min(recv_cap).max(256),
            read_timeout,
            next_id: 1,
            next_channel: 1,
            pending: VecDeque::new(),
            stats: Arc::new(WireStats::new()),
            closed: false,
        })
    }

    /// The server-assigned id of the connection's implicit session.
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// This client's traffic counters, symmetric with the server's.
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }

    /// Opens one logical channel (one round trip).
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] with [`crate::ErrorCode::Busy`] at the
    /// hard cap or [`crate::ErrorCode::Shed`] when a low-priority open
    /// is load-shed — both leave the connection usable. Transport
    /// failures close it.
    pub fn open(&mut self, token: Option<&str>, low_priority: bool) -> Result<u32, WireError> {
        let mut opened = self.open_many(1, token, low_priority)?;
        opened.remove(0)
    }

    /// Opens `count` channels pipelined: every `MuxOpen` goes out in
    /// one gathered write, then the acks are collected in order. Each
    /// element is the channel id or the per-channel refusal (a shed or
    /// busy open fails alone; the others still open).
    ///
    /// # Errors
    ///
    /// A transport-level failure (not a typed per-open refusal).
    pub fn open_many(
        &mut self,
        count: usize,
        token: Option<&str>,
        low_priority: bool,
    ) -> Result<Vec<Result<u32, WireError>>, WireError> {
        self.check_usable()?;
        let mut batch = Vec::new();
        for _ in 0..count {
            let channel = self.next_channel;
            self.next_channel += 1;
            let open = Envelope::MuxOpen {
                channel,
                token: token.map(str::to_owned),
                low_priority,
            };
            append_frame(&mut batch, &open, self.send_cap)?;
            self.pending.push_back(Expect::Open { channel });
        }
        self.send_batch(&batch)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(match self.recv_answer()? {
                Answer::Opened { channel } => Ok(channel),
                Answer::OpenFailed { error } => Err(error),
                Answer::Response { .. } => {
                    self.closed = true;
                    return Err(WireError::protocol("response while awaiting open ack"));
                }
            });
        }
        Ok(out)
    }

    /// Issues one request on a channel and waits for its response.
    ///
    /// # Errors
    ///
    /// Typed remote errors leave the channel usable; transport and
    /// protocol failures close the connection.
    pub fn call(&mut self, channel: u32, endpoint: u16, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut answers = self.call_batch(&[(channel, endpoint, body.to_vec())])?;
        answers.remove(0)
    }

    /// Issues a batch of `(channel, endpoint, body)` requests as one
    /// gathered write, then collects every response in order. Typed
    /// per-request errors come back in their slot; the batch itself
    /// only fails on transport or protocol breakage.
    ///
    /// # Errors
    ///
    /// A transport-level failure (not a typed per-request error).
    pub fn call_batch(
        &mut self,
        calls: &[(u32, u16, Vec<u8>)],
    ) -> Result<Vec<Result<Vec<u8>, WireError>>, WireError> {
        self.check_usable()?;
        let mut batch = Vec::new();
        for (channel, endpoint, body) in calls {
            let id = self.next_id;
            self.next_id += 1;
            let request = Envelope::MuxRequest {
                channel: *channel,
                id,
                endpoint: *endpoint,
                body: body.clone(),
            };
            append_frame(&mut batch, &request, self.send_cap)?;
            self.pending.push_back(Expect::Call {
                channel: *channel,
                id,
                endpoint: *endpoint,
                bytes_in: body.len() as u64,
            });
        }
        self.send_batch(&batch)?;
        let mut out = Vec::with_capacity(calls.len());
        for _ in 0..calls.len() {
            out.push(match self.recv_answer()? {
                Answer::Response { result } => result,
                Answer::Opened { .. } | Answer::OpenFailed { .. } => {
                    self.closed = true;
                    return Err(WireError::protocol("open ack while awaiting response"));
                }
            });
        }
        Ok(out)
    }

    /// Closes one logical channel (fire and forget; the server frees
    /// its slot on receipt).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn close_channel(&mut self, channel: u32) -> Result<(), WireError> {
        self.check_usable()?;
        write_frame(
            &self.stream,
            &Envelope::MuxClose { channel }.encode(),
            self.send_cap,
        )
        .inspect_err(|_| self.closed = true)
    }

    /// Sends a polite goodbye and closes the connection (and every
    /// channel on it). Idempotent; also invoked on drop (best effort).
    pub fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            let _ = write_frame(&self.stream, &Envelope::Goodbye.encode(), self.send_cap);
        }
    }

    fn check_usable(&self) -> Result<(), WireError> {
        if self.closed {
            return Err(WireError::protocol("connection already closed"));
        }
        Ok(())
    }

    fn send_batch(&mut self, batch: &[u8]) -> Result<(), WireError> {
        use std::io::Write as _;
        (&mut &self.stream).write_all(batch).map_err(|e| {
            self.closed = true;
            WireError::Io(e)
        })
    }

    /// Reads frames until one answers the front expectation.
    fn recv_answer(&mut self) -> Result<Answer, WireError> {
        loop {
            let frame = read_frame_deadline(&self.stream, self.recv_cap, self.read_timeout)
                .inspect_err(|_| self.closed = true)?;
            let envelope = Envelope::decode(&frame).inspect_err(|_| self.closed = true)?;
            match envelope {
                Envelope::MuxOpenAck { channel, .. } => match self.pending.pop_front() {
                    Some(Expect::Open { channel: want }) if want == channel => {
                        return Ok(Answer::Opened { channel });
                    }
                    _ => return self.desync("unexpected open ack"),
                },
                Envelope::MuxResponse { channel, id, body } => match self.pending.pop_front() {
                    Some(Expect::Call {
                        channel: want_chan,
                        id: want_id,
                        endpoint,
                        bytes_in,
                    }) if want_chan == channel && want_id == id => {
                        self.stats
                            .record(endpoint, bytes_in, body.len() as u64, true);
                        return Ok(Answer::Response { result: Ok(body) });
                    }
                    _ => return self.desync("unexpected response"),
                },
                Envelope::MuxError {
                    channel,
                    id,
                    code,
                    message,
                } => match self.pending.front() {
                    Some(Expect::Open { channel: want }) if *want == channel && id == 0 => {
                        self.pending.pop_front();
                        return Ok(Answer::OpenFailed {
                            error: WireError::Remote { code, message },
                        });
                    }
                    Some(Expect::Call {
                        channel: want_chan,
                        id: want_id,
                        ..
                    }) if *want_chan == channel && *want_id == id => {
                        let Some(Expect::Call {
                            endpoint, bytes_in, ..
                        }) = self.pending.pop_front()
                        else {
                            unreachable!("front was a call expectation");
                        };
                        self.stats.record(endpoint, bytes_in, 0, false);
                        return Ok(Answer::Response {
                            result: Err(WireError::Remote { code, message }),
                        });
                    }
                    _ => return self.desync("unmatched channel error"),
                },
                // The server ended a logical session after a final
                // reply; informational here.
                Envelope::MuxClose { .. } => {}
                Envelope::Error {
                    id: 0,
                    code,
                    message,
                } => {
                    // Connection-level failure (shutdown, refusal).
                    self.closed = true;
                    return Err(WireError::Remote { code, message });
                }
                _ => return self.desync("unexpected envelope kind"),
            }
        }
    }

    fn desync(&mut self, what: &str) -> Result<Answer, WireError> {
        self.closed = true;
        Err(WireError::protocol(format!(
            "{what}: request/response pipeline out of sync"
        )))
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.close();
    }
}

fn append_frame(batch: &mut Vec<u8>, envelope: &Envelope, cap: u32) -> Result<(), WireError> {
    let body = envelope.encode();
    if body.len() > cap as usize {
        return Err(WireError::protocol(format!(
            "refusing to send {}-byte frame over the {cap}-byte cap",
            body.len()
        )));
    }
    batch.extend_from_slice(&(body.len() as u32).to_le_bytes());
    batch.extend_from_slice(&body);
    Ok(())
}
