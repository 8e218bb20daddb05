//! Transports and the black-box client.
//!
//! A [`BlackBoxClient`] speaks the co-simulation protocol over a
//! [`Transport`]. Three transports cover the paper's design space:
//!
//! - [`TcpTransport`] — a real socket to a black-box applet server
//!   (the paper's Figure 4).
//! - [`InProcTransport`] — the protocol run in-process (zero network),
//!   for tests and for measuring pure protocol overhead.
//! - [`LatencyTransport`] — wraps any transport and injects a
//!   configurable round-trip time, modelling the WAN that the
//!   Web-CAD [2] and JavaCAD [1] remote-simulation architectures pay
//!   *per event* — the cost the applet approach avoids.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ipd_hdl::{LogicColumn, LogicVec, PortDir};
use ipd_wire::{ClientConfig, ErrorCode, WireClient, WireError, WireStats};

use crate::error::CosimError;
use crate::model::{pack_batch, unpack_batch, SimModel};
use crate::protocol::Message;
use crate::server::handle;

/// A request/response channel carrying protocol messages.
pub trait Transport {
    /// Sends a request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    fn request(&mut self, message: &Message) -> Result<Message, CosimError>;

    /// Number of round trips performed so far.
    fn round_trips(&self) -> u64;
}

/// A real wire session to a [`BlackBoxServer`](crate::BlackBoxServer):
/// framed transport, handshake, typed error frames, per-endpoint
/// stats — all from `ipd-wire`.
#[derive(Debug)]
pub struct TcpTransport {
    wire: WireClient,
}

impl TcpTransport {
    /// Connects to a server address with default wire settings.
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake failures (including a
    /// typed `Busy` refusal at the server's session cap).
    pub fn connect(addr: SocketAddr) -> Result<Self, CosimError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit wire settings (frame cap, timeouts,
    /// auth token).
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake failures.
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> Result<Self, CosimError> {
        Ok(TcpTransport {
            wire: WireClient::connect(addr, config)?,
        })
    }

    /// This session's client-side traffic counters (mirror of the
    /// server's per-session view).
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        self.wire.stats()
    }

    /// The server-assigned session id.
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.wire.session_id()
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, message: &Message) -> Result<Message, CosimError> {
        match self.wire.call(message.wire_endpoint(), &message.encode()) {
            Ok(body) => Message::decode(&body),
            // Typed app error frames are the wire form of
            // `Message::Error`; hand them back as the response message
            // so callers keep their error mapping.
            Err(WireError::Remote {
                code: ErrorCode::App,
                message,
            }) => Ok(Message::Error { message }),
            Err(e) => Err(e.into()),
        }
    }

    fn round_trips(&self) -> u64 {
        self.wire.stats().totals().requests
    }
}

/// The protocol served in-process against a local model: encode,
/// decode, handle — everything but the wire.
pub struct InProcTransport<M: SimModel> {
    model: M,
    round_trips: u64,
}

impl<M: SimModel> std::fmt::Debug for InProcTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport")
            .field("round_trips", &self.round_trips)
            .finish()
    }
}

impl<M: SimModel> InProcTransport<M> {
    /// Wraps a local model.
    #[must_use]
    pub fn new(model: M) -> Self {
        InProcTransport {
            model,
            round_trips: 0,
        }
    }
}

impl<M: SimModel> Transport for InProcTransport<M> {
    fn request(&mut self, message: &Message) -> Result<Message, CosimError> {
        // Encode and decode for fidelity with the wire protocol.
        let bytes = message.encode();
        let decoded = Message::decode(&bytes)?;
        self.round_trips += 1;
        let response = handle(&mut self.model, &decoded);
        Message::decode(&response.encode())
    }

    fn round_trips(&self) -> u64 {
        self.round_trips
    }
}

/// Injects a fixed round-trip delay on every request — the WAN model
/// for the remote-simulation baselines.
#[derive(Debug)]
pub struct LatencyTransport<T: Transport> {
    inner: T,
    rtt: Duration,
}

impl<T: Transport> LatencyTransport<T> {
    /// Wraps a transport with a per-request round-trip time.
    #[must_use]
    pub fn new(inner: T, rtt: Duration) -> Self {
        LatencyTransport { inner, rtt }
    }

    /// The injected round-trip time.
    #[must_use]
    pub fn rtt(&self) -> Duration {
        self.rtt
    }
}

impl<T: Transport> Transport for LatencyTransport<T> {
    fn request(&mut self, message: &Message) -> Result<Message, CosimError> {
        if !self.rtt.is_zero() {
            std::thread::sleep(self.rtt);
        }
        self.inner.request(message)
    }

    fn round_trips(&self) -> u64 {
        self.inner.round_trips()
    }
}

/// A client driving a remote (or wrapped) black-box model. Implements
/// [`SimModel`], so a [`SystemSimulator`](crate::SystemSimulator) can
/// mix remote applets with local circuits.
#[derive(Debug)]
pub struct BlackBoxClient<T: Transport> {
    transport: T,
}

impl BlackBoxClient<TcpTransport> {
    /// Connects to a black-box applet server over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> Result<Self, CosimError> {
        Ok(BlackBoxClient {
            transport: TcpTransport::connect(addr)?,
        })
    }
}

impl<T: Transport> BlackBoxClient<T> {
    /// A client over an arbitrary transport.
    #[must_use]
    pub fn over(transport: T) -> Self {
        BlackBoxClient { transport }
    }

    /// Round trips performed so far (the remote-simulation cost
    /// driver).
    #[must_use]
    pub fn round_trips(&self) -> u64 {
        self.transport.round_trips()
    }

    /// The underlying transport (e.g. to read a [`TcpTransport`]'s
    /// wire counters).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Ends the session politely.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn close(&mut self) -> Result<(), CosimError> {
        self.transport.request(&Message::Bye)?;
        Ok(())
    }

    /// Sends a [`Message::BatchRun`] and returns the result's columns.
    fn batch(&mut self, request: &Message) -> Result<Vec<(String, LogicColumn)>, CosimError> {
        match self.transport.request(request)? {
            Message::BatchResult { outputs } => Ok(outputs),
            Message::Error { message } => Err(CosimError::Remote { message }),
            other => Err(CosimError::Protocol {
                reason: format!("expected BatchResult, got {other:?}"),
            }),
        }
    }

    fn expect_ok(&mut self, message: &Message) -> Result<(), CosimError> {
        match self.transport.request(message)? {
            Message::Ok => Ok(()),
            Message::Error { message } => Err(CosimError::Remote { message }),
            other => Err(CosimError::Protocol {
                reason: format!("expected Ok, got {other:?}"),
            }),
        }
    }
}

impl<T: Transport> SimModel for BlackBoxClient<T> {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        match self.transport.request(&Message::GetInterface)? {
            Message::Interface(ports) => Ok(ports),
            Message::Error { message } => Err(CosimError::Remote { message }),
            other => Err(CosimError::Protocol {
                reason: format!("expected Interface, got {other:?}"),
            }),
        }
    }

    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        self.expect_ok(&Message::SetInput {
            port: port.to_owned(),
            value,
        })
    }

    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        self.expect_ok(&Message::Cycle { n })
    }

    fn reset(&mut self) -> Result<(), CosimError> {
        self.expect_ok(&Message::Reset)
    }

    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        match self.transport.request(&Message::GetOutput {
            port: port.to_owned(),
        })? {
            Message::Value { value, .. } => Ok(value),
            Message::Error { message } => Err(CosimError::Remote { message }),
            other => Err(CosimError::Protocol {
                reason: format!("expected Value, got {other:?}"),
            }),
        }
    }

    /// The whole batch travels in ONE round trip — the scalar path
    /// would pay `vectors × (inputs + cycle + outputs)` of them. The
    /// values are packed into columns here, so a port whose values mix
    /// widths is refused with [`CosimError::Wiring`] before any byte is
    /// sent. A result column that does not hold one value per vector is
    /// a [`CosimError::Protocol`] error before any value is unpacked.
    fn run_batch(
        &mut self,
        cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        let count = inputs.first().map_or(0, |(_, values)| values.len());
        let inputs = pack_batch(inputs)?;
        let outputs = self.batch(&Message::BatchRun { cycles, inputs })?;
        if let Some((port, column)) = outputs.iter().find(|(_, column)| column.len() != count) {
            return Err(CosimError::Protocol {
                reason: format!(
                    "batch result {port} holds {} values for {count} vectors",
                    column.len()
                ),
            });
        }
        Ok(unpack_batch(&outputs))
    }

    /// The message owns its columns, so the borrowed planes are copied
    /// once (two bits per value); `run_batch` moves the columns it
    /// packs instead.
    fn run_columns(
        &mut self,
        cycles: u32,
        inputs: &[(String, LogicColumn)],
    ) -> Result<Vec<(String, LogicColumn)>, CosimError> {
        self.batch(&Message::BatchRun {
            cycles,
            inputs: inputs.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LocalSimModel;
    use crate::server::BlackBoxServer;
    use ipd_core::AppletHost;
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_techlib::LogicCtx;

    fn inverter() -> Circuit {
        let mut c = Circuit::new("inv");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        c
    }

    #[test]
    fn in_proc_client_round_trip() {
        let model = LocalSimModel::new(&inverter()).unwrap();
        let mut client = BlackBoxClient::over(InProcTransport::new(model));
        let ports = client.interface().unwrap();
        assert_eq!(ports.len(), 2);
        client.set("a", LogicVec::from_u64(0, 1)).unwrap();
        assert_eq!(client.get("y").unwrap().to_u64(), Some(1));
        assert!(client.round_trips() >= 3);
        assert!(matches!(
            client.get("bogus"),
            Err(CosimError::Remote { .. })
        ));
    }

    #[test]
    fn tcp_client_against_real_server() {
        let mut host = AppletHost::new();
        host.grant_network_permission();
        let server = BlackBoxServer::bind(&host).unwrap();
        let addr = server.addr();
        let model = LocalSimModel::new(&inverter()).unwrap();
        let handle = server.spawn(model);
        let mut client = BlackBoxClient::connect(addr).unwrap();
        client.set("a", LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(client.get("y").unwrap().to_u64(), Some(0));
        client.reset().unwrap();
        client.cycle(1).unwrap();
        client.close().unwrap();
        handle.join().expect("no panic").expect("server ok");
    }

    #[test]
    fn batched_run_is_one_round_trip() {
        let mut host = AppletHost::new();
        host.grant_network_permission();
        let server = BlackBoxServer::bind(&host).unwrap();
        let addr = server.addr();
        let model = LocalSimModel::new(&inverter()).unwrap();
        let handle = server.spawn(model);
        let mut client = BlackBoxClient::connect(addr).unwrap();
        let inputs = vec![(
            "a".to_owned(),
            (0..100u64).map(|k| LogicVec::from_u64(k & 1, 1)).collect(),
        )];
        let before = client.round_trips();
        let outputs = client.run_batch(0, &inputs).unwrap();
        assert_eq!(client.round_trips() - before, 1, "one frame per batch");
        assert_eq!(outputs.len(), 1);
        let (port, values) = &outputs[0];
        assert_eq!(port, "y");
        assert_eq!(values.len(), 100);
        for (k, v) in values.iter().enumerate() {
            assert_eq!(v.to_u64(), Some(1 - (k as u64 & 1)), "vector {k}");
        }
        client.close().unwrap();
        handle.join().expect("no panic").expect("server ok");
    }

    #[test]
    fn batched_run_errors_travel_back() {
        let model = LocalSimModel::new(&inverter()).unwrap();
        let mut client = BlackBoxClient::over(InProcTransport::new(model));
        let ragged = vec![
            ("a".to_owned(), vec![LogicVec::zeros(1); 2]),
            ("a".to_owned(), vec![LogicVec::zeros(1); 1]),
        ];
        assert!(matches!(
            client.run_batch(0, &ragged),
            Err(CosimError::Remote { .. })
        ));
    }

    /// A model whose batch answer holds one value more than it was
    /// asked for.
    struct OneTooMany;

    impl SimModel for OneTooMany {
        fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
            Ok(vec![
                ("a".into(), PortDir::Input, 1),
                ("y".into(), PortDir::Output, 1),
            ])
        }
        fn set(&mut self, _: &str, _: LogicVec) -> Result<(), CosimError> {
            Ok(())
        }
        fn cycle(&mut self, _: u32) -> Result<(), CosimError> {
            Ok(())
        }
        fn reset(&mut self) -> Result<(), CosimError> {
            Ok(())
        }
        fn get(&mut self, _: &str) -> Result<LogicVec, CosimError> {
            Ok(LogicVec::unknown(1))
        }
        fn run_columns(
            &mut self,
            _: u32,
            inputs: &[(String, LogicColumn)],
        ) -> Result<Vec<(String, LogicColumn)>, CosimError> {
            let count = inputs.first().map_or(0, |(_, column)| column.len());
            Ok(vec![("y".into(), LogicColumn::unknown(1, count + 1))])
        }
    }

    #[test]
    fn batch_results_hold_one_value_per_vector() {
        let mut client = BlackBoxClient::over(InProcTransport::new(OneTooMany));
        for count in [0, 3] {
            let batch = vec![("a".to_owned(), vec![LogicVec::zeros(1); count])];
            match client.run_batch(0, &batch) {
                Err(CosimError::Protocol { reason }) => assert_eq!(
                    reason,
                    format!(
                        "batch result y holds {} values for {count} vectors",
                        count + 1
                    )
                ),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn latency_transport_delays() {
        let model = LocalSimModel::new(&inverter()).unwrap();
        let transport =
            LatencyTransport::new(InProcTransport::new(model), Duration::from_millis(5));
        let mut client = BlackBoxClient::over(transport);
        let start = std::time::Instant::now();
        client.set("a", LogicVec::from_u64(1, 1)).unwrap();
        let _ = client.get("y").unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "2 RTTs injected"
        );
    }
}
