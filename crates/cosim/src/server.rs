//! The black-box applet server: exposes a protected circuit's
//! port-level simulation over a socket.
//!
//! This is the applet side of the paper's Figure 4, rebuilt on the
//! shared `ipd-wire` transport. Creating a server requires the applet
//! host's *network permission* — "establishing network connections …
//! violates the default applet security model and requires explicit
//! permission from the user" (§4.2, footnote 1).
//!
//! A started server ([`BlackBoxServer::start`]) serves many customers
//! concurrently — each connection on a thread of its own, under the
//! [`WireConfig`]'s session cap and deadlines — each against its own
//! model from the factory; [`RunningBlackBox::shutdown`] stops it
//! gracefully.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ipd_core::AppletHost;
use ipd_wire::{
    Reply, ServerHandle, WireConfig, WireError, WireServer, WireService, WireSession, WireStats,
};

use crate::error::CosimError;
use crate::model::SimModel;
use crate::protocol::{endpoint_name, Message};

/// A socket server wrapping port-level simulation models.
#[derive(Debug)]
pub struct BlackBoxServer {
    server: WireServer,
}

impl BlackBoxServer {
    /// Binds a server on a loopback port with default wire settings,
    /// after checking the applet host's network permission.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Core`] when the user has not granted
    /// network permission, or an I/O error when binding fails.
    pub fn bind(host: &AppletHost) -> Result<Self, CosimError> {
        Self::bind_with(host, WireConfig::default())
    }

    /// Binds with explicit wire settings (frame cap, session cap,
    /// deadlines).
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Core`] when the user has not granted
    /// network permission, or an I/O error when binding fails.
    pub fn bind_with(host: &AppletHost, config: WireConfig) -> Result<Self, CosimError> {
        host.check_network()?;
        Ok(BlackBoxServer {
            server: WireServer::bind(config)?,
        })
    }

    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The per-endpoint traffic counters (shared with the running
    /// server).
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        self.server.stats()
    }

    /// Serves exactly one client session on the current thread; the
    /// server stays usable afterwards.
    ///
    /// # Errors
    ///
    /// Propagates accept/transport failures. A client `Bye` (or
    /// disconnect) ends the session normally.
    pub fn serve_once<M: SimModel + Send + 'static>(&self, model: M) -> Result<(), CosimError> {
        let service = OneShotService {
            model: Mutex::new(Some(model)),
        };
        self.server.serve_next(&service)?;
        Ok(())
    }

    /// Spawns a thread serving one client session.
    #[must_use]
    pub fn spawn<M: SimModel + Send + 'static>(
        self,
        model: M,
    ) -> JoinHandle<Result<(), CosimError>> {
        std::thread::spawn(move || self.serve_once(model))
    }

    /// Starts the concurrent accept loop: every connecting customer
    /// gets its own session thread and its own model from `factory`.
    #[must_use]
    pub fn start<F>(self, factory: F) -> RunningBlackBox
    where
        F: Fn() -> Result<Box<dyn SimModel + Send>, CosimError> + Send + Sync + 'static,
    {
        let service = CosimService {
            factory: Box::new(factory),
        };
        RunningBlackBox {
            handle: self.server.start(Arc::new(service)),
        }
    }

    /// [`BlackBoxServer::start`] for clonable models: each session
    /// simulates its own copy.
    #[must_use]
    pub fn start_cloning<M: SimModel + Clone + Send + 'static>(self, model: M) -> RunningBlackBox {
        // The prototype sits behind a mutex so `M` needs only `Send`,
        // not `Sync`; sessions clone it on open, then run lock-free.
        let prototype = Mutex::new(model);
        self.start(move || {
            let model = prototype.lock().expect("prototype lock").clone();
            Ok(Box::new(model) as Box<dyn SimModel + Send>)
        })
    }
}

/// Control handle for a started black-box server.
#[derive(Debug)]
pub struct RunningBlackBox {
    handle: ServerHandle,
}

impl RunningBlackBox {
    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The per-endpoint traffic counters.
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        self.handle.stats()
    }

    /// Currently connected customer sessions.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.handle.active_sessions()
    }

    /// A formatted per-endpoint traffic report.
    #[must_use]
    pub fn traffic_report(&self) -> String {
        self.handle.stats().report(|e| endpoint_name(e).to_owned())
    }

    /// Stops accepting, interrupts live sessions, joins all threads.
    ///
    /// # Errors
    ///
    /// Propagates shutdown failures from the wire layer.
    pub fn shutdown(self) -> Result<(), CosimError> {
        self.handle.shutdown()?;
        Ok(())
    }
}

/// Multi-session service: one fresh model per connection.
struct CosimService {
    #[allow(clippy::type_complexity)]
    factory: Box<dyn Fn() -> Result<Box<dyn SimModel + Send>, CosimError> + Send + Sync>,
}

impl WireService for CosimService {
    fn open_session(
        &self,
        _peer: SocketAddr,
        _token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        let model = (self.factory)().map_err(|e| WireError::app(e.to_string()))?;
        Ok(Box::new(CosimSession { model }))
    }

    fn endpoint_name(&self, endpoint: u16) -> String {
        endpoint_name(endpoint).to_owned()
    }
}

/// Single-session service for `serve_once`: hands its model to the
/// first connection.
struct OneShotService<M: SimModel + Send> {
    model: Mutex<Option<M>>,
}

impl<M: SimModel + Send + 'static> WireService for OneShotService<M> {
    fn open_session(
        &self,
        _peer: SocketAddr,
        _token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        let model = self
            .model
            .lock()
            .expect("one-shot model lock")
            .take()
            .ok_or_else(|| WireError::app("model already claimed by another session"))?;
        Ok(Box::new(CosimSession {
            model: Box::new(model),
        }))
    }

    fn endpoint_name(&self, endpoint: u16) -> String {
        endpoint_name(endpoint).to_owned()
    }
}

/// One customer's protocol session against its own model.
struct CosimSession {
    model: Box<dyn SimModel + Send>,
}

impl WireSession for CosimSession {
    fn handle(&mut self, endpoint: u16, body: &[u8]) -> Result<Reply, WireError> {
        let request = Message::decode(body).map_err(|e| WireError::protocol(e.to_string()))?;
        if request.wire_endpoint() != endpoint {
            return Err(WireError::protocol(format!(
                "endpoint {endpoint} does not match message tag {}",
                request.wire_endpoint()
            )));
        }
        let stop = matches!(request, Message::Bye);
        let response = handle(self.model.as_mut(), &request);
        // Model failures travel as typed error frames; the session
        // survives them.
        if let Message::Error { message } = response {
            return Err(WireError::app(message));
        }
        let body = response.encode();
        Ok(if stop {
            Reply::end(body)
        } else {
            Reply::body(body)
        })
    }
}

/// Computes the response to one request; model errors become
/// [`Message::Error`] so the session survives bad requests.
pub(crate) fn handle<M: SimModel + ?Sized>(model: &mut M, request: &Message) -> Message {
    let outcome = match request {
        Message::Hello | Message::GetInterface => model.interface().map(Message::Interface),
        Message::SetInput { port, value } => model.set(port, value.clone()).map(|()| Message::Ok),
        Message::Cycle { n } => model.cycle(*n).map(|()| Message::Ok),
        Message::Reset => model.reset().map(|()| Message::Ok),
        Message::GetOutput { port } => model.get(port).map(|value| Message::Value {
            port: port.clone(),
            value,
        }),
        Message::BatchRun { cycles, inputs } => model
            .run_columns(*cycles, inputs)
            .map(|outputs| Message::BatchResult { outputs }),
        Message::Bye => Ok(Message::Ok),
        other => Err(CosimError::Protocol {
            reason: format!("unexpected client message {other:?}"),
        }),
    };
    match outcome {
        Ok(msg) => msg,
        Err(e) => Message::Error {
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LocalSimModel;
    use ipd_hdl::{Circuit, LogicVec, PortSpec};
    use ipd_techlib::LogicCtx;

    fn inverter_model() -> LocalSimModel {
        let mut c = Circuit::new("inv");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        LocalSimModel::new(&c).unwrap()
    }

    #[test]
    fn binding_requires_network_permission() {
        let host = AppletHost::new();
        assert!(matches!(
            BlackBoxServer::bind(&host),
            Err(CosimError::Core(_))
        ));
        let mut host = AppletHost::new();
        host.grant_network_permission();
        BlackBoxServer::bind(&host).expect("bind with permission");
    }

    #[test]
    fn handle_translates_errors_to_messages() {
        let mut model = inverter_model();
        let resp = handle(&mut model, &Message::GetOutput { port: "zzz".into() });
        assert!(matches!(resp, Message::Error { .. }));
        let resp = handle(
            &mut model,
            &Message::SetInput {
                port: "a".into(),
                value: LogicVec::from_u64(1, 1),
            },
        );
        assert_eq!(resp, Message::Ok);
        let resp = handle(&mut model, &Message::GetOutput { port: "y".into() });
        assert_eq!(
            resp,
            Message::Value {
                port: "y".into(),
                value: LogicVec::from_u64(0, 1)
            }
        );
    }

    #[test]
    fn handle_works_through_dyn_models() {
        let mut model: Box<dyn SimModel + Send> = Box::new(inverter_model());
        let resp = handle(model.as_mut(), &Message::GetInterface);
        assert!(matches!(resp, Message::Interface(_)));
    }

    #[test]
    fn unexpected_messages_are_protocol_errors() {
        let mut model = inverter_model();
        let resp = handle(&mut model, &Message::Ok);
        assert!(matches!(resp, Message::Error { .. }));
    }
}
