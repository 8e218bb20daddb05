//! The timing graph: the caller's [`FlatIndex`] plus what timing adds
//! to it — each gate's primitive and placement, per-net driver
//! locations and carry flags, the launch (startpoint) and capture
//! (endpoint) structure with the names waivers and reports use, and
//! the net-delay seam.
//!
//! Gates, their evaluation order and every register's clock domain
//! come from the index, so STA agrees with lint and the simulators on
//! what loops and what clocks a register. Endpoints keep the
//! historical estimator's selection and SRL/RAM leaves its
//! clock-to-q-plus-read-node modelling, so on purely combinational
//! designs [`crate::Sta::estimate`] reproduces that estimator bit for
//! bit (the differential oracle in `tests/estimate_oracle.rs`).

use ipd_hdl::{FlatKind, NetId, PortDir, Rloc};
use ipd_techlib::{DelayModel, FlatIndex, InputNets, NetDelaySource, PrimKind};

use crate::error::EstimateError;

/// One combinational gate: a primitive, or the async read port of an
/// SRL/RAM leaf (address → output).
pub(crate) struct GateNode {
    pub kind: PrimKind,
    pub inputs: InputNets,
    pub output: NetId,
    pub loc: Option<Rloc>,
}

impl GateNode {
    /// Whether traversing this gate adds a logic level (carry-chain
    /// elements and buffers do not, matching the historical estimator).
    pub fn is_lut_level(&self) -> bool {
        !matches!(
            self.kind,
            PrimKind::Muxcy | PrimKind::Xorcy | PrimKind::MultAnd | PrimKind::Buf
        )
    }
}

/// What captures data at an endpoint.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum EndpointKind {
    /// A sequential data-side pin; `domain` is the structural clock
    /// root net of the capturing element.
    Seq { domain: NetId },
    /// A primary output port bit.
    Output,
    /// A black-box input pin (internals unknown; never constrained).
    BlackBox,
}

/// A capture point: where a timed path ends.
pub(crate) struct Endpoint {
    pub net: NetId,
    /// Extra sink delay (setup time for sequential pins).
    pub extra_ns: f64,
    pub sink_loc: Option<Rloc>,
    /// `instance.pin` for sequential/black-box pins, port name for
    /// outputs — the object timing waivers and `to` patterns match.
    pub name: String,
    pub kind: EndpointKind,
}

/// A sequential element's output side: nets launching at clock-to-q in
/// the element's clock domain.
pub(crate) struct SeqLaunch {
    pub nets: Vec<NetId>,
    pub domain: NetId,
    pub path: String,
}

/// The levelized combinational graph plus boundary structure.
pub(crate) struct TimingGraph<'a> {
    /// The design's index, borrowed from the caller.
    pub index: &'a FlatIndex<'a>,
    pub model: DelayModel,
    /// Where net delays come from; every edge-delay query in the
    /// engine resolves through this one seam.
    pub source: NetDelaySource,
    /// One gate per index comb node, in the same order.
    pub nodes: Vec<GateNode>,
    pub driver_loc: Vec<Option<Rloc>>,
    /// Net → driven by a carry-chain element (MUXCY/XORCY/MULT_AND);
    /// a carry-driven net feeding another carry element rides the
    /// dedicated carry route instead of general fabric.
    pub driver_carry: Vec<bool>,
    pub endpoints: Vec<Endpoint>,
    pub seq_launches: Vec<SeqLaunch>,
    /// Primary input ports: (name, bit nets).
    pub input_ports: Vec<(String, Vec<NetId>)>,
    /// Black-box output launches: (instance path, nets).
    pub bb_launches: Vec<(String, Vec<NetId>)>,
    pub placed_fraction: f64,
}

impl<'a> TimingGraph<'a> {
    /// Builds the graph over the caller's index, with net delays from
    /// `source`.
    ///
    /// # Errors
    ///
    /// The first unknown primitive, then a combinational loop (naming
    /// the output net of the lowest-numbered node of the first loop).
    pub fn new(
        index: &'a FlatIndex<'a>,
        model: &DelayModel,
        source: NetDelaySource,
    ) -> Result<Self, EstimateError> {
        if let Some((_, e)) = index.unknown_primitives().first() {
            return Err(e.clone().into());
        }
        let flat = index.flat();
        let leaves = flat.leaves();
        let nodes: Vec<GateNode> = index
            .comb_nodes()
            .iter()
            .map(|node| GateNode {
                kind: node.kind.or(index.kinds()[node.leaf]).expect("resolved"),
                inputs: node.inputs,
                output: node.output,
                loc: leaves[node.leaf].loc,
            })
            .collect();
        if let Some(scc) = index.loop_sccs().first() {
            return Err(EstimateError::CombinationalLoop {
                net: index.net_name(nodes[scc[0]].output).to_owned(),
            });
        }
        let net_count = flat.net_count();
        let driver_loc = (0..net_count)
            .map(|n| {
                let last = index.drivers_of(NetId::from_index(n)).last();
                last.and_then(|&(leaf, _)| leaves[leaf].loc)
            })
            .collect();
        let mut driver_carry = vec![false; net_count];
        for node in index.comb_nodes() {
            if let Some(kind) = node.kind {
                driver_carry[node.output.index()] = kind.is_carry();
            }
        }

        // Endpoints and launches, leaf by leaf.
        let mut endpoints: Vec<Endpoint> = Vec::new();
        let mut seq_launches: Vec<SeqLaunch> = Vec::new();
        let mut bb_launches: Vec<(String, Vec<NetId>)> = Vec::new();
        let mut seq = index.seq().iter();
        for (li, leaf) in leaves.iter().enumerate() {
            let pin_endpoint = |conn: &ipd_hdl::FlatConn, bit, extra_ns, kind| Endpoint {
                net: conn.nets[bit],
                extra_ns,
                sink_loc: leaf.loc,
                name: pin_name(&leaf.path, &conn.port, bit, conn.nets.len()),
                kind,
            };
            if let FlatKind::BlackBox(_) = leaf.kind {
                let mut outs = Vec::new();
                for conn in &leaf.conns {
                    if conn.dir == PortDir::Input {
                        for bit in 0..conn.nets.len() {
                            endpoints.push(pin_endpoint(conn, bit, 0.0, EndpointKind::BlackBox));
                        }
                    } else {
                        outs.extend(conn.nets.iter().copied());
                    }
                }
                bb_launches.push((leaf.path.clone(), outs));
            } else if index.kinds()[li].is_some_and(|k| k.is_sequential()) {
                // State launches at clock-to-q; an SRL/RAM address path
                // reads through its node.
                let s = seq.next().expect("one element per sequential leaf");
                let capture = EndpointKind::Seq { domain: s.domain };
                for conn in &leaf.conns {
                    if conn.dir == PortDir::Input && conn.port != "c" && conn.port != "a" {
                        for bit in 0..conn.nets.len() {
                            endpoints.push(pin_endpoint(conn, bit, model.setup_ns, capture));
                        }
                    }
                }
                seq_launches.push(SeqLaunch {
                    nets: vec![s.output],
                    domain: s.domain,
                    path: leaf.path.clone(),
                });
            }
        }
        let mut input_ports = Vec::new();
        for port in flat.ports() {
            match port.dir {
                PortDir::Output => {
                    for (bit, &n) in port.nets.iter().enumerate() {
                        endpoints.push(Endpoint {
                            net: n,
                            extra_ns: 0.0,
                            sink_loc: None,
                            name: bit_name(&port.name, bit, port.nets.len()),
                            kind: EndpointKind::Output,
                        });
                    }
                }
                _ => input_ports.push((port.name.clone(), port.nets.clone())),
            }
        }

        let placed = leaves.iter().filter(|leaf| leaf.loc.is_some()).count();
        Ok(TimingGraph {
            model: model.clone(),
            source,
            nodes,
            driver_loc,
            driver_carry,
            endpoints,
            seq_launches,
            input_ports,
            bb_launches,
            placed_fraction: if leaves.is_empty() {
                0.0
            } else {
                placed as f64 / leaves.len() as f64
            },
            index,
        })
    }

    /// Leaf readers of a net: the fanout the delay model charges.
    fn fanout(&self, net: NetId) -> usize {
        self.index.readers_of(net).len()
    }

    /// Routing delay from a net's driver to a non-carry sink at
    /// `to_loc` (endpoints: FF data pins, output ports, black boxes).
    pub fn edge_delay(&self, from: NetId, to_loc: Option<Rloc>) -> f64 {
        self.source.edge_delay(
            &self.model,
            from,
            self.driver_loc[from.index()],
            to_loc,
            self.fanout(from),
            false,
        )
    }

    /// Routing delay from a net's driver into a gate node, using the
    /// dedicated carry route for carry-to-carry hops.
    pub fn gate_edge_delay(&self, from: NetId, node: &GateNode) -> f64 {
        self.source.edge_delay(
            &self.model,
            from,
            self.driver_loc[from.index()],
            node.loc,
            self.fanout(from),
            self.driver_carry[from.index()] && node.kind.is_carry(),
        )
    }

    /// Representative name of a net.
    pub fn net_name(&self, net: NetId) -> &'a str {
        self.index.net_name(net)
    }
}

/// `pin` bit of a multi-bit connection on `path`, e.g. `u0/acc.d[3]`.
fn pin_name(path: &str, port: &str, bit: usize, width: usize) -> String {
    if width > 1 {
        format!("{path}.{port}[{bit}]")
    } else {
        format!("{path}.{port}")
    }
}

/// Port-bit object name, e.g. `p` or `p[3]`.
fn bit_name(name: &str, bit: usize, width: usize) -> String {
    if width > 1 {
        format!("{name}[{bit}]")
    } else {
        name.to_owned()
    }
}
