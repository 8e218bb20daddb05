//! The compiled model both simulators execute.
//!
//! [`NetlistGraph::build`] reads a design's [`FlatIndex`] and refuses
//! what the simulators cannot model: inout ports, unknown primitives,
//! sequential elements not clocked from the designated clock (directly
//! or through clock buffers), and nets with more than one driver. What
//! remains is the combinational network in the index's evaluation
//! order plus the numbered state elements. The scalar [`Simulator`]
//! runs it as is, the [`CompiledSimulator`] lowers it to bytecode, and
//! `ipd-verify` lowers it into its AIG, so the engines and the
//! equivalence checker cannot disagree about structure.
//!
//! [`Simulator`]: crate::Simulator
//! [`CompiledSimulator`]: crate::CompiledSimulator

use std::collections::HashMap;

use ipd_hdl::{FlatKind, FlatNetlist, Logic, NetId, PortDir};
use ipd_techlib::{FfControl, FlatIndex, InputNets, PrimKind};

use crate::error::SimError;

/// How one combinational node computes its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombKind {
    /// A combinational primitive (inputs in port-declaration order).
    Prim(PrimKind),
    /// Asynchronous tap read of shift register `seq` (inputs are the
    /// four address nets, LSB first).
    SrlRead {
        /// Index into [`NetlistGraph::seq`].
        seq: usize,
    },
    /// Asynchronous word read of RAM `seq` (inputs are the four
    /// address nets, LSB first).
    RamRead {
        /// Index into [`NetlistGraph::seq`].
        seq: usize,
    },
}

/// One node of the combinational evaluation network.
#[derive(Debug, Clone)]
pub struct CombEval {
    /// What the node computes.
    pub kind: CombKind,
    /// Input nets in evaluation order.
    pub inputs: InputNets,
    /// The single driven output net.
    pub output: NetId,
}

/// The clock-edge behaviour of one sequential element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqKind {
    /// Edge-triggered flip-flop.
    Ff {
        /// Data input net.
        d: NetId,
        /// Clock-enable net, when the primitive has one.
        ce: Option<NetId>,
        /// Clear/reset control. At cycle granularity async clear and
        /// sync reset behave identically: control high forces 0.
        control: Option<(FfControl, NetId)>,
        /// Power-on value.
        init: Logic,
        /// The output net the state drives.
        q: NetId,
    },
    /// 16-bit shift register (tap reads appear as [`CombKind::SrlRead`]
    /// nodes).
    Srl16 {
        /// Data input net.
        d: NetId,
        /// Clock-enable net.
        ce: NetId,
        /// Power-on contents.
        init: u16,
    },
    /// 16×1 RAM with synchronous write (reads appear as
    /// [`CombKind::RamRead`] nodes).
    Ram16 {
        /// Data input net.
        d: NetId,
        /// Write-enable net.
        we: NetId,
        /// Write address nets, LSB first.
        addr: [NetId; 4],
        /// Power-on contents.
        init: u16,
    },
}

impl SeqKind {
    /// Number of state bits this element holds (1 for a flip-flop,
    /// 16 for shift registers and RAMs).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        match self {
            SeqKind::Ff { .. } => 1,
            SeqKind::Srl16 { .. } | SeqKind::Ram16 { .. } => 16,
        }
    }
}

/// A primary port with its resolved bit nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortNets {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Net per bit, LSB first.
    pub nets: Vec<NetId>,
}

/// The compiled model of a flattened design; see the module docs.
#[derive(Debug, Clone)]
pub struct NetlistGraph {
    /// Number of single-bit nets.
    pub net_count: usize,
    /// Net names, indexed by [`NetId::index`].
    pub net_names: Vec<String>,
    pub(crate) name_to_net: HashMap<String, NetId>,
    /// Combinational nodes in [`FlatIndex::topo_order`]: the first
    /// [`NetlistGraph::acyclic_prefix`] are topologically sorted; any
    /// remainder is a loop or depends on one.
    pub eval_order: Vec<CombEval>,
    /// Length of the sorted prefix of `eval_order`; equal to
    /// `eval_order.len()` iff the design is loop-free.
    pub acyclic_prefix: usize,
    /// Sequential elements in leaf order; a position is the element's
    /// state index.
    pub seq: Vec<SeqKind>,
    /// Hierarchical instance path per sequential element, parallel to
    /// `seq` (the simulators' `state_elements`).
    pub state_paths: Vec<String>,
    /// Constant-driven nets (GND/VCC rails).
    pub const_drives: Vec<(NetId, Logic)>,
    /// Nets driven by protected black boxes (simulate as `X`).
    pub black_box_outputs: Vec<NetId>,
    /// Primary ports with resolved bit nets.
    pub ports: Vec<PortNets>,
    /// Nets carrying the global clock (the clock port plus everything
    /// reached through clock buffers).
    pub clock_nets: Vec<NetId>,
}

impl NetlistGraph {
    /// Compiles an indexed design. `clock_port` selects the global
    /// clock input; when `None` an input named `clk`, `c` or `clock`
    /// is auto-detected (sequential-free designs need no clock at
    /// all).
    ///
    /// # Errors
    ///
    /// In this order: the first inout port; the first leaf, in leaf
    /// order, that is an unknown primitive or a sequential element
    /// clocked from anything but the clock; the first net with more
    /// than one driver.
    pub fn build(index: &FlatIndex<'_>, clock_port: Option<&str>) -> Result<Self, SimError> {
        let flat = index.flat();
        if let Some(p) = flat.ports().iter().find(|p| p.dir == PortDir::Inout) {
            return Err(SimError::InoutUnsupported {
                port: p.name.clone(),
            });
        }
        let ports: Vec<PortNets> = flat
            .ports()
            .iter()
            .map(|p| PortNets {
                name: p.name.clone(),
                dir: p.dir,
                nets: p.nets.clone(),
            })
            .collect();
        let clock_nets = clock_closure(flat, &ports, clock_port);
        let mut is_clock = vec![false; flat.net_count()];
        for &net in &clock_nets {
            is_clock[net.index()] = true;
        }
        let gated = index.seq().iter().find(|s| !is_clock[s.clock.index()]);
        match (index.unknown_primitives().first(), gated) {
            (Some((leaf, e)), g) if g.is_none_or(|s| *leaf < s.leaf) => {
                return Err(e.clone().into())
            }
            (_, Some(s)) => {
                return Err(SimError::UnsupportedClock {
                    instance: index.leaf_path(s.leaf).to_owned(),
                })
            }
            _ => {}
        }
        let net_count = flat.net_count();
        let nets = (0..net_count).map(NetId::from_index);
        if let Some(net) = nets.clone().find(|&n| index.driver_count(n) > 1) {
            return Err(SimError::MultipleDrivers {
                net: index.net_name(net).to_owned(),
            });
        }

        let eval_order = index
            .topo_order()
            .iter()
            .map(|&ni| {
                let node = &index.comb_nodes()[ni];
                let kind = match node.kind {
                    Some(kind) => CombKind::Prim(kind),
                    None => {
                        let seq = index
                            .seq_index_of_output(node.output)
                            .expect("a memory read drives its element's output");
                        match index.seq()[seq].kind {
                            PrimKind::Srl16 { .. } => CombKind::SrlRead { seq },
                            _ => CombKind::RamRead { seq },
                        }
                    }
                };
                CombEval {
                    kind,
                    inputs: node.inputs,
                    output: node.output,
                }
            })
            .collect();
        let seq = index
            .seq()
            .iter()
            .map(|s| {
                let data = &s.data_inputs;
                match s.kind {
                    PrimKind::Ff {
                        has_ce,
                        control,
                        init,
                    } => SeqKind::Ff {
                        d: data[0],
                        ce: has_ce.then(|| data[1]),
                        control: (control != FfControl::None)
                            .then(|| (control, data[data.len() - 1])),
                        init,
                        q: s.output,
                    },
                    PrimKind::Srl16 { init } => SeqKind::Srl16 {
                        d: data[0],
                        ce: data[1],
                        init,
                    },
                    PrimKind::Ram16x1 { init } => SeqKind::Ram16 {
                        d: data[0],
                        we: data[1],
                        addr: [data[2], data[3], data[4], data[5]],
                        init,
                    },
                    other => unreachable!("{} is not sequential", other.name()),
                }
            })
            .collect();
        let black_box_outputs = index
            .black_boxes()
            .iter()
            .flat_map(|&li| &flat.leaves()[li].conns)
            .filter(|conn| conn.dir != PortDir::Input)
            .flat_map(|conn| conn.nets.iter().copied())
            .collect();
        Ok(NetlistGraph {
            net_count,
            net_names: nets.clone().map(|n| index.net_name(n).to_owned()).collect(),
            name_to_net: nets.map(|n| (index.net_name(n).to_owned(), n)).collect(),
            eval_order,
            acyclic_prefix: index.acyclic_prefix(),
            seq,
            state_paths: index
                .seq()
                .iter()
                .map(|s| index.leaf_path(s.leaf).to_owned())
                .collect(),
            const_drives: index.const_drives().to_vec(),
            black_box_outputs,
            ports,
            clock_nets,
        })
    }

    /// Compiles a flattened design: [`NetlistGraph::build`] over a
    /// fresh [`FlatIndex`].
    ///
    /// # Errors
    ///
    /// As for [`NetlistGraph::build`].
    pub fn from_flat(flat: &FlatNetlist, clock_port: Option<&str>) -> Result<Self, SimError> {
        Self::build(&FlatIndex::new(flat), clock_port)
    }

    /// `true` when the combinational network is loop-free (every node
    /// sits in the topologically sorted prefix).
    #[must_use]
    pub fn levelized(&self) -> bool {
        self.acyclic_prefix == self.eval_order.len()
    }

    /// `true` when `net` carries the global clock.
    #[must_use]
    pub fn is_clock_net(&self, net: NetId) -> bool {
        self.clock_nets.contains(&net)
    }

    /// The state index of the element at `instance_path`.
    pub(crate) fn state_index(&self, instance_path: &str) -> Option<usize> {
        self.state_paths.iter().position(|p| p == instance_path)
    }
}

/// The clock port's nets plus every net a `buf`/`bufg` leaf forwards
/// them to, transitively.
fn clock_closure(flat: &FlatNetlist, ports: &[PortNets], clock_port: Option<&str>) -> Vec<NetId> {
    let clock = clock_port.or_else(|| {
        ports
            .iter()
            .find(|p| p.dir == PortDir::Input && matches!(p.name.as_str(), "clk" | "c" | "clock"))
            .map(|p| p.name.as_str())
    });
    let mut is_clock = vec![false; flat.net_count()];
    let mut clock_nets = Vec::new();
    let port_nets = ports.iter().filter(|p| Some(p.name.as_str()) == clock);
    for &net in port_nets.take(1).flat_map(|p| &p.nets) {
        if !std::mem::replace(&mut is_clock[net.index()], true) {
            clock_nets.push(net);
        }
    }
    loop {
        let mut changed = false;
        for leaf in flat.leaves() {
            let FlatKind::Primitive(prim) = &leaf.kind else {
                continue;
            };
            if prim.name != "buf" && prim.name != "bufg" {
                continue;
            }
            let (Some(i), Some(o)) = (leaf.conn("i"), leaf.conn("o")) else {
                continue;
            };
            let (i, o) = (i.nets[0], o.nets[0]);
            if is_clock[i.index()] && !is_clock[o.index()] {
                is_clock[o.index()] = true;
                clock_nets.push(o);
                changed = true;
            }
        }
        if !changed {
            return clock_nets;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    fn pipeline() -> Circuit {
        let mut c = Circuit::new("pipe");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 2)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        let w = ctx.wire("w", 1);
        ctx.xor2(Signal::bit_of(a, 0), Signal::bit_of(a, 1), w)
            .unwrap();
        ctx.fd(clk, w, y).unwrap();
        c
    }

    #[test]
    fn graph_is_levelized_and_names_state() {
        let flat = FlatNetlist::build(&pipeline()).unwrap();
        let g = NetlistGraph::from_flat(&flat, None).unwrap();
        assert!(g.levelized());
        assert_eq!(g.eval_order.len(), 1, "one xor node");
        assert_eq!(g.seq.len(), 1);
        assert!(matches!(g.seq[0], SeqKind::Ff { .. }));
        assert_eq!(g.seq[0].state_bits(), 1);
        assert_eq!(g.ports.len(), 3);
        assert_eq!(g.clock_nets.len(), 1);
        assert!(g.is_clock_net(g.clock_nets[0]));
    }

    #[test]
    fn srl_read_joins_to_its_element() {
        let mut c = Circuit::new("srl");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let ce = ctx.add_port(PortSpec::input("ce", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.srl16(0x5a5a, clk, ce, d, a, q).unwrap();
        let flat = FlatNetlist::build(&c).unwrap();
        let g = NetlistGraph::from_flat(&flat, None).unwrap();
        let read = g
            .eval_order
            .iter()
            .find(|n| matches!(n.kind, CombKind::SrlRead { .. }))
            .expect("tap read node");
        let CombKind::SrlRead { seq } = read.kind else {
            unreachable!()
        };
        assert!(matches!(g.seq[seq], SeqKind::Srl16 { init: 0x5a5a, .. }));
        assert_eq!(read.inputs.len(), 4, "address nets");
    }
}
