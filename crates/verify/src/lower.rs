//! Lowering flattened netlists into the shared AIG.
//!
//! A design lowers over its *register cut*: the free variables are
//! the primary-input bits plus every sequential element's state bits
//! (one per flip-flop, sixteen per SRL16/RAM16), and the checked
//! functions are the primary-output bits plus every state bit's
//! next-state function. Two sequential designs are equivalent across
//! matched cuts exactly when all these combinational functions agree
//! — the classic reduction of sequential equivalence to per-cone CEC.
//!
//! Each primitive lowers through the two-valued restriction of the
//! same four-state semantics the simulators execute (LUTs by Shannon
//! cofactor expansion, memory reads as 16:1 mux trees, flip-flops as
//! `!ctl & (ce ? d : q)`), and the graph is the simulators' own
//! compiled model, built from the design's `FlatIndex`, so the AIG and
//! the simulators cannot disagree about structure — only about the
//! engine's own arithmetic, which the counterexample replay oracle
//! cross-checks.

use std::collections::HashMap;

use ipd_hdl::{Logic, NetId, PortDir};
use ipd_sim::graph::{CombKind, NetlistGraph, SeqKind};
use ipd_techlib::PrimKind;

use crate::aig::{Aig, Lit, FALSE, TRUE};
use crate::error::VerifyError;

/// Identity of one checked output function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutId {
    /// Bit `bit` of primary output `port`.
    Port {
        /// Port name.
        port: String,
        /// Bit index, LSB first.
        bit: usize,
    },
    /// Next-state function of state bit `bit` of the element at
    /// `path` (the design's own hierarchical path).
    NextState {
        /// Hierarchical instance path.
        path: String,
        /// State bit index.
        bit: usize,
    },
}

impl OutId {
    /// Render for reports: `y[3]` or `next(top/acc/ff0)[0]`.
    #[must_use]
    pub fn display(&self) -> String {
        match self {
            OutId::Port { port, bit } => format!("{port}[{bit}]"),
            OutId::NextState { path, bit } => format!("next({path})[{bit}]"),
        }
    }
}

/// One lowered output function.
#[derive(Debug, Clone)]
pub struct OutputFn {
    /// Which boundary function this is.
    pub id: OutId,
    /// Its literal in the shared AIG.
    pub lit: Lit,
}

/// A fully lowered design: the checked boundary functions plus the
/// literal of every internal net, so per-net analyses (the semantic
/// lint oracle) can query arbitrary cones, not just the boundary.
#[derive(Debug, Clone)]
pub struct LoweredDesign {
    /// Primary outputs, then next-state functions in leaf order.
    pub outputs: Vec<OutputFn>,
    /// Per-net AIG literal, indexed by `NetId::index`. `None` for
    /// nets nothing drives (legal as long as nothing reads them).
    pub net_lit: Vec<Option<Lit>>,
}

/// Lowers one design into `aig`. `port_lit` maps non-clock input
/// port bits to shared input literals; `state_lit` maps this design's
/// own state paths (bit by bit) to shared input literals. Returns the
/// design's checked output functions (primary outputs, then
/// next-state functions in leaf order).
///
/// # Errors
///
/// Refuses combinational loops, black boxes, and nets read by logic
/// without a driver — all cases where a two-valued proof would be
/// unsound against the four-state simulators.
pub fn lower_into(
    aig: &mut Aig,
    graph: &NetlistGraph,
    design: &str,
    port_lit: &HashMap<(String, usize), Lit>,
    state_lit: &HashMap<(String, usize), Lit>,
) -> Result<Vec<OutputFn>, VerifyError> {
    Ok(lower_design(aig, graph, design, port_lit, state_lit)?.outputs)
}

/// As [`lower_into`], but also returns the full per-net literal map.
///
/// # Errors
///
/// As [`lower_into`].
pub fn lower_design(
    aig: &mut Aig,
    graph: &NetlistGraph,
    design: &str,
    port_lit: &HashMap<(String, usize), Lit>,
    state_lit: &HashMap<(String, usize), Lit>,
) -> Result<LoweredDesign, VerifyError> {
    lower_impl(aig, graph, design, port_lit, state_lit, None)
}

/// Re-lowers a design with one net's value complemented at its
/// driving point — the observability transform: an output function
/// changes between this lowering and the original exactly when the
/// flipped net is observable at that output. Returns the boundary
/// function literals in the same order as [`lower_design`].
///
/// # Errors
///
/// As [`lower_into`].
pub(crate) fn lower_flipped(
    aig: &mut Aig,
    graph: &NetlistGraph,
    design: &str,
    port_lit: &HashMap<(String, usize), Lit>,
    state_lit: &HashMap<(String, usize), Lit>,
    flip: NetId,
) -> Result<Vec<OutputFn>, VerifyError> {
    Ok(lower_impl(aig, graph, design, port_lit, state_lit, Some(flip))?.outputs)
}

fn lower_impl(
    aig: &mut Aig,
    graph: &NetlistGraph,
    design: &str,
    port_lit: &HashMap<(String, usize), Lit>,
    state_lit: &HashMap<(String, usize), Lit>,
    flip: Option<NetId>,
) -> Result<LoweredDesign, VerifyError> {
    let place = |net: NetId, lit: Lit| {
        if flip == Some(net) {
            !lit
        } else {
            lit
        }
    };
    if !graph.levelized() {
        return Err(VerifyError::CombLoop {
            design: design.to_owned(),
        });
    }
    if !graph.black_box_outputs.is_empty() {
        return Err(VerifyError::BlackBox {
            design: design.to_owned(),
        });
    }
    let mut net_lit: Vec<Option<Lit>> = vec![None; graph.net_count];
    // Constant rails.
    for &(net, v) in &graph.const_drives {
        net_lit[net.index()] = Some(place(
            net,
            match v {
                Logic::One => TRUE,
                _ => FALSE,
            },
        ));
    }
    // Clock nets are held at 0 between active edges in every engine.
    for &net in &graph.clock_nets {
        net_lit[net.index()] = Some(place(net, FALSE));
    }
    // Primary-input bits.
    for port in &graph.ports {
        if port.dir != PortDir::Input {
            continue;
        }
        for (bit, &net) in port.nets.iter().enumerate() {
            if net_lit[net.index()].is_some() {
                continue; // clock port (or a rail): already pinned
            }
            let lit = port_lit
                .get(&(port.name.clone(), bit))
                .copied()
                .ok_or_else(|| VerifyError::PortMismatch {
                    detail: format!("no shared input for {}[{}]", port.name, bit),
                })?;
            net_lit[net.index()] = Some(place(net, lit));
        }
    }
    // Flip-flop outputs read the state variable.
    for (elem, path) in graph.seq.iter().zip(&graph.state_paths) {
        if let SeqKind::Ff { q, .. } = *elem {
            let lit = state_bit(state_lit, path, 0)?;
            net_lit[q.index()] = Some(place(q, lit));
        }
    }
    // Combinational cones in levelized order.
    for node in &graph.eval_order {
        let ins = gather(graph, design, &net_lit, &node.inputs)?;
        let out = match &node.kind {
            CombKind::Prim(kind) => lower_prim(aig, kind, &ins),
            CombKind::SrlRead { seq } | CombKind::RamRead { seq } => {
                let word = state_word(state_lit, &graph.state_paths[*seq])?;
                mux_word(aig, &ins, &word)
            }
        };
        net_lit[node.output.index()] = Some(place(node.output, out));
    }
    // Checked functions: primary outputs first…
    let mut outputs = Vec::new();
    for port in &graph.ports {
        if port.dir != PortDir::Output {
            continue;
        }
        for (bit, &net) in port.nets.iter().enumerate() {
            let lit = net_lit[net.index()].ok_or_else(|| VerifyError::UndrivenNet {
                design: design.to_owned(),
                net: graph.net_names[net.index()].clone(),
            })?;
            outputs.push(OutputFn {
                id: OutId::Port {
                    port: port.name.clone(),
                    bit,
                },
                lit,
            });
        }
    }
    // …then next-state functions.
    for (elem, path) in graph.seq.iter().zip(&graph.state_paths) {
        match elem {
            SeqKind::Ff { d, ce, control, .. } => {
                let d = fetch(graph, design, &net_lit, *d)?;
                let q = state_bit(state_lit, path, 0)?;
                let held = match ce {
                    Some(ce) => {
                        let ce = fetch(graph, design, &net_lit, *ce)?;
                        aig.mux(ce, d, q)
                    }
                    None => d,
                };
                let next = match control {
                    Some((_, ctl)) => {
                        let ctl = fetch(graph, design, &net_lit, *ctl)?;
                        aig.and(!ctl, held)
                    }
                    None => held,
                };
                outputs.push(OutputFn {
                    id: OutId::NextState {
                        path: path.clone(),
                        bit: 0,
                    },
                    lit: next,
                });
            }
            SeqKind::Srl16 { d, ce, .. } => {
                let d = fetch(graph, design, &net_lit, *d)?;
                let ce = fetch(graph, design, &net_lit, *ce)?;
                let word = state_word(state_lit, path)?;
                for bit in 0..16 {
                    let src = if bit == 0 { d } else { word[bit - 1] };
                    let next = aig.mux(ce, src, word[bit]);
                    outputs.push(OutputFn {
                        id: OutId::NextState {
                            path: path.clone(),
                            bit,
                        },
                        lit: next,
                    });
                }
            }
            SeqKind::Ram16 { d, we, addr, .. } => {
                let d = fetch(graph, design, &net_lit, *d)?;
                let we = fetch(graph, design, &net_lit, *we)?;
                let addr = gather(graph, design, &net_lit, addr)?;
                let word = state_word(state_lit, path)?;
                for (bit, &held) in word.iter().enumerate() {
                    // Address decode: every addr bit matches this slot.
                    let mut sel = we;
                    for (i, &a) in addr.iter().enumerate() {
                        let want = (bit >> i) & 1 == 1;
                        sel = aig.and(sel, if want { a } else { !a });
                    }
                    let next = aig.mux(sel, d, held);
                    outputs.push(OutputFn {
                        id: OutId::NextState {
                            path: path.clone(),
                            bit,
                        },
                        lit: next,
                    });
                }
            }
        }
    }
    Ok(LoweredDesign { outputs, net_lit })
}

fn state_bit(
    state_lit: &HashMap<(String, usize), Lit>,
    path: &str,
    bit: usize,
) -> Result<Lit, VerifyError> {
    state_lit
        .get(&(path.to_owned(), bit))
        .copied()
        .ok_or_else(|| VerifyError::StateMismatch {
            detail: format!("no shared input for state bit {path}[{bit}]"),
        })
}

fn state_word(
    state_lit: &HashMap<(String, usize), Lit>,
    path: &str,
) -> Result<[Lit; 16], VerifyError> {
    let mut word = [FALSE; 16];
    for (bit, slot) in word.iter_mut().enumerate() {
        *slot = state_bit(state_lit, path, bit)?;
    }
    Ok(word)
}

fn fetch(
    graph: &NetlistGraph,
    design: &str,
    net_lit: &[Option<Lit>],
    net: NetId,
) -> Result<Lit, VerifyError> {
    net_lit[net.index()].ok_or_else(|| VerifyError::UndrivenNet {
        design: design.to_owned(),
        net: graph.net_names[net.index()].clone(),
    })
}

fn gather(
    graph: &NetlistGraph,
    design: &str,
    net_lit: &[Option<Lit>],
    nets: &[NetId],
) -> Result<Vec<Lit>, VerifyError> {
    nets.iter()
        .map(|&n| fetch(graph, design, net_lit, n))
        .collect()
}

/// One combinational primitive through its two-valued semantics.
fn lower_prim(aig: &mut Aig, kind: &PrimKind, ins: &[Lit]) -> Lit {
    match kind {
        PrimKind::Inv => !ins[0],
        PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => ins[0],
        PrimKind::And(_) => aig.and_all(ins),
        PrimKind::Nand(_) => !aig.and_all(ins),
        PrimKind::Or(_) => aig.or_all(ins),
        PrimKind::Nor(_) => !aig.or_all(ins),
        PrimKind::Xor(_) => aig.xor_all(ins),
        PrimKind::Xnor2 => !aig.xor(ins[0], ins[1]),
        // mux2: [i0, i1, sel]; sel=1 selects i1.
        PrimKind::Mux2 => aig.mux(ins[2], ins[1], ins[0]),
        PrimKind::Lut { init, .. } => aig.lut(u64::from(*init), ins),
        // muxcy: [ci, di, s]; s=1 selects the carry-in.
        PrimKind::Muxcy => aig.mux(ins[2], ins[0], ins[1]),
        PrimKind::Xorcy => aig.xor(ins[0], ins[1]),
        PrimKind::MultAnd => aig.and(ins[0], ins[1]),
        PrimKind::Rom16x1 { init } => aig.lut(u64::from(*init), ins),
        PrimKind::Gnd => FALSE,
        PrimKind::Vcc => TRUE,
        PrimKind::Ff { .. } | PrimKind::Srl16 { .. } | PrimKind::Ram16x1 { .. } => {
            unreachable!("sequential primitives are not evaluation nodes")
        }
    }
}

/// 16:1 read mux: `addr` LSB first selects among `slots`.
fn mux_word(aig: &mut Aig, addr: &[Lit], slots: &[Lit; 16]) -> Lit {
    debug_assert_eq!(addr.len(), 4);
    let mut cur: Vec<Lit> = slots.to_vec();
    for &a in addr {
        let mut next = Vec::with_capacity(cur.len() / 2);
        for pair in cur.chunks(2) {
            next.push(aig.mux(a, pair[1], pair[0]));
        }
        cur = next;
    }
    cur[0]
}
