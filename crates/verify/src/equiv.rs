//! The public equivalence-checking entry point.
//!
//! [`check_equiv`] matches two designs' primary I/O and sequential
//! boundaries, lowers both into one shared AIG over the matched
//! register cut, runs the simulation-guided SAT sweep, and returns
//! either a proof of equivalence or a counterexample — an input and
//! state assignment, cross-checked against both simulation engines
//! before it is ever reported.

use std::collections::HashMap;
use std::sync::Arc;

use ipd_hdl::{LogicVec, PortDir};
use ipd_sim::graph::{NetlistGraph, SeqKind};
use ipd_techlib::FlatIndex;

use crate::aig::{Aig, Lit};
use crate::cec::{check_pairs, CecOptions, CecResult, CecStats};
use crate::error::VerifyError;
use crate::lower::{lower_into, OutId};
use crate::replay;

/// How sequential elements are paired between the designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateMatch {
    /// Pair by hierarchical instance path (robust to reordering;
    /// requires stable names, which EDIF round-trips preserve).
    #[default]
    ByName,
    /// Pair by leaf order (robust to renaming; requires stable
    /// ordering).
    ByPosition,
}

/// Configuration for one equivalence check.
#[derive(Debug, Clone)]
pub struct EquivConfig {
    /// Explicit clock port; `None` auto-detects (`clk`, `c`,
    /// `clock`).
    pub clock: Option<String>,
    /// Sequential boundary pairing.
    pub state_match: StateMatch,
    /// PRNG seed for signature simulation.
    pub seed: u64,
    /// 256-pattern random simulation words per signature.
    pub sim_rounds: usize,
    /// Run the fraig sweep before the output miters.
    pub sweep: bool,
    /// Conflict budget per sweep query (0 = unlimited).
    pub sweep_conflict_limit: u64,
    /// Conflict budget per final output miter (0 = unlimited).
    pub final_conflict_limit: u64,
    /// Replay every counterexample through the scalar *and* compiled
    /// simulators before reporting (the differential honesty oracle).
    pub replay: bool,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            clock: None,
            state_match: StateMatch::ByName,
            seed: 0x51c3_a9e4_0b7d_2f18,
            sim_rounds: 2,
            sweep: true,
            sweep_conflict_limit: 2_000,
            final_conflict_limit: 0,
            replay: true,
        }
    }
}

/// One matched state element in a counterexample: the value the cut
/// assigns to it, under both designs' names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateAssign {
    /// Path in the golden design.
    pub golden_path: String,
    /// Path in the revised design (equal to `golden_path` under
    /// [`StateMatch::ByName`]).
    pub revised_path: String,
    /// Assigned state value (width 1 for FFs, 16 for memories).
    pub value: LogicVec,
}

/// A distinguishing assignment over the matched cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The differing output function (golden-side naming), e.g.
    /// `y[3]` or `next(top/acc/ff0)[0]`.
    pub function: String,
    /// Input port assignments (clock excluded).
    pub inputs: Vec<(String, LogicVec)>,
    /// State assignments across the register cut.
    pub state: Vec<StateAssign>,
    /// The function's value in the golden design.
    pub golden_value: bool,
    /// The function's value in the revised design.
    pub revised_value: bool,
}

/// The verdict of a completed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivVerdict {
    /// All output and next-state functions proved equal over the
    /// matched cut.
    Equivalent,
    /// A distinguishing assignment exists (replay-confirmed when
    /// replay is enabled).
    NotEquivalent(Box<Counterexample>),
}

/// A completed equivalence check with engine statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Proved equivalent, or the counterexample.
    pub verdict: EquivVerdict,
    /// How the proof was discharged.
    pub stats: CecStats,
}

impl EquivReport {
    /// `true` when the designs proved equivalent.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        matches!(self.verdict, EquivVerdict::Equivalent)
    }
}

/// What one shared AIG input feeds.
enum CutIn {
    Port { port: usize, bit: usize },
    State { pair: usize, bit: usize },
}

/// Checks two indexed designs for equivalence over their matched
/// primary I/O and register cut.
///
/// # Errors
///
/// Boundary mismatches, combinational loops, black boxes, undriven
/// nets, SAT resource exhaustion, and replay-oracle disagreements all
/// refuse the check; see [`VerifyError`]. A *completed* check that
/// finds the designs different returns
/// [`EquivVerdict::NotEquivalent`], not an error.
pub fn check_equiv(
    golden: &FlatIndex<'_>,
    revised: &FlatIndex<'_>,
    cfg: &EquivConfig,
) -> Result<EquivReport, VerifyError> {
    let clock = cfg.clock.as_deref();
    let g_graph = Arc::new(NetlistGraph::build(golden, clock)?);
    let r_graph = Arc::new(NetlistGraph::build(revised, clock)?);

    match_ports(&g_graph, &r_graph)?;
    let pairs = match_state(&g_graph, &r_graph, cfg.state_match)?;

    // Shared cut inputs: primary-input bits (clock excluded), then
    // state bits pair by pair.
    let mut aig = Aig::new();
    let mut cut_ins: Vec<CutIn> = Vec::new();
    let mut port_lit: HashMap<(String, usize), Lit> = HashMap::new();
    let input_ports: Vec<(usize, String, usize)> = g_graph
        .ports
        .iter()
        .enumerate()
        .filter(|(_, p)| p.dir == PortDir::Input)
        .filter(|(_, p)| !p.nets.iter().all(|&n| g_graph.is_clock_net(n)))
        .map(|(i, p)| (i, p.name.clone(), p.nets.len()))
        .collect();
    for (pi, name, width) in &input_ports {
        for bit in 0..*width {
            let lit = aig.input();
            port_lit.insert((name.clone(), bit), lit);
            cut_ins.push(CutIn::Port { port: *pi, bit });
        }
    }
    let mut g_state_lit: HashMap<(String, usize), Lit> = HashMap::new();
    let mut r_state_lit: HashMap<(String, usize), Lit> = HashMap::new();
    for (pair_idx, (g_elem, r_elem)) in pairs.iter().enumerate() {
        let bits = g_graph.seq[*g_elem].state_bits();
        for bit in 0..bits {
            let lit = aig.input();
            g_state_lit.insert((g_graph.state_paths[*g_elem].clone(), bit), lit);
            r_state_lit.insert((r_graph.state_paths[*r_elem].clone(), bit), lit);
            cut_ins.push(CutIn::State {
                pair: pair_idx,
                bit,
            });
        }
    }

    // Lower both designs over the shared cut.
    let g_outs = lower_into(
        &mut aig,
        &g_graph,
        golden.flat().design_name(),
        &port_lit,
        &g_state_lit,
    )?;
    let r_outs = lower_into(
        &mut aig,
        &r_graph,
        revised.flat().design_name(),
        &port_lit,
        &r_state_lit,
    )?;

    // Join output functions under golden-side naming: revised state
    // paths translate through the pairing.
    let r_path_to_g: HashMap<&str, &str> = pairs
        .iter()
        .map(|(g, r)| {
            (
                r_graph.state_paths[*r].as_str(),
                g_graph.state_paths[*g].as_str(),
            )
        })
        .collect();
    let mut r_by_id: HashMap<OutId, Lit> = HashMap::new();
    for out in &r_outs {
        let id = match &out.id {
            OutId::Port { port, bit } => OutId::Port {
                port: port.clone(),
                bit: *bit,
            },
            OutId::NextState { path, bit } => OutId::NextState {
                path: (*r_path_to_g.get(path.as_str()).expect("paired state path")).to_owned(),
                bit: *bit,
            },
        };
        r_by_id.insert(id, out.lit);
    }
    let mut miter_pairs: Vec<(Lit, Lit)> = Vec::with_capacity(g_outs.len());
    let mut labels: Vec<String> = Vec::with_capacity(g_outs.len());
    let mut ids: Vec<OutId> = Vec::with_capacity(g_outs.len());
    for out in &g_outs {
        let r_lit = r_by_id
            .get(&out.id)
            .copied()
            .ok_or_else(|| VerifyError::StateMismatch {
                detail: format!("revised design lacks function {}", out.id.display()),
            })?;
        miter_pairs.push((out.lit, r_lit));
        labels.push(out.id.display());
        ids.push(out.id.clone());
    }

    let cec_opts = CecOptions {
        seed: cfg.seed,
        sim_rounds: cfg.sim_rounds,
        sweep: cfg.sweep,
        sweep_conflict_limit: cfg.sweep_conflict_limit,
        final_conflict_limit: cfg.final_conflict_limit,
    };
    let (result, stats) = check_pairs(&aig, &miter_pairs, &labels, &cec_opts)?;

    let verdict = match result {
        CecResult::Equivalent => EquivVerdict::Equivalent,
        CecResult::Counterexample(raw) => {
            // Decode the flat input pattern into port/state values.
            let mut port_vals: Vec<LogicVec> = input_ports
                .iter()
                .map(|(_, _, w)| LogicVec::zeros(*w))
                .collect();
            let mut state_vals: Vec<LogicVec> = pairs
                .iter()
                .map(|(g, _)| LogicVec::zeros(g_graph.seq[*g].state_bits()))
                .collect();
            for (k, cut) in cut_ins.iter().enumerate() {
                let v = ipd_hdl::Logic::from_bool(raw.inputs[k]);
                match cut {
                    CutIn::Port { port, bit } => {
                        let pos = input_ports
                            .iter()
                            .position(|(pi, _, _)| pi == port)
                            .expect("input port recorded");
                        port_vals[pos].set_bit(*bit, v);
                    }
                    CutIn::State { pair, bit } => state_vals[*pair].set_bit(*bit, v),
                }
            }
            let inputs: Vec<(String, LogicVec)> = input_ports
                .iter()
                .zip(&port_vals)
                .map(|((_, name, _), v)| (name.clone(), v.clone()))
                .collect();
            let state: Vec<StateAssign> = pairs
                .iter()
                .zip(&state_vals)
                .map(|((g, r), v)| StateAssign {
                    golden_path: g_graph.state_paths[*g].clone(),
                    revised_path: r_graph.state_paths[*r].clone(),
                    value: v.clone(),
                })
                .collect();
            let cex = Counterexample {
                function: labels[raw.pair].clone(),
                inputs,
                state,
                golden_value: raw.golden_value,
                revised_value: raw.revised_value,
            };
            if cfg.replay {
                replay::confirm(&g_graph, &r_graph, &cex, &ids[raw.pair])?;
            }
            EquivVerdict::NotEquivalent(Box::new(cex))
        }
    };
    Ok(EquivReport { verdict, stats })
}

/// Validates that the primary port boundaries agree.
fn match_ports(g: &NetlistGraph, r: &NetlistGraph) -> Result<(), VerifyError> {
    let shape = |graph: &NetlistGraph| -> Vec<(String, PortDir, usize)> {
        let mut v: Vec<_> = graph
            .ports
            .iter()
            .map(|p| (p.name.clone(), p.dir, p.nets.len()))
            .collect();
        v.sort();
        v
    };
    let gs = shape(g);
    let rs = shape(r);
    if gs != rs {
        for (a, b) in gs.iter().zip(rs.iter()) {
            if a != b {
                return Err(VerifyError::PortMismatch {
                    detail: format!(
                        "golden has {} {:?}[{}], revised has {} {:?}[{}]",
                        a.0, a.1, a.2, b.0, b.1, b.2
                    ),
                });
            }
        }
        return Err(VerifyError::PortMismatch {
            detail: format!("golden has {} ports, revised {}", gs.len(), rs.len()),
        });
    }
    Ok(())
}

/// Shape of one sequential element for boundary comparison.
fn seq_shape(kind: &SeqKind) -> (usize, String) {
    match kind {
        SeqKind::Ff { init, .. } => (1, format!("ff init={init:?}")),
        SeqKind::Srl16 { init, .. } => (16, format!("srl16 init={init:#06x}")),
        SeqKind::Ram16 { init, .. } => (16, format!("ram16 init={init:#06x}")),
    }
}

/// Pairs sequential elements between the designs; returns index pairs
/// (golden, revised) into the respective `seq` lists.
fn match_state(
    g: &NetlistGraph,
    r: &NetlistGraph,
    mode: StateMatch,
) -> Result<Vec<(usize, usize)>, VerifyError> {
    if g.seq.len() != r.seq.len() {
        return Err(VerifyError::StateMismatch {
            detail: format!(
                "golden has {} sequential elements, revised {}",
                g.seq.len(),
                r.seq.len()
            ),
        });
    }
    let pairs: Vec<(usize, usize)> = match mode {
        StateMatch::ByPosition => (0..g.seq.len()).map(|i| (i, i)).collect(),
        StateMatch::ByName => {
            let mut gi: Vec<usize> = (0..g.seq.len()).collect();
            let mut ri: Vec<usize> = (0..r.seq.len()).collect();
            gi.sort_by(|&a, &b| g.state_paths[a].cmp(&g.state_paths[b]));
            ri.sort_by(|&a, &b| r.state_paths[a].cmp(&r.state_paths[b]));
            for (&a, &b) in gi.iter().zip(ri.iter()) {
                if g.state_paths[a] != r.state_paths[b] {
                    return Err(VerifyError::StateMismatch {
                        detail: format!(
                            "no match for state element '{}' vs '{}'",
                            g.state_paths[a], r.state_paths[b]
                        ),
                    });
                }
            }
            gi.into_iter().zip(ri).collect()
        }
    };
    for &(a, b) in &pairs {
        let sa = seq_shape(&g.seq[a]);
        let sb = seq_shape(&r.seq[b]);
        if sa != sb {
            return Err(VerifyError::StateMismatch {
                detail: format!(
                    "'{}' is {} but '{}' is {}",
                    g.state_paths[a], sa.1, r.state_paths[b], sb.1
                ),
            });
        }
    }
    Ok(pairs)
}
