//! Counterexample honesty: differential replay through two
//! independent simulation engines.
//!
//! A SAT counterexample is a claim about a design's behaviour, and
//! the claim is only as good as the lowering that produced it. Before
//! any counterexample leaves this crate, it is replayed — inputs set,
//! register cut forced through the state back doors, outputs peeked
//! (or one clock edge stepped for next-state functions) — through the
//! scalar [`Simulator`] *and* the bit-parallel [`CompiledSimulator`],
//! on both designs. The two engines share only the compiled netlist
//! model; one evaluates each primitive's four-state truth table, the
//! other runs word-wide bytecode kernels. Any disagreement between the
//! SAT model and either engine is reported as a loud
//! [`VerifyError::OracleDisagreement`] internal error rather than a
//! bogus verdict.

use std::sync::Arc;

use ipd_hdl::{Logic, LogicVec};
use ipd_sim::{CompiledSimulator, NetlistGraph, SimError, Simulator};

use crate::equiv::{Counterexample, StateAssign};
use crate::error::VerifyError;
use crate::lower::OutId;
use crate::oracle::{Witness, WitnessCheck};

/// The simulator surface replay needs, so both engines run the exact
/// same script. Replay drives one stimulus: the scalar engine's only
/// one, lane 0 of the compiled engine.
trait ReplaySim {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError>;
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError>;
    fn cycle(&mut self, n: u64) -> Result<(), SimError>;
    fn ff_state(&self, path: &str) -> Option<Logic>;
    fn memory(&self, path: &str) -> Option<LogicVec>;
    fn set_ff(&mut self, path: &str, value: Logic) -> bool;
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool;
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError>;
}

impl ReplaySim for Simulator {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError> {
        Simulator::set(self, port, value.clone())
    }
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError> {
        Simulator::peek(self, port)
    }
    fn cycle(&mut self, n: u64) -> Result<(), SimError> {
        Simulator::cycle(self, n)
    }
    fn ff_state(&self, path: &str) -> Option<Logic> {
        Simulator::ff_state(self, path)
    }
    fn memory(&self, path: &str) -> Option<LogicVec> {
        Simulator::memory(self, path)
    }
    fn set_ff(&mut self, path: &str, value: Logic) -> bool {
        Simulator::set_ff(self, path, value)
    }
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool {
        Simulator::set_memory(self, path, value)
    }
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError> {
        Simulator::peek_net(self, net)
    }
}

impl ReplaySim for CompiledSimulator {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError> {
        self.set_lane(port, 0, value)
    }
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError> {
        self.peek_lane(port, 0)
    }
    fn cycle(&mut self, n: u64) -> Result<(), SimError> {
        CompiledSimulator::cycle(self, n)
    }
    fn ff_state(&self, path: &str) -> Option<Logic> {
        self.ff_state_lane(path, 0)
    }
    fn memory(&self, path: &str) -> Option<LogicVec> {
        self.memory_lane(path, 0)
    }
    fn set_ff(&mut self, path: &str, value: Logic) -> bool {
        self.set_ff_lane(path, 0, value)
    }
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool {
        self.set_memory_lane(path, 0, value)
    }
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError> {
        self.peek_net_lane(net, 0)
    }
}

/// Confirms a counterexample against both engines on both designs,
/// each compiled once by the caller (the graphs the check lowered).
///
/// # Errors
///
/// [`VerifyError::OracleDisagreement`] when any engine observes a
/// value other than the SAT model's prediction; [`VerifyError::Sim`]
/// when replay itself cannot run.
pub fn confirm(
    golden: &Arc<NetlistGraph>,
    revised: &Arc<NetlistGraph>,
    cex: &Counterexample,
    id: &OutId,
) -> Result<(), VerifyError> {
    // The revised design addresses its own state paths.
    let revised_id = match id {
        OutId::Port { .. } => id.clone(),
        OutId::NextState { path, bit } => {
            let sa = cex
                .state
                .iter()
                .find(|s| &s.golden_path == path)
                .expect("counterexample covers the matched cut");
            OutId::NextState {
                path: sa.revised_path.clone(),
                bit: *bit,
            }
        }
    };
    for (graph, target, expected, side, by_golden_path) in [
        (golden, id, cex.golden_value, "golden", true),
        (revised, &revised_id, cex.revised_value, "revised", false),
    ] {
        let mut scalar = Simulator::from_graph(Arc::clone(graph));
        replay_one(
            &mut scalar,
            "scalar",
            cex,
            target,
            expected,
            side,
            by_golden_path,
        )?;
        let mut compiled = CompiledSimulator::from_graph(Arc::clone(graph), 1)?;
        replay_one(
            &mut compiled,
            "compiled",
            cex,
            target,
            expected,
            side,
            by_golden_path,
        )?;
    }
    Ok(())
}

fn state_path(sa: &StateAssign, by_golden_path: bool) -> &str {
    if by_golden_path {
        &sa.golden_path
    } else {
        &sa.revised_path
    }
}

fn replay_one(
    sim: &mut dyn ReplaySim,
    oracle: &str,
    cex: &Counterexample,
    target: &OutId,
    expected: bool,
    side: &str,
    by_golden_path: bool,
) -> Result<(), VerifyError> {
    let function = format!("{side}:{}", target.display());
    let disagree = |observed: String| VerifyError::OracleDisagreement {
        oracle: oracle.to_owned(),
        function: function.clone(),
        expected: if expected { "1".into() } else { "0".into() },
        observed,
    };
    for (port, value) in &cex.inputs {
        sim.set(port, value)?;
    }
    for sa in &cex.state {
        let path = state_path(sa, by_golden_path);
        let forced = if sa.value.width() == 1 {
            sim.set_ff(path, sa.value.bit(0))
        } else {
            sim.set_memory(path, &sa.value)
        };
        if !forced {
            return Err(disagree(format!("state back door refused '{path}'")));
        }
    }
    let observed = match target {
        OutId::Port { port, bit } => sim.peek(port)?.bit(*bit),
        OutId::NextState { path, bit } => {
            sim.cycle(1)?;
            if *bit == 0 {
                if let Some(v) = sim.ff_state(path) {
                    v
                } else if let Some(word) = sim.memory(path) {
                    word.bit(*bit)
                } else {
                    return Err(disagree(format!("state element '{path}' not found")));
                }
            } else if let Some(word) = sim.memory(path) {
                word.bit(*bit)
            } else {
                return Err(disagree(format!("state element '{path}' not found")));
            }
        }
    };
    if observed != Logic::from_bool(expected) {
        return Err(disagree(format!("{observed:?}")));
    }
    Ok(())
}

/// Confirms an [`Oracle`](crate::Oracle) witness against both engines
/// on the oracle's compiled design: inputs set, state forced, the
/// claimed net (and its partner, for equality refutations) peeked.
///
/// # Errors
///
/// [`VerifyError::OracleDisagreement`] when either engine observes a
/// value other than the witness's prediction; [`VerifyError::Sim`]
/// when replay itself cannot run.
pub(crate) fn confirm_witness(graph: &Arc<NetlistGraph>, w: &Witness) -> Result<(), VerifyError> {
    let mut scalar = Simulator::from_graph(Arc::clone(graph));
    replay_witness(&mut scalar, "scalar", w)?;
    let mut compiled = CompiledSimulator::from_graph(Arc::clone(graph), 1)?;
    replay_witness(&mut compiled, "compiled", w)?;
    Ok(())
}

/// Two observations agree when equal — or when an expected `X`
/// meets any undriven value (the engines distinguish `X`/`Z`, the
/// dual-rail encoding only tracks known/unknown).
fn witness_agrees(expected: Logic, observed: Logic) -> bool {
    if expected.is_driven() {
        observed == expected
    } else {
        !observed.is_driven()
    }
}

fn apply_witness(sim: &mut dyn ReplaySim, w: &Witness) -> Result<(), VerifyError> {
    for (port, value) in &w.inputs {
        sim.set(port, value)?;
    }
    for (path, value) in &w.state {
        let forced = if value.width() == 1 {
            sim.set_ff(path, value.bit(0))
        } else {
            sim.set_memory(path, value)
        };
        if !forced {
            return Err(VerifyError::OracleDisagreement {
                oracle: "replay".into(),
                function: w.net.clone(),
                expected: "forcible state".into(),
                observed: format!("state back door refused '{path}'"),
            });
        }
    }
    Ok(())
}

fn replay_witness(sim: &mut dyn ReplaySim, oracle: &str, w: &Witness) -> Result<(), VerifyError> {
    let disagree = |expected: String, observed: String| VerifyError::OracleDisagreement {
        oracle: oracle.to_owned(),
        function: w.net.clone(),
        expected,
        observed,
    };
    match &w.check {
        WitnessCheck::NetEquals { value } => {
            apply_witness(sim, w)?;
            let observed = sim.peek_net(&w.net)?;
            if !witness_agrees(*value, observed) {
                return Err(disagree(format!("{value:?}"), format!("{observed:?}")));
            }
        }
        WitnessCheck::NetToggles {
            port,
            bit,
            low,
            high,
        } => {
            for (phase, expected) in [(Logic::Zero, *low), (Logic::One, *high)] {
                apply_witness(sim, w)?;
                let mut v = w
                    .inputs
                    .iter()
                    .find(|(p, _)| p == port)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        disagree(
                            format!("input port '{port}'"),
                            "missing from witness".into(),
                        )
                    })?;
                v.set_bit(*bit, phase);
                sim.set(port, &v)?;
                let observed = sim.peek_net(&w.net)?;
                if !witness_agrees(expected, observed) {
                    return Err(disagree(
                        format!("{expected:?} with {port}[{bit}]={phase:?}"),
                        format!("{observed:?}"),
                    ));
                }
            }
        }
        WitnessCheck::NetsDiffer {
            other,
            value,
            other_value,
        } => {
            apply_witness(sim, w)?;
            let observed = sim.peek_net(&w.net)?;
            if !witness_agrees(*value, observed) {
                return Err(disagree(format!("{value:?}"), format!("{observed:?}")));
            }
            let observed_other = sim.peek_net(other)?;
            if !witness_agrees(*other_value, observed_other) {
                return Err(disagree(
                    format!("{other_value:?} on '{other}'"),
                    format!("{observed_other:?}"),
                ));
            }
        }
    }
    Ok(())
}
