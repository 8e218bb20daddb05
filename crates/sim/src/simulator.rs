//! The cycle-based four-state simulator.

use std::collections::HashMap;
use std::sync::Arc;

use ipd_hdl::{Circuit, Logic, LogicVec, NetId, PortDir};
use ipd_techlib::FfControl;

use crate::error::SimError;
use crate::graph::{CombKind, NetlistGraph, SeqKind};
use crate::waveform::Trace;

/// State storage for one sequential element.
#[derive(Debug, Clone)]
enum StateCell {
    /// Flip-flop bit.
    Bit(Logic),
    /// 16-bit memory/shift-register word, index 0 = oldest/address 0.
    Word([Logic; 16]),
}

/// An interactive, cycle-based simulator over the flattened design.
///
/// The simulator mirrors the JHDL design suite's built-in simulator as
/// used inside IP evaluation applets: drive primary inputs with
/// [`Simulator::set`], advance the global clock with
/// [`Simulator::cycle`], observe ports, internal nets and memory
/// contents, record waveforms, and [`Simulator::reset`] back to
/// power-on state.
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Circuit, PortSpec};
/// use ipd_sim::Simulator;
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("toggle");
/// let mut ctx = circuit.root_ctx();
/// let clk = ctx.add_port(PortSpec::input("clk", 1))?;
/// let q = ctx.add_port(PortSpec::output("q", 1))?;
/// let nq = ctx.wire("nq", 1);
/// ctx.inv(q, nq)?;
/// ctx.fd(clk, nq, q)?;
///
/// let mut sim = Simulator::new(&circuit)?;
/// assert_eq!(sim.peek("q")?.to_u64(), Some(0));
/// sim.cycle(1)?;
/// assert_eq!(sim.peek("q")?.to_u64(), Some(1));
/// sim.cycle(2)?;
/// assert_eq!(sim.peek("q")?.to_u64(), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    graph: Arc<NetlistGraph>,
    nets: Vec<Logic>,
    states: Vec<StateCell>,
    input_values: HashMap<String, LogicVec>,
    dirty: bool,
    cycle_count: u64,
    traces: Vec<Trace>,
    /// Nets recorded per trace (parallel to `traces`).
    trace_nets: Vec<Vec<NetId>>,
}

impl Simulator {
    /// Compiles a circuit for simulation, auto-detecting the clock
    /// (an input named `clk`, `c` or `clock`).
    ///
    /// # Errors
    ///
    /// Fails on flattening errors, unknown primitives, multiple drivers,
    /// `inout` ports, or sequential primitives clocked from anything
    /// but the designated clock.
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        Ok(Self::from_graph(NetlistGraph::compile(circuit, None)?))
    }

    /// Compiles a circuit with an explicit clock port.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`].
    pub fn with_clock(circuit: &Circuit, clock_port: &str) -> Result<Self, SimError> {
        Ok(Self::from_graph(NetlistGraph::compile(
            circuit,
            Some(clock_port),
        )?))
    }

    /// A simulator over an already-compiled design, which it shares
    /// (a [`VectorSweep`](crate::VectorSweep) can run the same one).
    #[must_use]
    pub fn from_graph(graph: Arc<NetlistGraph>) -> Self {
        let mut sim = Simulator {
            nets: vec![Logic::X; graph.net_count],
            states: Vec::new(),
            input_values: HashMap::new(),
            dirty: true,
            cycle_count: 0,
            traces: Vec::new(),
            trace_nets: Vec::new(),
            graph,
        };
        sim.power_on();
        sim
    }

    /// `true` when the combinational network was fully levelized (no
    /// combinational cycles; fastest mode).
    #[must_use]
    pub fn is_levelized(&self) -> bool {
        self.graph.levelized()
    }

    /// Cycles simulated since power-on or the last [`Simulator::reset`].
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycle_count
    }

    /// Names and directions of the primary ports.
    #[must_use]
    pub fn ports(&self) -> Vec<(String, PortDir, u32)> {
        self.graph
            .ports
            .iter()
            .map(|p| (p.name.clone(), p.dir, p.nets.len() as u32))
            .collect()
    }

    fn power_on(&mut self) {
        self.nets.fill(Logic::X);
        self.states.clear();
        for elem in &self.graph.seq {
            match elem {
                SeqKind::Ff { init, .. } => self.states.push(StateCell::Bit(*init)),
                SeqKind::Srl16 { init, .. } | SeqKind::Ram16 { init, .. } => {
                    let mut word = [Logic::Zero; 16];
                    for (i, bit) in word.iter_mut().enumerate() {
                        *bit = Logic::from_bool((init >> i) & 1 == 1);
                    }
                    self.states.push(StateCell::Word(word));
                }
            }
        }
        for &(net, v) in &self.graph.const_drives {
            self.nets[net.index()] = v;
        }
        for &net in &self.graph.black_box_outputs {
            self.nets[net.index()] = Logic::X;
        }
        self.drive_state_outputs();
        // Clock nets idle low between edges.
        for &net in &self.graph.clock_nets {
            self.nets[net.index()] = Logic::Zero;
        }
        self.dirty = true;
    }

    /// Resets all sequential state to power-on values, keeping the
    /// current input assignments (the applet's *Reset* button).
    pub fn reset(&mut self) {
        let inputs = std::mem::take(&mut self.input_values);
        self.power_on();
        self.cycle_count = 0;
        for (port, value) in inputs {
            // Re-apply saved inputs; widths were validated on set.
            let _ = self.set(&port, value);
        }
    }

    /// Drives a primary input port with a value.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports, non-inputs and width mismatches.
    pub fn set(&mut self, port: &str, value: LogicVec) -> Result<(), SimError> {
        let info = self
            .graph
            .ports
            .iter()
            .find(|p| p.name == port)
            .ok_or_else(|| SimError::UnknownPort {
                port: port.to_owned(),
            })?;
        if info.dir != PortDir::Input {
            return Err(SimError::NotAnInput {
                port: port.to_owned(),
            });
        }
        if info.nets.len() != value.width() {
            return Err(SimError::WidthMismatch {
                port: port.to_owned(),
                expected: info.nets.len() as u32,
                found: value.width() as u32,
            });
        }
        for (i, &net) in info.nets.iter().enumerate() {
            self.nets[net.index()] = value.bit(i);
        }
        self.input_values.insert(port.to_owned(), value);
        self.dirty = true;
        Ok(())
    }

    /// Convenience: drives a port with an unsigned integer.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::set`].
    pub fn set_u64(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let width = self.port_width(port)?;
        self.set(port, LogicVec::from_u64(value, width as usize))
    }

    /// Convenience: drives a port with a signed integer (two's
    /// complement).
    ///
    /// # Errors
    ///
    /// As for [`Simulator::set`].
    pub fn set_i64(&mut self, port: &str, value: i64) -> Result<(), SimError> {
        let width = self.port_width(port)?;
        self.set(port, LogicVec::from_i64(value, width as usize))
    }

    fn port_width(&self, port: &str) -> Result<u32, SimError> {
        self.graph
            .ports
            .iter()
            .find(|p| p.name == port)
            .map(|p| p.nets.len() as u32)
            .ok_or_else(|| SimError::UnknownPort {
                port: port.to_owned(),
            })
    }

    /// Reads the current value of any primary port.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports or if combinational settling oscillates.
    pub fn peek(&mut self, port: &str) -> Result<LogicVec, SimError> {
        self.ensure_settled()?;
        let info = self
            .graph
            .ports
            .iter()
            .find(|p| p.name == port)
            .ok_or_else(|| SimError::UnknownPort {
                port: port.to_owned(),
            })?;
        Ok(info.nets.iter().map(|n| self.nets[n.index()]).collect())
    }

    /// Reads one internal net by hierarchical name.
    ///
    /// # Errors
    ///
    /// Fails for unknown nets or if settling oscillates.
    pub fn peek_net(&mut self, net: &str) -> Result<Logic, SimError> {
        self.ensure_settled()?;
        let id = self
            .graph
            .name_to_net
            .get(net)
            .copied()
            .ok_or_else(|| SimError::UnknownNet {
                net: net.to_owned(),
            })?;
        Ok(self.nets[id.index()])
    }

    /// Reads the 16-bit contents of a shift register or RAM by instance
    /// path (the JHDL memory viewer).
    #[must_use]
    pub fn memory(&self, instance_path: &str) -> Option<LogicVec> {
        let idx = self.graph.state_index(instance_path)?;
        match &self.states[idx] {
            StateCell::Word(word) => Some(word.iter().copied().collect()),
            StateCell::Bit(_) => None,
        }
    }

    /// Lists the instance paths of all stateful elements (flip-flops,
    /// shift registers, RAMs).
    #[must_use]
    pub fn state_elements(&self) -> &[String] {
        &self.graph.state_paths
    }

    /// Advances the global clock by `n` cycles.
    ///
    /// # Errors
    ///
    /// Fails if combinational settling oscillates.
    pub fn cycle(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.one_cycle()?;
        }
        Ok(())
    }

    fn one_cycle(&mut self) -> Result<(), SimError> {
        self.ensure_settled()?;
        // Capture next state from pre-edge values.
        let mut next: Vec<StateCell> = self.states.clone();
        for (state, elem) in self.graph.seq.iter().enumerate() {
            match elem {
                SeqKind::Ff { d, ce, control, .. } => {
                    let cur = match self.states[state] {
                        StateCell::Bit(v) => v,
                        StateCell::Word(_) => unreachable!("ff state is a bit"),
                    };
                    let d = self.nets[d.index()];
                    let mut value = match ce.map(|c| self.nets[c.index()]) {
                        None => d,
                        Some(Logic::One) => d,
                        Some(Logic::Zero) => cur,
                        Some(_) => Logic::X,
                    };
                    if let Some((kind, net)) = control {
                        match (kind, self.nets[net.index()]) {
                            (_, Logic::One) => value = Logic::Zero,
                            (_, Logic::Zero) => {}
                            (FfControl::AsyncClear | FfControl::SyncReset, _) => value = Logic::X,
                            (FfControl::None, _) => {}
                        }
                    }
                    next[state] = StateCell::Bit(value);
                }
                SeqKind::Srl16 { d, ce, .. } => {
                    let StateCell::Word(cur) = &self.states[state] else {
                        unreachable!("srl state is a word")
                    };
                    let mut word = *cur;
                    match self.nets[ce.index()] {
                        Logic::One => {
                            for i in (1..16).rev() {
                                word[i] = word[i - 1];
                            }
                            word[0] = self.nets[d.index()];
                        }
                        Logic::Zero => {}
                        _ => word = [Logic::X; 16],
                    }
                    next[state] = StateCell::Word(word);
                }
                SeqKind::Ram16 { d, we, addr, .. } => {
                    let StateCell::Word(cur) = &self.states[state] else {
                        unreachable!("ram state is a word")
                    };
                    let mut word = *cur;
                    match self.nets[we.index()] {
                        Logic::One => {
                            let mut idx = 0usize;
                            let mut known = true;
                            for (i, a) in addr.iter().enumerate() {
                                match self.nets[a.index()].to_bool() {
                                    Some(true) => idx |= 1 << i,
                                    Some(false) => {}
                                    None => known = false,
                                }
                            }
                            if known {
                                word[idx] = self.nets[d.index()];
                            } else {
                                word = [Logic::X; 16];
                            }
                        }
                        Logic::Zero => {}
                        _ => word = [Logic::X; 16],
                    }
                    next[state] = StateCell::Word(word);
                }
            }
        }
        self.states = next;
        self.drive_state_outputs();
        self.dirty = true;
        self.ensure_settled()?;
        self.cycle_count += 1;
        self.sample_traces();
        Ok(())
    }

    fn drive_state_outputs(&mut self) {
        for (state, elem) in self.graph.seq.iter().enumerate() {
            if let SeqKind::Ff { q, .. } = elem {
                if let StateCell::Bit(v) = self.states[state] {
                    self.nets[q.index()] = v;
                }
            }
        }
    }

    fn ensure_settled(&mut self) -> Result<(), SimError> {
        if !self.dirty {
            return Ok(());
        }
        if self.graph.levelized() {
            // One topological pass is exact.
            for i in 0..self.graph.eval_order.len() {
                let value = self.eval_node(i);
                let out = self.graph.eval_order[i].output;
                self.nets[out.index()] = value;
            }
        } else {
            let limit = 2 * self.graph.eval_order.len() + 8;
            let mut pass = 0;
            loop {
                let mut changed_net: Option<NetId> = None;
                for i in 0..self.graph.eval_order.len() {
                    let value = self.eval_node(i);
                    let out = self.graph.eval_order[i].output;
                    if self.nets[out.index()] != value {
                        self.nets[out.index()] = value;
                        changed_net = Some(out);
                    }
                }
                match changed_net {
                    None => break,
                    Some(net) => {
                        pass += 1;
                        if pass > limit {
                            return Err(SimError::Oscillation {
                                net: self.graph.net_names[net.index()].clone(),
                            });
                        }
                    }
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    fn eval_node(&self, index: usize) -> Logic {
        let node = &self.graph.eval_order[index];
        match &node.kind {
            CombKind::Prim(kind) => {
                let inputs: Vec<Logic> = node.inputs.iter().map(|n| self.nets[n.index()]).collect();
                kind.eval_comb(&inputs)
            }
            CombKind::SrlRead { seq } | CombKind::RamRead { seq } => {
                let StateCell::Word(word) = &self.states[*seq] else {
                    return Logic::X;
                };
                let mut addr = [Logic::X; 4];
                for (a, n) in addr.iter_mut().zip(&node.inputs) {
                    *a = self.nets[n.index()];
                }
                word_read(&addr, word)
            }
        }
    }

    /// Starts recording a waveform for a primary port.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports.
    pub fn record(&mut self, port: &str) -> Result<(), SimError> {
        let info = self
            .graph
            .ports
            .iter()
            .find(|p| p.name == port)
            .ok_or_else(|| SimError::UnknownPort {
                port: port.to_owned(),
            })?;
        self.traces.push(Trace::new(port, info.nets.len()));
        self.trace_nets.push(info.nets.clone());
        Ok(())
    }

    /// Starts recording a waveform for an internal net.
    ///
    /// # Errors
    ///
    /// Fails for unknown nets.
    pub fn record_net(&mut self, net: &str) -> Result<(), SimError> {
        let id = self
            .graph
            .name_to_net
            .get(net)
            .copied()
            .ok_or_else(|| SimError::UnknownNet {
                net: net.to_owned(),
            })?;
        self.traces.push(Trace::new(net, 1));
        self.trace_nets.push(vec![id]);
        Ok(())
    }

    fn sample_traces(&mut self) {
        for (trace, nets) in self.traces.iter_mut().zip(&self.trace_nets) {
            let value: LogicVec = nets.iter().map(|n| self.nets[n.index()]).collect();
            trace.push(value);
        }
    }

    /// The recorded waveforms, in recording order.
    #[must_use]
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Cycles until `port` reads `value`, up to `max_cycles`.
    ///
    /// Returns the number of cycles consumed (0 if the condition
    /// already holds).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget is exhausted, plus
    /// any port/settling errors.
    pub fn run_until(
        &mut self,
        port: &str,
        value: &LogicVec,
        max_cycles: u64,
    ) -> Result<u64, SimError> {
        for elapsed in 0..=max_cycles {
            if &self.peek(port)? == value {
                return Ok(elapsed);
            }
            if elapsed < max_cycles {
                self.one_cycle()?;
            }
        }
        Err(SimError::Timeout {
            port: port.to_owned(),
            cycles: max_cycles,
        })
    }

    /// Reads a flip-flop's current state by instance path (the memory
    /// viewer's register pane).
    #[must_use]
    pub fn ff_state(&self, instance_path: &str) -> Option<Logic> {
        let idx = self.graph.state_index(instance_path)?;
        match self.states[idx] {
            StateCell::Bit(v) => Some(v),
            StateCell::Word(_) => None,
        }
    }

    /// Forces a flip-flop's current state by instance path, driving
    /// its output net so downstream logic observes the forced value at
    /// the next settle (testbench and counterexample-replay back
    /// door).
    ///
    /// Returns `false` when the path names no flip-flop.
    pub fn set_ff(&mut self, instance_path: &str, value: Logic) -> bool {
        let Some(idx) = self.graph.state_index(instance_path) else {
            return false;
        };
        let StateCell::Bit(bit) = &mut self.states[idx] else {
            return false;
        };
        *bit = value;
        self.drive_state_outputs();
        self.dirty = true;
        true
    }

    /// Overwrites the 16-bit contents of a shift register or RAM by
    /// instance path (testbench back-door initialization).
    ///
    /// Returns `false`, leaving the contents unchanged, when the path
    /// names no word-state element or `value` is not 16 bits wide.
    pub fn set_memory(&mut self, instance_path: &str, value: &LogicVec) -> bool {
        if value.width() != 16 {
            return false;
        }
        let Some(idx) = self.graph.state_index(instance_path) else {
            return false;
        };
        let StateCell::Word(word) = &mut self.states[idx] else {
            return false;
        };
        for (i, slot) in word.iter_mut().enumerate() {
            *slot = value.bit(i);
        }
        self.dirty = true;
        true
    }
}

/// Asynchronous 16×1 word read (SRL16 tap, RAM16 read) with a
/// LSB-first address: a known address selects its word bit; an
/// unknown one reads the common value when all 16 bits are driven and
/// agree, else `X`.
pub(crate) fn word_read(addr: &[Logic; 4], word: &[Logic; 16]) -> Logic {
    let mut idx = 0usize;
    for (i, a) in addr.iter().enumerate() {
        match a.to_bool() {
            Some(true) => idx |= 1 << i,
            Some(false) => {}
            None => {
                // If every word bit agrees the address is irrelevant.
                let first = word[0];
                return if first.is_driven() && word.iter().all(|&b| b == first) {
                    first
                } else {
                    Logic::X
                };
            }
        }
    }
    word[idx]
}
