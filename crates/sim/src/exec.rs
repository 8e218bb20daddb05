//! The compiled execution engine: 256 stimulus lanes per pass over
//! flat bytecode.
//!
//! A [`CompiledSimulator`] runs the [`Program`](crate::program)
//! lowered from a compiled netlist:
//!
//! - **Four plane words per net.** Each net holds a [`Planes4`] — a
//!   value plane and an unknown plane of `[u64; 4]` each, i.e. 256
//!   lanes in one 64-byte struct. The four-state kernels live in
//!   [`rails`](crate::rails), written once for this engine and the
//!   never-`X` prover; this module supplies their plane carrier, so a
//!   kernel applies the rules of
//!   [`PrimKind::eval_comb`](ipd_techlib::PrimKind) word-wise and a
//!   lane is bit-identical to the scalar
//!   [`Simulator`](crate::Simulator). The unit tests check every
//!   lowered primitive against `eval_comb` over all four-state input
//!   combinations.
//! - **Straight-line dispatch.** Combinational settling walks the
//!   program's parallel arrays; there is no per-node `Vec` indirection,
//!   and a LUT folds a mux tree over its inputs (a Shannon expansion,
//!   so every lane sees the scalar cofactor analysis).
//! - **Flip-flop state lives in the q-net plane.** A flip-flop's
//!   output net has no combinational driver, so settling never writes
//!   it; the clock edge computes every next-state into scratch first
//!   (reading only pre-edge values) and then commits, so every element
//!   sees the pre-edge state without cloning the state vector each
//!   cycle.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, LogicVec, PortSpec};
//! use ipd_sim::CompiledSimulator;
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // y = a & b, evaluated for four input pairs at once.
//! let mut circuit = Circuit::new("and_gate");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let b = ctx.add_port(PortSpec::input("b", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.and2(a, b, y)?;
//!
//! let mut sim = CompiledSimulator::new(&circuit, 4)?;
//! for lane in 0..4 {
//!     sim.set_lane("a", lane, &LogicVec::from_u64(u64::from(lane >= 2), 1))?;
//!     sim.set_lane("b", lane, &LogicVec::from_u64(u64::from(lane % 2 == 1), 1))?;
//! }
//! let y: Vec<_> = (0..4).map(|l| sim.peek_lane("y", l).unwrap().to_u64()).collect();
//! assert_eq!(y, [Some(0), Some(0), Some(0), Some(1)]);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicColumn, LogicVec, PortDir};

use crate::error::SimError;
use crate::graph::NetlistGraph;
use crate::program::{OpTag, Program, StateSlot, NO_NET};
use crate::rails::{Rail, RailOps};

/// Maximum number of lanes a [`CompiledSimulator`] can hold (one bit
/// per lane in each of four 64-bit plane words).
pub const COMPILED_MAX_LANES: usize = 256;

/// Plane words per [`Planes4`].
const WORDS: usize = 4;

/// One four-state value in each of 256 lanes: a value plane and an
/// unknown plane of `[u64; 4]` each, one 64-byte struct.
pub(crate) type Planes4 = Rail<[u64; WORDS]>;

/// The plane carrier: one bit per lane, so every shared kernel runs
/// 256 lanes per call. It holds no state, so each call takes a fresh
/// one.
struct Planes;

impl RailOps for Planes {
    type Word = [u64; WORDS];
    const FALSE: Self::Word = [0; WORDS];
    const TRUE: Self::Word = [!0; WORDS];

    #[inline(always)]
    fn and(&mut self, a: Self::Word, b: Self::Word) -> Self::Word {
        std::array::from_fn(|w| a[w] & b[w])
    }

    #[inline(always)]
    fn or(&mut self, a: Self::Word, b: Self::Word) -> Self::Word {
        std::array::from_fn(|w| a[w] | b[w])
    }

    #[inline(always)]
    fn xor(&mut self, a: Self::Word, b: Self::Word) -> Self::Word {
        std::array::from_fn(|w| a[w] ^ b[w])
    }

    #[inline(always)]
    fn not(&self, a: Self::Word) -> Self::Word {
        a.map(|w| !w)
    }
}

impl Planes4 {
    /// The logic value in one lane.
    pub(crate) fn lane(self, lane: usize) -> Logic {
        let (w, bit) = (lane / 64, lane % 64);
        match ((self.v[w] >> bit) & 1, (self.u[w] >> bit) & 1) {
            (0, 0) => Logic::Zero,
            (1, 0) => Logic::One,
            (0, _) => Logic::X,
            _ => Logic::Z,
        }
    }

    /// This plane set with one lane replaced.
    pub(crate) fn with_lane(mut self, lane: usize, value: Logic) -> Self {
        let (w, bit) = (lane / 64, lane % 64);
        let mask = 1u64 << bit;
        let single = Planes4::splat::<Planes>(value);
        self.v[w] = (self.v[w] & !mask) | (single.v[w] & mask);
        self.u[w] = (self.u[w] & !mask) | (single.u[w] & mask);
        self
    }
}

/// Evaluates one bytecode node against the current net and word-state
/// planes. Free function so settling can split borrows of the
/// simulator.
#[inline]
fn eval_op(p: &Program, nets: &[Planes4], words: &[[Planes4; 16]], i: usize) -> Planes4 {
    let base = p.arg_base[i] as usize;
    let args = &p.args[base..];
    let n = |k: usize| nets[args[k] as usize];
    let init = || p.lut_init[p.aux[i] as usize];
    let o = &mut Planes;
    match p.tags[i] {
        OpTag::Not => n(0).not(o),
        OpTag::Buf => n(0).pess(o),
        OpTag::And2 | OpTag::MultAnd => n(0).and(o, n(1)),
        OpTag::And3 => n(0).and(o, n(1)).and(o, n(2)),
        OpTag::And4 => n(0).and(o, n(1)).and(o, n(2)).and(o, n(3)),
        OpTag::Or2 => n(0).or(o, n(1)),
        OpTag::Or3 => n(0).or(o, n(1)).or(o, n(2)),
        OpTag::Or4 => n(0).or(o, n(1)).or(o, n(2)).or(o, n(3)),
        OpTag::Nand2 => n(0).and(o, n(1)).not(o),
        OpTag::Nand3 => n(0).and(o, n(1)).and(o, n(2)).not(o),
        OpTag::Nand4 => n(0).and(o, n(1)).and(o, n(2)).and(o, n(3)).not(o),
        OpTag::Nor2 => n(0).or(o, n(1)).not(o),
        OpTag::Nor3 => n(0).or(o, n(1)).or(o, n(2)).not(o),
        OpTag::Nor4 => n(0).or(o, n(1)).or(o, n(2)).or(o, n(3)).not(o),
        OpTag::Xor2 | OpTag::Xorcy => n(0).xor(o, n(1)),
        OpTag::Xor3 => n(0).xor(o, n(1)).xor(o, n(2)),
        OpTag::Xnor2 => n(0).xor(o, n(1)).not(o),
        // mux2 args are [i0, i1, sel].
        OpTag::Mux2 => Rail::mux(o, n(2), n(0), n(1)),
        // muxcy args are [ci, di, s]; s=1 selects the carry-in.
        OpTag::Muxcy => Rail::mux(o, n(2), n(1), n(0)),
        OpTag::Lut1 => Rail::lut(o, init(), &[n(0)]),
        OpTag::Lut2 => Rail::lut(o, init(), &[n(0), n(1)]),
        OpTag::Lut3 => Rail::lut(o, init(), &[n(0), n(1), n(2)]),
        OpTag::Lut4 => Rail::lut(o, init(), &[n(0), n(1), n(2), n(3)]),
        OpTag::WordRead => Rail::word_read(o, &[n(0), n(1), n(2), n(3)], &words[p.aux[i] as usize]),
    }
}

/// A 256-lane compiled simulator: lane for lane bit-exact (including
/// `X`/`Z` propagation) with the scalar [`Simulator`](crate::Simulator)
/// while running the flat bytecode program the netlist is lowered to.
///
/// Each lane is driven and read through a per-lane API; waveforms are
/// recorded by the scalar simulator. A
/// [`VectorSweep`](crate::VectorSweep) moves whole ports in and out as
/// plane words instead.
#[derive(Debug, Clone)]
pub struct CompiledSimulator {
    program: Arc<Program>,
    lanes: usize,
    nets: Vec<Planes4>,
    /// 16-bit word states (SRL16/RAM16 contents), indexed by the
    /// program's word-state numbering.
    words: Vec<[Planes4; 16]>,
    /// Next-state scratch, parallel to `program.ffs`.
    ff_next: Vec<Planes4>,
    dirty: bool,
    cycle_count: u64,
}

impl CompiledSimulator {
    /// Compiles and lowers a circuit for `lanes`-wide execution,
    /// auto-detecting the clock (an input named `clk`, `c` or
    /// `clock`).
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`](crate::Simulator::new), plus
    /// [`SimError::InvalidLanes`] when `lanes` is 0 or above
    /// [`COMPILED_MAX_LANES`].
    pub fn new(circuit: &Circuit, lanes: usize) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, None, lanes)
    }

    /// Compiles a circuit with an explicit clock port.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::new`].
    pub fn with_clock(circuit: &Circuit, clock_port: &str, lanes: usize) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, Some(clock_port), lanes)
    }

    /// Compiles an already-flattened design.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::new`].
    pub fn from_flat(
        flat: &FlatNetlist,
        clock_port: Option<&str>,
        lanes: usize,
    ) -> Result<Self, SimError> {
        let graph = NetlistGraph::from_flat(flat, clock_port)?;
        Self::from_graph(Arc::new(graph), lanes)
    }

    /// Lowers an already-compiled design, sharing it (a
    /// [`Simulator`](crate::Simulator) can run the same one).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidLanes`] when `lanes` is 0 or above
    /// [`COMPILED_MAX_LANES`].
    pub fn from_graph(graph: Arc<NetlistGraph>, lanes: usize) -> Result<Self, SimError> {
        Self::from_program(Program::lower(graph), lanes)
    }

    /// Instantiates a simulator over an already-lowered program
    /// (shared, so sweep shards pay one plane-arena allocation each).
    pub(crate) fn from_program(program: Arc<Program>, lanes: usize) -> Result<Self, SimError> {
        if lanes == 0 || lanes > COMPILED_MAX_LANES {
            return Err(SimError::InvalidLanes { lanes });
        }
        let mut sim = CompiledSimulator {
            lanes,
            nets: vec![Planes4::splat::<Planes>(Logic::X); program.graph.net_count],
            words: Vec::with_capacity(program.word_count()),
            ff_next: vec![Planes4::default(); program.ffs.len()],
            dirty: true,
            cycle_count: 0,
            program,
        };
        sim.power_on();
        Ok(sim)
    }

    /// Number of stimulus lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `true` when the combinational network was fully levelized.
    #[must_use]
    pub fn is_levelized(&self) -> bool {
        self.program.graph.levelized()
    }

    /// Cycles simulated since power-on or the last reset.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycle_count
    }

    /// Names, directions and widths of the primary ports.
    #[must_use]
    pub fn ports(&self) -> Vec<(String, PortDir, u32)> {
        self.program
            .graph
            .ports
            .iter()
            .map(|p| (p.name.clone(), p.dir, p.nets.len() as u32))
            .collect()
    }

    fn power_on(&mut self) {
        self.nets.fill(Planes4::splat::<Planes>(Logic::X));
        self.words.clear();
        for &init in &self.program.word_init {
            let mut word = [Planes4::default(); 16];
            for (i, bit) in word.iter_mut().enumerate() {
                *bit = Planes4::splat::<Planes>(Logic::from_bool((init >> i) & 1 == 1));
            }
            self.words.push(word);
        }
        for &(net, v) in &self.program.graph.const_drives {
            self.nets[net.index()] = Planes4::splat::<Planes>(v);
        }
        for &net in &self.program.graph.black_box_outputs {
            self.nets[net.index()] = Planes4::splat::<Planes>(Logic::X);
        }
        for (ff, &init) in self.program.ffs.iter().zip(&self.program.ff_init) {
            self.nets[ff.q as usize] = Planes4::splat::<Planes>(init);
        }
        for &net in &self.program.graph.clock_nets {
            self.nets[net.index()] = Planes4::splat::<Planes>(Logic::Zero);
        }
        self.dirty = true;
    }

    /// Resets all sequential state to power-on values in every lane,
    /// keeping the current input assignments.
    pub fn reset(&mut self) {
        // Snapshot input-port planes so they survive power-on; the
        // nets of ports never driven hold X either way.
        let inputs: Vec<(usize, Vec<Planes4>)> = self
            .program
            .graph
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PortDir::Input)
            .map(|(i, p)| (i, p.nets.iter().map(|n| self.nets[n.index()]).collect()))
            .collect();
        self.power_on();
        self.cycle_count = 0;
        for (port, planes) in inputs {
            for (&net, &value) in self.program.graph.ports[port].nets.iter().zip(&planes) {
                self.nets[net.index()] = value;
            }
        }
        self.dirty = true;
    }

    fn port_index(&self, port: &str) -> Result<usize, SimError> {
        self.program
            .graph
            .ports
            .iter()
            .position(|p| p.name == port)
            .ok_or_else(|| SimError::UnknownPort {
                port: port.to_owned(),
            })
    }

    fn check_lane(&self, lane: usize) -> Result<(), SimError> {
        if lane >= self.lanes {
            return Err(SimError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        Ok(())
    }

    /// Drives a primary input port in one lane.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports, non-inputs, width mismatches and lanes
    /// outside the configured count.
    pub fn set_lane(&mut self, port: &str, lane: usize, value: &LogicVec) -> Result<(), SimError> {
        self.check_lane(lane)?;
        let idx = self.port_index(port)?;
        let info = &self.program.graph.ports[idx];
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
            let cur = self.nets[net.index()];
            self.nets[net.index()] = cur.with_lane(lane, value.bit(i));
        }
        self.dirty = true;
        Ok(())
    }

    /// Drives a primary input port with the same value in every lane.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::set_lane`].
    pub fn set_broadcast(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError> {
        for lane in 0..self.lanes {
            self.set_lane(port, lane, value)?;
        }
        Ok(())
    }

    /// Drives a primary input port with one value per lane
    /// (`values.len()` must equal the lane count).
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::set_lane`], plus
    /// [`SimError::InvalidLanes`] when the slice length differs from
    /// the lane count.
    pub fn set_lanes(&mut self, port: &str, values: &[LogicVec]) -> Result<(), SimError> {
        if values.len() != self.lanes {
            return Err(SimError::InvalidLanes {
                lanes: values.len(),
            });
        }
        for (lane, value) in values.iter().enumerate() {
            self.set_lane(port, lane, value)?;
        }
        Ok(())
    }

    /// Convenience: drives one lane with an unsigned integer.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::set_lane`].
    pub fn set_u64_lane(&mut self, port: &str, lane: usize, value: u64) -> Result<(), SimError> {
        let idx = self.port_index(port)?;
        let width = self.program.graph.ports[idx].nets.len();
        self.set_lane(port, lane, &LogicVec::from_u64(value, width))
    }

    /// Convenience: drives one lane with a signed integer (two's
    /// complement).
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::set_lane`].
    pub fn set_i64_lane(&mut self, port: &str, lane: usize, value: i64) -> Result<(), SimError> {
        let idx = self.port_index(port)?;
        let width = self.program.graph.ports[idx].nets.len();
        self.set_lane(port, lane, &LogicVec::from_i64(value, width))
    }

    /// Reads the current value of any primary port in one lane.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports, out-of-range lanes, or if settling
    /// oscillates.
    pub fn peek_lane(&mut self, port: &str, lane: usize) -> Result<LogicVec, SimError> {
        self.check_lane(lane)?;
        self.ensure_settled()?;
        let idx = self.port_index(port)?;
        Ok(self.program.graph.ports[idx]
            .nets
            .iter()
            .map(|n| self.nets[n.index()].lane(lane))
            .collect())
    }

    /// Drives input port `port` (an index into the program's ports,
    /// already checked to be an input of the column's width) in every
    /// lane from plane words `first_word..first_word + 4` of `column`.
    /// Lanes past the lane count keep their value.
    pub(crate) fn set_port_words(&mut self, port: usize, column: &LogicColumn, first_word: usize) {
        let mask = self.lane_mask();
        let nets = &self.program.graph.ports[port].nets;
        debug_assert_eq!(nets.len(), column.width());
        for (bit, net) in nets.iter().enumerate() {
            let (v, u) = (column.value_plane(bit), column.unknown_plane(bit));
            let cur = &mut self.nets[net.index()];
            for (w, &m) in mask.iter().enumerate() {
                let word = |plane: &[u64]| plane.get(first_word + w).copied().unwrap_or(0);
                cur.v[w] = (cur.v[w] & !m) | (word(v) & m);
                cur.u[w] = (cur.u[w] & !m) | (word(u) & m);
            }
        }
        self.dirty = true;
    }

    /// The settled planes of port `port` (a program port index), one
    /// per bit, LSB first.
    pub(crate) fn port_planes(
        &mut self,
        port: usize,
    ) -> Result<impl Iterator<Item = Planes4> + '_, SimError> {
        self.ensure_settled()?;
        let nets = &self.nets;
        Ok(self.program.graph.ports[port]
            .nets
            .iter()
            .map(move |n| nets[n.index()]))
    }

    /// Reads one internal net by hierarchical name in one lane.
    ///
    /// # Errors
    ///
    /// Fails for unknown nets, out-of-range lanes, or if settling
    /// oscillates.
    pub fn peek_net_lane(&mut self, net: &str, lane: usize) -> Result<Logic, SimError> {
        self.check_lane(lane)?;
        self.ensure_settled()?;
        let id = self
            .program
            .graph
            .name_to_net
            .get(net)
            .copied()
            .ok_or_else(|| SimError::UnknownNet {
                net: net.to_owned(),
            })?;
        Ok(self.nets[id.index()].lane(lane))
    }

    /// Reads a flip-flop's current state by instance path in one lane.
    #[must_use]
    pub fn ff_state_lane(&self, instance_path: &str, lane: usize) -> Option<Logic> {
        if lane >= self.lanes {
            return None;
        }
        let idx = self.program.graph.state_index(instance_path)?;
        match self.program.state_slots[idx] {
            StateSlot::Ff(i) => Some(self.nets[self.program.ffs[i as usize].q as usize].lane(lane)),
            StateSlot::Word(_) => None,
        }
    }

    /// Reads the 16-bit contents of a shift register or RAM by
    /// instance path in one lane.
    #[must_use]
    pub fn memory_lane(&self, instance_path: &str, lane: usize) -> Option<LogicVec> {
        if lane >= self.lanes {
            return None;
        }
        let idx = self.program.graph.state_index(instance_path)?;
        match self.program.state_slots[idx] {
            StateSlot::Word(w) => Some(
                self.words[w as usize]
                    .iter()
                    .map(|p| p.lane(lane))
                    .collect(),
            ),
            StateSlot::Ff(_) => None,
        }
    }

    /// Forces a flip-flop's current state by instance path in one
    /// lane, driving its output net so downstream logic observes the
    /// forced value at the next settle (the lane twin of
    /// [`Simulator::set_ff`](crate::Simulator::set_ff)). Returns
    /// `false` for unknown paths, word-state elements, or out-of-range
    /// lanes.
    pub fn set_ff_lane(&mut self, instance_path: &str, lane: usize, value: Logic) -> bool {
        if lane >= self.lanes {
            return false;
        }
        let Some(idx) = self.program.graph.state_index(instance_path) else {
            return false;
        };
        let StateSlot::Ff(i) = self.program.state_slots[idx] else {
            return false;
        };
        let q = self.program.ffs[i as usize].q as usize;
        self.nets[q] = self.nets[q].with_lane(lane, value);
        self.dirty = true;
        true
    }

    /// Forces the 16-bit contents of a shift register or RAM by
    /// instance path in one lane (counterexample-replay back door).
    /// Returns `false` for unknown paths, bit-state elements,
    /// out-of-range lanes, or a `value` that is not 16 bits wide.
    pub fn set_memory_lane(&mut self, instance_path: &str, lane: usize, value: &LogicVec) -> bool {
        if lane >= self.lanes || value.width() != 16 {
            return false;
        }
        let Some(idx) = self.program.graph.state_index(instance_path) else {
            return false;
        };
        let StateSlot::Word(w) = self.program.state_slots[idx] else {
            return false;
        };
        let word = &mut self.words[w as usize];
        for (i, bit) in word.iter_mut().enumerate() {
            *bit = bit.with_lane(lane, value.bit(i));
        }
        self.dirty = true;
        true
    }

    /// Lists the instance paths of all stateful elements.
    #[must_use]
    pub fn state_elements(&self) -> &[String] {
        &self.program.graph.state_paths
    }

    /// Advances the global clock by `n` cycles in every lane.
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
        let p = Arc::clone(&self.program);

        // 1. Next flip-flop states into scratch, reading only pre-edge
        //    nets (q planes still hold the old state).
        let nets = &self.nets;
        let net = |n: u32| nets[n as usize];
        let optional = |n: u32| (n != NO_NET).then(|| net(n));
        let o = &mut Planes;
        for (next, ff) in self.ff_next.iter_mut().zip(&p.ffs) {
            let (ce, clear) = (optional(ff.ce), optional(ff.ctl));
            *next = Rail::ff_next(o, net(ff.q), net(ff.d), ce, clear);
        }

        // 2. Shift registers and RAM writes in place: each reads only
        //    pre-edge nets and its own word.
        for srl in &p.srls {
            let word = &mut self.words[srl.word as usize];
            Rail::srl_shift(o, word, net(srl.d), net(srl.ce));
        }
        for ram in &p.rams {
            let word = &mut self.words[ram.word as usize];
            Rail::ram_write(o, word, net(ram.d), net(ram.we), &ram.addr.map(net));
        }

        // 3. Commit flip-flop states to their q planes.
        for (ff, &next) in p.ffs.iter().zip(&self.ff_next) {
            self.nets[ff.q as usize] = next;
        }

        self.dirty = true;
        self.ensure_settled()?;
        self.cycle_count += 1;
        Ok(())
    }

    fn lane_mask(&self) -> [u64; WORDS] {
        std::array::from_fn(|w| {
            let lo = w * 64;
            if self.lanes >= lo + 64 {
                !0
            } else if self.lanes <= lo {
                0
            } else {
                (1u64 << (self.lanes - lo)) - 1
            }
        })
    }

    fn ensure_settled(&mut self) -> Result<(), SimError> {
        if !self.dirty {
            return Ok(());
        }
        let p = Arc::clone(&self.program);
        // The acyclic prefix settles in one pass (its nodes depend
        // only on earlier prefix nodes, inputs, constants and state).
        for i in 0..p.graph.acyclic_prefix {
            let value = eval_op(&p, &self.nets, &self.words, i);
            self.nets[p.outs[i] as usize] = value;
        }
        if !p.graph.levelized() {
            // Iterate only the cyclic remainder to a fixpoint, with
            // the scalar simulator's pass budget.
            let mask = self.lane_mask();
            let limit = 2 * p.tags.len() + 8;
            let mut pass = 0;
            loop {
                let mut changed_net: Option<u32> = None;
                for i in p.graph.acyclic_prefix..p.tags.len() {
                    let value = eval_op(&p, &self.nets, &self.words, i);
                    let out = p.outs[i] as usize;
                    let old = self.nets[out];
                    let mut changed = 0u64;
                    for (w, &m) in mask.iter().enumerate() {
                        changed |= ((old.v[w] ^ value.v[w]) | (old.u[w] ^ value.u[w])) & m;
                    }
                    if changed != 0 {
                        self.nets[out] = value;
                        changed_net = Some(p.outs[i]);
                    }
                }
                match changed_net {
                    None => break,
                    Some(net) => {
                        pass += 1;
                        if pass > limit {
                            return Err(SimError::Oscillation {
                                net: p.graph.net_names[net as usize].clone(),
                            });
                        }
                    }
                }
            }
        }
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use ipd_hdl::NetId;
    use ipd_techlib::PrimKind;
    use ipd_testutil::XorShift64;

    use super::*;
    use crate::graph::{CombEval, CombKind};
    use crate::simulator::word_read;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// The inputs of four-state combination `c`: two bits per input.
    fn combo(c: usize, arity: usize) -> Vec<Logic> {
        (0..arity).map(|i| ALL[(c >> (2 * i)) % 4]).collect()
    }

    /// Lowers one combinational primitive reading nets `0..arity` and
    /// driving net `arity` into a one-node program.
    fn one_node(kind: &PrimKind, arity: usize) -> Arc<Program> {
        Program::lower(Arc::new(NetlistGraph {
            net_count: arity + 1,
            net_names: Vec::new(),
            name_to_net: HashMap::new(),
            eval_order: vec![CombEval {
                kind: CombKind::Prim(*kind),
                inputs: (0..arity).map(NetId::from_index).collect(),
                output: NetId::from_index(arity),
            }],
            acyclic_prefix: 1,
            seq: Vec::new(),
            state_paths: Vec::new(),
            const_drives: Vec::new(),
            black_box_outputs: Vec::new(),
            ports: Vec::new(),
            clock_nets: Vec::new(),
        }))
    }

    /// Packs every four-state input combination into its own lane (at
    /// most 4^4 = 256, one `Planes4`) and checks every lane of the
    /// lowered kernel against the scalar `eval_comb`.
    fn check_kernel(kind: &PrimKind, arity: usize) {
        let program = one_node(kind, arity);
        let combos = 4usize.pow(arity as u32);
        let mut nets = vec![Planes4::default(); arity + 1];
        for c in 0..combos {
            for (i, l) in combo(c, arity).into_iter().enumerate() {
                nets[i] = nets[i].with_lane(c, l);
            }
        }
        let out = eval_op(&program, &nets, &[], 0);
        for c in 0..combos {
            let ins = combo(c, arity);
            assert_eq!(
                out.lane(c),
                kind.eval_comb(&ins),
                "{} on {ins:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn kernels_match_scalar_eval_exhaustively() {
        check_kernel(&PrimKind::Inv, 1);
        check_kernel(&PrimKind::Buf, 1);
        check_kernel(&PrimKind::Ibuf, 1);
        check_kernel(&PrimKind::Obuf, 1);
        check_kernel(&PrimKind::Bufg, 1);
        for n in 2..=4u8 {
            check_kernel(&PrimKind::And(n), n as usize);
            check_kernel(&PrimKind::Or(n), n as usize);
        }
        for n in 2..=3u8 {
            check_kernel(&PrimKind::Nand(n), n as usize);
            check_kernel(&PrimKind::Nor(n), n as usize);
            check_kernel(&PrimKind::Xor(n), n as usize);
        }
        check_kernel(&PrimKind::Xnor2, 2);
        check_kernel(&PrimKind::Mux2, 3);
        check_kernel(&PrimKind::Muxcy, 3);
        check_kernel(&PrimKind::Xorcy, 2);
        check_kernel(&PrimKind::MultAnd, 2);
    }

    #[test]
    fn lut_kernels_match_scalar_eval() {
        // A spread of truth tables per arity, including the degenerate
        // constants and parity (sensitive to every input).
        for inputs in 1..=4u8 {
            let mask = (1u32 << (1u32 << inputs)) - 1;
            for init in [0u16, 0xFFFF, 0x6996, 0xAAAA, 0xCAFE, 0x8001, 0x1234] {
                let kind = PrimKind::Lut {
                    inputs,
                    init: (u32::from(init) & mask) as u16,
                };
                check_kernel(&kind, inputs as usize);
            }
        }
        check_kernel(&PrimKind::Rom16x1 { init: 0x8001 }, 4);
        check_kernel(&PrimKind::Rom16x1 { init: 0x6996 }, 4);
    }

    /// All 256 four-state addresses, one per lane, over word contents
    /// that agree, disagree, or hold `X`/`Z`: every lane equals the
    /// scalar simulator's read rule.
    #[test]
    fn word_read_matches_scalar_semantics() {
        let mut rng = XorShift64::new(0x0dd_ba11);
        let mut words: Vec<[Logic; 16]> = ALL.iter().map(|&l| [l; 16]).collect();
        let mut one_hot = [Logic::Zero; 16];
        one_hot[5] = Logic::One;
        words.push(one_hot);
        for _ in 0..32 {
            words.push(std::array::from_fn(|_| ALL[rng.index(4)]));
        }
        let mut addr = [Planes4::default(); 4];
        for c in 0..256 {
            for (i, l) in combo(c, 4).into_iter().enumerate() {
                addr[i] = addr[i].with_lane(c, l);
            }
        }
        for word in &words {
            let planes: [Planes4; 16] = std::array::from_fn(|i| Planes4::splat::<Planes>(word[i]));
            let got = Rail::word_read(&mut Planes, &addr, &planes);
            for c in 0..256 {
                let a: [Logic; 4] = std::array::from_fn(|i| combo(c, 4)[i]);
                assert_eq!(got.lane(c), word_read(&a, word), "{word:?} at {a:?}");
            }
        }
    }

    #[test]
    fn planes4_lane_round_trip() {
        for l in ALL {
            assert_eq!(Planes4::splat::<Planes>(l).lane(17), l);
            assert_eq!(Planes4::splat::<Planes>(l).lane(200), l);
            let p = Planes4::splat::<Planes>(Logic::Zero).with_lane(130, l);
            assert_eq!(p.lane(130), l);
            assert_eq!(p.lane(129), Logic::Zero);
            assert_eq!(p.lane(2), Logic::Zero);
        }
    }

    #[test]
    fn invalid_lane_counts_are_rejected() {
        let circuit = Circuit::new("empty");
        assert!(matches!(
            CompiledSimulator::new(&circuit, 0),
            Err(SimError::InvalidLanes { lanes: 0 })
        ));
        assert!(matches!(
            CompiledSimulator::new(&circuit, 257),
            Err(SimError::InvalidLanes { lanes: 257 })
        ));
        assert!(CompiledSimulator::new(&circuit, 256).is_ok());
    }
}
