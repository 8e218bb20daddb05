//! The compiled execution engine: 256 stimulus lanes per pass over
//! flat bytecode.
//!
//! A [`CompiledSimulator`] runs the [`Program`](crate::program)
//! lowered from a compiled netlist. It differs from the interpreted
//! [`BatchSimulator`](crate::BatchSimulator) in three ways:
//!
//! - **Four plane words per net.** Each net holds a [`Planes4`] — a
//!   value plane and an unknown plane of `[u64; 4]` each, i.e. 256
//!   lanes in one 64-byte struct. The kernels below are the word-wise
//!   formulas of the 64-lane engine applied to all four words, so a
//!   lane is bit-identical to the interpreted engine (and therefore to
//!   the scalar simulator).
//! - **Straight-line dispatch.** Combinational settling walks the
//!   program's parallel arrays; there is no per-node `Vec` indirection
//!   or recursive LUT expansion (LUTs fold a mux tree bottom-up over
//!   the same operation DAG the interpreter builds recursively, so the
//!   result is identical).
//! - **Flip-flop state lives in the q-net plane.** A flip-flop's
//!   output net has no combinational driver, so settling never writes
//!   it; the clock edge computes every next-state into scratch first
//!   (reading only pre-edge values) and then commits, preserving the
//!   interpreter's barrier semantics without cloning the state vector
//!   each cycle.
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

use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicVec, PortDir};

use crate::compile::compile;
use crate::error::SimError;
use crate::program::{OpTag, Program, StateSlot, NO_NET};

/// Maximum number of lanes a [`CompiledSimulator`] can hold (one bit
/// per lane in each of four 64-bit plane words).
pub const COMPILED_MAX_LANES: usize = 256;

/// Plane words per [`Planes4`].
const WORDS: usize = 4;

/// Four pairs of bit-planes holding one four-state value in each of
/// 256 lanes. The encoding per lane matches the 64-lane engine:
/// `(v, u)` = `(0,0)` → `0`, `(1,0)` → `1`, `(0,1)` → `X`,
/// `(1,1)` → `Z`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Planes4 {
    /// Value planes.
    pub v: [u64; WORDS],
    /// Unknown planes (set for `X` and `Z`).
    pub u: [u64; WORDS],
}

impl Planes4 {
    /// The same logic value in every lane.
    pub(crate) fn splat(value: Logic) -> Self {
        let (v, u) = match value {
            Logic::Zero => (0, 0),
            Logic::One => (!0, 0),
            Logic::X => (0, !0),
            Logic::Z => (!0, !0),
        };
        Planes4 {
            v: [v; WORDS],
            u: [u; WORDS],
        }
    }

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
        let single = Planes4::splat(value);
        self.v[w] = (self.v[w] & !mask) | (single.v[w] & mask);
        self.u[w] = (self.u[w] & !mask) | (single.u[w] & mask);
        self
    }
}

/// A 256-lane mask, one word per plane word.
type Mask4 = [u64; WORDS];

/// Lanes where the value is a driven 0.
#[inline]
fn known0(p: Planes4) -> Mask4 {
    std::array::from_fn(|w| !p.v[w] & !p.u[w])
}

/// Lanes where the value is a driven 1.
#[inline]
fn known1(p: Planes4) -> Mask4 {
    std::array::from_fn(|w| p.v[w] & !p.u[w])
}

/// Four-state NOT: `X`/`Z` → `X`.
#[inline]
fn not_k(p: Planes4) -> Planes4 {
    Planes4 {
        v: std::array::from_fn(|w| !p.v[w] & !p.u[w]),
        u: p.u,
    }
}

/// Buffer pessimism: driven values pass, `X`/`Z` → `X`.
#[inline]
fn pess(p: Planes4) -> Planes4 {
    Planes4 {
        v: std::array::from_fn(|w| p.v[w] & !p.u[w]),
        u: p.u,
    }
}

/// Four-state AND: a driven 0 dominates any unknown.
#[inline]
fn and_k(a: Planes4, b: Planes4) -> Planes4 {
    let mut r = Planes4::default();
    for w in 0..WORDS {
        let zero = (!a.v[w] & !a.u[w]) | (!b.v[w] & !b.u[w]);
        let one = (a.v[w] & !a.u[w]) & (b.v[w] & !b.u[w]);
        r.v[w] = one;
        r.u[w] = !(zero | one);
    }
    r
}

/// Four-state OR: a driven 1 dominates any unknown.
#[inline]
fn or_k(a: Planes4, b: Planes4) -> Planes4 {
    let mut r = Planes4::default();
    for w in 0..WORDS {
        let one = (a.v[w] & !a.u[w]) | (b.v[w] & !b.u[w]);
        let zero = (!a.v[w] & !a.u[w]) & (!b.v[w] & !b.u[w]);
        r.v[w] = one;
        r.u[w] = !(zero | one);
    }
    r
}

/// Four-state XOR: known only when both inputs are driven.
#[inline]
fn xor_k(a: Planes4, b: Planes4) -> Planes4 {
    let mut r = Planes4::default();
    for w in 0..WORDS {
        let u = a.u[w] | b.u[w];
        r.v[w] = (a.v[w] ^ b.v[w]) & !u;
        r.u[w] = u;
    }
    r
}

/// Four-state 2:1 select: `sel=0` → `d0`, `sel=1` → `d1` (both
/// pessimized), unknown select → the common value when both data
/// inputs are driven and agree, else `X`.
#[inline]
fn mux_k(sel: Planes4, d0: Planes4, d1: Planes4) -> Planes4 {
    let mut r = Planes4::default();
    for w in 0..WORDS {
        let s0 = !sel.v[w] & !sel.u[w];
        let s1 = sel.v[w] & !sel.u[w];
        let su = sel.u[w];
        let agree = !d0.u[w] & !d1.u[w] & !(d0.v[w] ^ d1.v[w]);
        r.v[w] = (s0 & d0.v[w] & !d0.u[w]) | (s1 & d1.v[w] & !d1.u[w]) | (su & agree & d0.v[w]);
        r.u[w] = (s0 & d0.u[w]) | (s1 & d1.u[w]) | (su & !agree);
    }
    r
}

/// LUT evaluation by an iterative bottom-up mux fold over the same
/// Shannon-expansion tree the interpreter builds recursively: level
/// `l` muxes adjacent cofactor pairs on input `l`, so every lane sees
/// exactly the scalar cofactor analysis.
fn lut_k(n: usize, init: u16, nets: &[Planes4], args: &[u32]) -> Planes4 {
    let mut vals = [Planes4::default(); 16];
    let size = 1usize << n;
    for (i, slot) in vals.iter_mut().take(size).enumerate() {
        *slot = Planes4::splat(Logic::from_bool((init >> i) & 1 == 1));
    }
    let mut width = size;
    for &arg in args.iter().take(n) {
        let sel = nets[arg as usize];
        width /= 2;
        for j in 0..width {
            vals[j] = mux_k(sel, vals[2 * j], vals[2 * j + 1]);
        }
    }
    vals[0]
}

/// Asynchronous 16×1 word read with a 4-bit address. Known addresses
/// select their word bit; lanes with any unknown address bit read the
/// common value when all 16 word bits are driven and agree, else `X`.
fn word_read_k(addr: &[Planes4; 4], word: &[Planes4; 16]) -> Planes4 {
    let mut unk = [0u64; WORDS];
    for a in addr {
        for (uw, &au) in unk.iter_mut().zip(&a.u) {
            *uw |= au;
        }
    }
    let mut v = [0u64; WORDS];
    let mut u = [0u64; WORDS];
    for (idx, wrd) in word.iter().enumerate() {
        let mut sel = [!0u64; WORDS];
        for (i, a) in addr.iter().enumerate() {
            let k = if (idx >> i) & 1 == 1 {
                known1(*a)
            } else {
                known0(*a)
            };
            for w in 0..WORDS {
                sel[w] &= k[w];
            }
        }
        for w in 0..WORDS {
            v[w] |= sel[w] & wrd.v[w];
            u[w] |= sel[w] & wrd.u[w];
        }
    }
    let mut agree1 = [!0u64; WORDS];
    let mut agree0 = [!0u64; WORDS];
    for wrd in word {
        let k1 = known1(*wrd);
        let k0 = known0(*wrd);
        for w in 0..WORDS {
            agree1[w] &= k1[w];
            agree0[w] &= k0[w];
        }
    }
    let mut r = Planes4::default();
    for w in 0..WORDS {
        r.v[w] = (v[w] & !unk[w]) | (unk[w] & agree1[w]);
        r.u[w] = (u[w] & !unk[w]) | (unk[w] & !(agree1[w] | agree0[w]));
    }
    r
}

/// Clock-enable style masks for a control net: (known-1, known-0,
/// unknown) lane sets.
#[inline]
fn ctl_masks(p: Planes4) -> (Mask4, Mask4, Mask4) {
    (known1(p), known0(p), p.u)
}

/// Evaluates one bytecode node against the current net and word-state
/// planes. Free function so settling can split borrows of the
/// simulator.
#[inline]
fn eval_op(p: &Program, nets: &[Planes4], words: &[[Planes4; 16]], i: usize) -> Planes4 {
    let base = p.arg_base[i] as usize;
    let args = &p.args[base..];
    let n = |k: usize| nets[args[k] as usize];
    match p.tags[i] {
        OpTag::Not => not_k(n(0)),
        OpTag::Buf => pess(n(0)),
        OpTag::And2 => and_k(n(0), n(1)),
        OpTag::And3 => and_k(and_k(n(0), n(1)), n(2)),
        OpTag::And4 => and_k(and_k(and_k(n(0), n(1)), n(2)), n(3)),
        OpTag::Or2 => or_k(n(0), n(1)),
        OpTag::Or3 => or_k(or_k(n(0), n(1)), n(2)),
        OpTag::Or4 => or_k(or_k(or_k(n(0), n(1)), n(2)), n(3)),
        OpTag::Nand2 => not_k(and_k(n(0), n(1))),
        OpTag::Nand3 => not_k(and_k(and_k(n(0), n(1)), n(2))),
        OpTag::Nand4 => not_k(and_k(and_k(and_k(n(0), n(1)), n(2)), n(3))),
        OpTag::Nor2 => not_k(or_k(n(0), n(1))),
        OpTag::Nor3 => not_k(or_k(or_k(n(0), n(1)), n(2))),
        OpTag::Nor4 => not_k(or_k(or_k(or_k(n(0), n(1)), n(2)), n(3))),
        OpTag::Xor2 => xor_k(n(0), n(1)),
        OpTag::Xor3 => xor_k(xor_k(n(0), n(1)), n(2)),
        OpTag::Xnor2 => not_k(xor_k(n(0), n(1))),
        // mux2 args are [i0, i1, sel].
        OpTag::Mux2 => mux_k(n(2), n(0), n(1)),
        // muxcy args are [ci, di, s]; s=1 selects the carry-in.
        OpTag::Muxcy => mux_k(n(2), n(1), n(0)),
        OpTag::Xorcy => xor_k(n(0), n(1)),
        OpTag::MultAnd => and_k(n(0), n(1)),
        OpTag::Lut1 => lut_k(1, p.lut_init[p.aux[i] as usize], nets, args),
        OpTag::Lut2 => lut_k(2, p.lut_init[p.aux[i] as usize], nets, args),
        OpTag::Lut3 => lut_k(3, p.lut_init[p.aux[i] as usize], nets, args),
        OpTag::Lut4 => lut_k(4, p.lut_init[p.aux[i] as usize], nets, args),
        OpTag::WordRead => {
            let addr = [n(0), n(1), n(2), n(3)];
            word_read_k(&addr, &words[p.aux[i] as usize])
        }
    }
}

/// A 256-lane compiled simulator: the bytecode counterpart of the
/// interpreted [`BatchSimulator`](crate::BatchSimulator), bit-exact
/// lane for lane (including `X`/`Z` propagation) while running the
/// flat bytecode program the netlist is lowered to.
///
/// The API mirrors `BatchSimulator` minus waveform recording; sweeps
/// that need traces use the interpreted engine.
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
    /// As for [`BatchSimulator::new`](crate::BatchSimulator::new),
    /// except lane counts up to [`COMPILED_MAX_LANES`] are accepted.
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
        let compiled = compile(flat, clock_port)?;
        Self::from_program(Program::lower(&compiled), lanes)
    }

    /// Instantiates a simulator over an already-lowered program
    /// (shared, so sweep shards pay one plane-arena allocation each).
    pub(crate) fn from_program(program: Arc<Program>, lanes: usize) -> Result<Self, SimError> {
        if lanes == 0 || lanes > COMPILED_MAX_LANES {
            return Err(SimError::InvalidLanes { lanes });
        }
        let mut sim = CompiledSimulator {
            lanes,
            nets: vec![Planes4::splat(Logic::X); program.net_count],
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
        self.program.levelized
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
            .ports
            .iter()
            .map(|p| (p.name.clone(), p.dir, p.nets.len() as u32))
            .collect()
    }

    fn power_on(&mut self) {
        self.nets.fill(Planes4::splat(Logic::X));
        self.words.clear();
        for &init in &self.program.word_init {
            let mut word = [Planes4::default(); 16];
            for (i, bit) in word.iter_mut().enumerate() {
                *bit = Planes4::splat(Logic::from_bool((init >> i) & 1 == 1));
            }
            self.words.push(word);
        }
        for &(net, v) in &self.program.const_drives {
            self.nets[net.index()] = Planes4::splat(v);
        }
        for &net in &self.program.black_box_outputs {
            self.nets[net.index()] = Planes4::splat(Logic::X);
        }
        for (ff, &init) in self.program.ffs.iter().zip(&self.program.ff_init) {
            self.nets[ff.q as usize] = Planes4::splat(init);
        }
        for &net in &self.program.clock_nets {
            self.nets[net.index()] = Planes4::splat(Logic::Zero);
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
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PortDir::Input)
            .map(|(i, p)| (i, p.nets.iter().map(|n| self.nets[n.index()]).collect()))
            .collect();
        self.power_on();
        self.cycle_count = 0;
        for (port, planes) in inputs {
            for (&net, &value) in self.program.ports[port].nets.iter().zip(&planes) {
                self.nets[net.index()] = value;
            }
        }
        self.dirty = true;
    }

    fn port_index(&self, port: &str) -> Result<usize, SimError> {
        self.program
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
        let info = &self.program.ports[idx];
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
        let width = self.program.ports[idx].nets.len();
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
        let width = self.program.ports[idx].nets.len();
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
        Ok(self.program.ports[idx]
            .nets
            .iter()
            .map(|n| self.nets[n.index()].lane(lane))
            .collect())
    }

    /// Reads a primary port across all lanes (one `LogicVec` per
    /// lane).
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::peek_lane`].
    pub fn peek_lanes(&mut self, port: &str) -> Result<Vec<LogicVec>, SimError> {
        self.ensure_settled()?;
        let idx = self.port_index(port)?;
        let nets = &self.program.ports[idx].nets;
        Ok((0..self.lanes)
            .map(|lane| {
                nets.iter()
                    .map(|n| self.nets[n.index()].lane(lane))
                    .collect()
            })
            .collect())
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
        let id =
            self.program
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
        let idx = self
            .program
            .state_paths
            .iter()
            .position(|p| p == instance_path)?;
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
        let idx = self
            .program
            .state_paths
            .iter()
            .position(|p| p == instance_path)?;
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
    /// lane (counterexample-replay back door; see
    /// [`BatchSimulator::set_ff_lane`](crate::BatchSimulator::set_ff_lane)).
    /// Returns `false` for unknown paths, word-state elements, or
    /// out-of-range lanes.
    pub fn set_ff_lane(&mut self, instance_path: &str, lane: usize, value: Logic) -> bool {
        if lane >= self.lanes {
            return false;
        }
        let Some(idx) = self
            .program
            .state_paths
            .iter()
            .position(|p| p == instance_path)
        else {
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
        let Some(idx) = self
            .program
            .state_paths
            .iter()
            .position(|p| p == instance_path)
        else {
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
        &self.program.state_paths
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
        for (k, ff) in p.ffs.iter().enumerate() {
            let cur = self.nets[ff.q as usize];
            let d = self.nets[ff.d as usize];
            let (ce1, ce0, ceu) = if ff.ce == NO_NET {
                ([!0u64; WORDS], [0u64; WORDS], [0u64; WORDS])
            } else {
                ctl_masks(self.nets[ff.ce as usize])
            };
            let mut next = Planes4::default();
            for w in 0..WORDS {
                next.v[w] = (ce1[w] & d.v[w]) | (ce0[w] & cur.v[w]);
                next.u[w] = (ce1[w] & d.u[w]) | (ce0[w] & cur.u[w]) | ceu[w];
            }
            if ff.ctl != NO_NET {
                // One clears, zero keeps, unknown poisons — identical
                // for async clear and sync reset at cycle granularity.
                let (_c1, c0, cu) = ctl_masks(self.nets[ff.ctl as usize]);
                for w in 0..WORDS {
                    next.v[w] &= c0[w];
                    next.u[w] = (next.u[w] & c0[w]) | cu[w];
                }
            }
            self.ff_next[k] = next;
        }

        // 2. Shift registers in place, taps high-to-low so each tap
        //    still reads its predecessor's pre-edge value.
        for srl in &p.srls {
            let d = self.nets[srl.d as usize];
            let (ce1, ce0, ceu) = ctl_masks(self.nets[srl.ce as usize]);
            let word = &mut self.words[srl.word as usize];
            for i in (0..16).rev() {
                let src = if i == 0 { d } else { word[i - 1] };
                for w in 0..WORDS {
                    word[i].v[w] = (ce1[w] & src.v[w]) | (ce0[w] & word[i].v[w]);
                    word[i].u[w] = (ce1[w] & src.u[w]) | (ce0[w] & word[i].u[w]) | ceu[w];
                }
            }
        }

        // 3. RAM writes in place (each bit only reads itself).
        for ram in &p.rams {
            let d = self.nets[ram.d as usize];
            let (we1, we0, weu) = ctl_masks(self.nets[ram.we as usize]);
            let addr = [
                self.nets[ram.addr[0] as usize],
                self.nets[ram.addr[1] as usize],
                self.nets[ram.addr[2] as usize],
                self.nets[ram.addr[3] as usize],
            ];
            let mut addr_unk = [0u64; WORDS];
            for a in &addr {
                for (uw, &au) in addr_unk.iter_mut().zip(&a.u) {
                    *uw |= au;
                }
            }
            // A write with any unknown address bit poisons the whole
            // word, as does an unknown write-enable.
            let mut xmask = [0u64; WORDS];
            for w in 0..WORDS {
                xmask[w] = weu[w] | (we1[w] & addr_unk[w]);
            }
            let word = &mut self.words[ram.word as usize];
            for (idx, slot) in word.iter_mut().enumerate() {
                let mut sel = [!0u64; WORDS];
                for (i, a) in addr.iter().enumerate() {
                    let k = if (idx >> i) & 1 == 1 {
                        known1(*a)
                    } else {
                        known0(*a)
                    };
                    for w in 0..WORDS {
                        sel[w] &= k[w];
                    }
                }
                for w in 0..WORDS {
                    let write = we1[w] & sel[w];
                    let hold = we0[w] | (we1[w] & !addr_unk[w] & !sel[w]);
                    slot.v[w] = (write & d.v[w]) | (hold & slot.v[w]);
                    slot.u[w] = (write & d.u[w]) | (hold & slot.u[w]) | xmask[w];
                }
            }
        }

        // 4. Commit flip-flop states to their q planes.
        for (k, ff) in p.ffs.iter().enumerate() {
            self.nets[ff.q as usize] = self.ff_next[k];
        }

        self.dirty = true;
        self.ensure_settled()?;
        self.cycle_count += 1;
        Ok(())
    }

    fn lane_mask(&self) -> Mask4 {
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
        for i in 0..p.acyclic_prefix {
            let value = eval_op(&p, &self.nets, &self.words, i);
            self.nets[p.outs[i] as usize] = value;
        }
        if !p.levelized {
            // Iterate only the cyclic remainder to a fixpoint, with
            // the interpreter's pass budget.
            let mask = self.lane_mask();
            let limit = 2 * p.tags.len() + 8;
            let mut pass = 0;
            loop {
                let mut changed_net: Option<u32> = None;
                for i in p.acyclic_prefix..p.tags.len() {
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
                                net: p.net_names[net as usize].clone(),
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
    use super::*;
    use crate::batch::{self, Planes};

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// Mirrors a 64-lane plane pair into word `w` of a `Planes4`.
    fn widen(p: Planes, w: usize) -> Planes4 {
        let mut r = Planes4::default();
        r.v[w] = p.v;
        r.u[w] = p.u;
        r
    }

    /// Every binary kernel must equal the proven 64-lane kernel
    /// word-for-word, for all four-state combinations in every word.
    #[test]
    fn binary_kernels_match_interpreted_planes() {
        let mut a64 = Planes::default();
        let mut b64 = Planes::default();
        for (lane, (x, y)) in ALL
            .iter()
            .flat_map(|x| ALL.iter().map(move |y| (*x, *y)))
            .enumerate()
        {
            a64 = a64.with_lane(lane, x);
            b64 = b64.with_lane(lane, y);
        }
        for w in 0..WORDS {
            let a = widen(a64, w);
            let b = widen(b64, w);
            assert_eq!(and_k(a, b).v[w], batch::and_k(a64, b64).v);
            assert_eq!(and_k(a, b).u[w], batch::and_k(a64, b64).u);
            assert_eq!(or_k(a, b).v[w], batch::or_k(a64, b64).v);
            assert_eq!(or_k(a, b).u[w], batch::or_k(a64, b64).u);
            assert_eq!(xor_k(a, b).v[w], batch::xor_k(a64, b64).v);
            assert_eq!(xor_k(a, b).u[w], batch::xor_k(a64, b64).u);
            assert_eq!(not_k(a).v[w], batch::not_k(a64).v);
            assert_eq!(not_k(a).u[w], batch::not_k(a64).u);
            assert_eq!(pess(a).v[w], batch::pess(a64).v);
            assert_eq!(pess(a).u[w], batch::pess(a64).u);
        }
    }

    #[test]
    fn mux_kernel_matches_interpreted_planes() {
        // All 64 (sel, d0, d1) four-state combinations fit one plane.
        let mut sel64 = Planes::default();
        let mut d064 = Planes::default();
        let mut d164 = Planes::default();
        let mut lane = 0;
        for s in ALL {
            for x in ALL {
                for y in ALL {
                    sel64 = sel64.with_lane(lane, s);
                    d064 = d064.with_lane(lane, x);
                    d164 = d164.with_lane(lane, y);
                    lane += 1;
                }
            }
        }
        let expect = batch::mux_k(sel64, d064, d164);
        for w in 0..WORDS {
            let got = mux_k(widen(sel64, w), widen(d064, w), widen(d164, w));
            assert_eq!(got.v[w], expect.v);
            assert_eq!(got.u[w], expect.u);
        }
    }

    #[test]
    fn lut_fold_matches_recursive_expansion() {
        // The iterative fold must equal the interpreter's recursive
        // Shannon expansion for every arity and a spread of tables.
        for n in 1..=4usize {
            for init in [0u16, 0xFFFF, 0x6996, 0xAAAA, 0xCAFE, 0x8001, 0x1234] {
                let mask = if n == 4 {
                    0xFFFF
                } else {
                    (1u16 << (1 << n)) - 1
                };
                let init = init & mask;
                // Pack a rolling window of four-state values per input.
                let ins64: Vec<Planes> = (0..n)
                    .map(|i| {
                        let mut p = Planes::default();
                        for lane in 0..64 {
                            p = p.with_lane(lane, ALL[(lane >> i) % 4]);
                        }
                        p
                    })
                    .collect();
                let expect = batch::lut_k(n, init, &ins64);
                for w in 0..WORDS {
                    let nets: Vec<Planes4> = ins64.iter().map(|&p| widen(p, w)).collect();
                    let args: Vec<u32> = (0..n as u32).collect();
                    let got = lut_k(n, init, &nets, &args);
                    assert_eq!(got.v[w], expect.v, "lut{n} init {init:#06x} word {w}");
                    assert_eq!(got.u[w], expect.u, "lut{n} init {init:#06x} word {w}");
                }
            }
        }
    }

    #[test]
    fn word_read_matches_interpreted_planes() {
        let mut word64 = [Planes::splat(Logic::Zero); 16];
        word64[5] = Planes::splat(Logic::One);
        word64[9] = Planes::splat(Logic::X);
        let mut addr64 = [Planes::default(); 4];
        for (i, a) in addr64.iter_mut().enumerate() {
            for lane in 0..64 {
                *a = a.with_lane(lane, ALL[(lane >> i) % 4]);
            }
        }
        let expect = batch::word_read_k(&addr64, &word64);
        for w in 0..WORDS {
            let addr: [Planes4; 4] = std::array::from_fn(|i| widen(addr64[i], w));
            let word: [Planes4; 16] = std::array::from_fn(|i| widen(word64[i], w));
            let got = word_read_k(&addr, &word);
            assert_eq!(got.v[w], expect.v);
            assert_eq!(got.u[w], expect.u);
        }
    }

    #[test]
    fn planes4_lane_round_trip() {
        for l in ALL {
            assert_eq!(Planes4::splat(l).lane(17), l);
            assert_eq!(Planes4::splat(l).lane(200), l);
            let p = Planes4::splat(Logic::Zero).with_lane(130, l);
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
