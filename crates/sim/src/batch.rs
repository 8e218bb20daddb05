//! Bit-parallel batch simulation: 64 stimulus vectors per pass.
//!
//! Each net's four-state value is encoded as two 64-bit planes — a
//! *value* plane and an *unknown* plane — with one bit per lane
//! (stimulus vector):
//!
//! | state | value bit | unknown bit |
//! |-------|-----------|-------------|
//! | `0`   | 0         | 0           |
//! | `1`   | 1         | 0           |
//! | `X`   | 0         | 1           |
//! | `Z`   | 1         | 1           |
//!
//! One pass over the levelized evaluation order then simulates up to
//! 64 independent stimulus vectors per gate operation using plain
//! word-wide boolean algebra, giving a large constant-factor speedup
//! over scalar simulation for sweeps. The plane kernels reproduce the
//! scalar simulator's four-state semantics *exactly* — including X/Z
//! pessimism, LUT cofactor analysis, mux agreement on unknown selects,
//! and memory-word agreement on unknown addresses — so a
//! [`BatchSimulator`] lane is bit-identical to a [`Simulator`] run of
//! the same stimulus.
//!
//! [`Simulator`]: crate::Simulator
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, LogicVec, PortSpec};
//! use ipd_sim::BatchSimulator;
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
//! let mut sim = BatchSimulator::new(&circuit, 4)?;
//! for lane in 0..4 {
//!     sim.set_lane("a", lane, &LogicVec::from_u64(u64::from(lane >= 2), 1))?;
//!     sim.set_lane("b", lane, &LogicVec::from_u64(u64::from(lane % 2 == 1), 1))?;
//! }
//! let y: Vec<_> = (0..4).map(|l| sim.peek_lane("y", l).unwrap().to_u64()).collect();
//! assert_eq!(y, [Some(0), Some(0), Some(0), Some(1)]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicColumn, LogicVec, NetId, PortDir};
use ipd_techlib::PrimKind;

use crate::compile::{compile, Compiled, EvalFunc, SeqUpdate};
use crate::error::SimError;
use crate::waveform::Trace;

/// Maximum number of lanes a [`BatchSimulator`] can hold (one bit per
/// lane in each 64-bit plane word).
pub const MAX_LANES: usize = 64;

/// Two bit-planes holding one four-state value per lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Planes {
    /// Value plane.
    pub v: u64,
    /// Unknown plane (set for `X` and `Z`).
    pub u: u64,
}

impl Planes {
    /// The same logic value in every lane.
    pub(crate) fn splat(value: Logic) -> Self {
        match value {
            Logic::Zero => Planes { v: 0, u: 0 },
            Logic::One => Planes { v: !0, u: 0 },
            Logic::X => Planes { v: 0, u: !0 },
            Logic::Z => Planes { v: !0, u: !0 },
        }
    }

    /// The logic value in one lane.
    pub(crate) fn lane(self, lane: usize) -> Logic {
        match ((self.v >> lane) & 1, (self.u >> lane) & 1) {
            (0, 0) => Logic::Zero,
            (1, 0) => Logic::One,
            (0, _) => Logic::X,
            _ => Logic::Z,
        }
    }

    /// This plane pair with one lane replaced.
    pub(crate) fn with_lane(self, lane: usize, value: Logic) -> Self {
        let bit = 1u64 << lane;
        let single = Planes::splat(value);
        Planes {
            v: (self.v & !bit) | (single.v & bit),
            u: (self.u & !bit) | (single.u & bit),
        }
    }
}

/// Lanes where the value is a driven 0.
#[inline]
fn known0(p: Planes) -> u64 {
    !p.v & !p.u
}

/// Lanes where the value is a driven 1.
#[inline]
fn known1(p: Planes) -> u64 {
    p.v & !p.u
}

/// Four-state NOT: `X`/`Z` → `X`.
#[inline]
pub(crate) fn not_k(p: Planes) -> Planes {
    Planes {
        v: !p.v & !p.u,
        u: p.u,
    }
}

/// Buffer pessimism: driven values pass, `X`/`Z` → `X`.
#[inline]
pub(crate) fn pess(p: Planes) -> Planes {
    Planes {
        v: p.v & !p.u,
        u: p.u,
    }
}

/// Four-state AND: a driven 0 dominates any unknown.
#[inline]
pub(crate) fn and_k(a: Planes, b: Planes) -> Planes {
    let zero = known0(a) | known0(b);
    let one = known1(a) & known1(b);
    Planes {
        v: one,
        u: !(zero | one),
    }
}

/// Four-state OR: a driven 1 dominates any unknown.
#[inline]
pub(crate) fn or_k(a: Planes, b: Planes) -> Planes {
    let one = known1(a) | known1(b);
    let zero = known0(a) & known0(b);
    Planes {
        v: one,
        u: !(zero | one),
    }
}

/// Four-state XOR: known only when both inputs are driven.
#[inline]
pub(crate) fn xor_k(a: Planes, b: Planes) -> Planes {
    let u = a.u | b.u;
    Planes {
        v: (a.v ^ b.v) & !u,
        u,
    }
}

/// Four-state 2:1 select: `sel=0` → `d0`, `sel=1` → `d1` (both
/// pessimized), unknown select → the common value when both data
/// inputs are driven and agree, else `X`.
#[inline]
pub(crate) fn mux_k(sel: Planes, d0: Planes, d1: Planes) -> Planes {
    let s0 = known0(sel);
    let s1 = known1(sel);
    let su = sel.u;
    let p0 = pess(d0);
    let p1 = pess(d1);
    let agree = !d0.u & !d1.u & !(d0.v ^ d1.v);
    Planes {
        v: (s0 & p0.v) | (s1 & p1.v) | (su & agree & d0.v),
        u: (s0 & p0.u) | (s1 & p1.u) | (su & !agree),
    }
}

/// LUT evaluation by Shannon expansion over the inputs. Per lane this
/// is exactly the scalar cofactor analysis: a known input selects its
/// cofactor, an unknown input yields a known result only when both
/// cofactors are driven and agree.
pub(crate) fn lut_k(n: usize, init: u16, ins: &[Planes]) -> Planes {
    if n == 0 {
        return Planes::splat(Logic::from_bool(init & 1 == 1));
    }
    let half = 1u32 << (n - 1);
    let lo = lut_k(n - 1, init & ((1u32 << half) - 1) as u16, ins);
    let hi = lut_k(n - 1, (u32::from(init) >> half) as u16, ins);
    mux_k(ins[n - 1], lo, hi)
}

/// Asynchronous 16×1 word read with a 4-bit address. Known addresses
/// select their word bit; lanes with any unknown address bit read the
/// common value when all 16 word bits are driven and agree, else `X`.
pub(crate) fn word_read_k(addr: &[Planes], word: &[Planes; 16]) -> Planes {
    let mut unk = 0u64;
    for a in addr {
        unk |= a.u;
    }
    let mut v = 0u64;
    let mut u = 0u64;
    for (idx, w) in word.iter().enumerate() {
        let mut sel = !0u64;
        for (i, a) in addr.iter().enumerate() {
            sel &= if (idx >> i) & 1 == 1 {
                known1(*a)
            } else {
                known0(*a)
            };
        }
        v |= sel & w.v;
        u |= sel & w.u;
    }
    let mut agree1 = !0u64;
    let mut agree0 = !0u64;
    for w in word {
        agree1 &= known1(*w);
        agree0 &= known0(*w);
    }
    Planes {
        v: (v & !unk) | (unk & agree1),
        u: (u & !unk) | (unk & !(agree1 | agree0)),
    }
}

/// Plane-wise combinational evaluation of one primitive; mirrors
/// [`PrimKind::eval_comb`] lane-for-lane.
fn eval_prim_k(kind: &PrimKind, ins: &[Planes]) -> Planes {
    match kind {
        PrimKind::Inv => not_k(ins[0]),
        PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => pess(ins[0]),
        PrimKind::And(n) => ins[1..*n as usize]
            .iter()
            .fold(ins[0], |acc, &i| and_k(acc, i)),
        PrimKind::Or(n) => ins[1..*n as usize]
            .iter()
            .fold(ins[0], |acc, &i| or_k(acc, i)),
        PrimKind::Nand(n) => not_k(eval_prim_k(&PrimKind::And(*n), ins)),
        PrimKind::Nor(n) => not_k(eval_prim_k(&PrimKind::Or(*n), ins)),
        PrimKind::Xor(n) => ins[1..*n as usize]
            .iter()
            .fold(ins[0], |acc, &i| xor_k(acc, i)),
        PrimKind::Xnor2 => not_k(xor_k(ins[0], ins[1])),
        // mux2 inputs are [i0, i1, sel].
        PrimKind::Mux2 => mux_k(ins[2], ins[0], ins[1]),
        PrimKind::Lut { inputs, init } => lut_k(*inputs as usize, *init, ins),
        // muxcy inputs are [ci, di, s]; s=1 selects the carry-in.
        PrimKind::Muxcy => mux_k(ins[2], ins[1], ins[0]),
        PrimKind::Xorcy => xor_k(ins[0], ins[1]),
        PrimKind::MultAnd => and_k(ins[0], ins[1]),
        PrimKind::Rom16x1 { init } => lut_k(4, *init, ins),
        PrimKind::Gnd => Planes::splat(Logic::Zero),
        PrimKind::Vcc => Planes::splat(Logic::One),
        PrimKind::Ff { .. } | PrimKind::Srl16 { .. } | PrimKind::Ram16x1 { .. } => {
            unreachable!("sequential primitives are not evaluation nodes")
        }
    }
}

/// Clock-enable style masks for a control net: (known-1, known-0,
/// unknown) lane sets.
#[inline]
fn ctl_masks(p: Planes) -> (u64, u64, u64) {
    (known1(p), known0(p), p.u)
}

/// State storage for one sequential element, lane-parallel.
// Word states are read and written every cycle; boxing them to shrink
// the enum would trade the FF variants' slack for a pointer chase in
// the sequential-update hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum BatchState {
    /// Flip-flop bit planes.
    Bit(Planes),
    /// 16-bit memory/shift-register word, one plane pair per bit.
    Word([Planes; 16]),
}

/// A recorded waveform before per-lane extraction.
#[derive(Debug, Clone)]
struct BatchTrace {
    name: String,
    nets: Vec<NetId>,
    /// One entry per cycle; each entry holds the planes of every net.
    samples: Vec<Vec<Planes>>,
}

/// A lane-parallel batch simulator: up to [`MAX_LANES`] independent
/// stimulus vectors advanced together through the same compiled
/// circuit.
///
/// Lane `l` of a `BatchSimulator` behaves bit-identically (including
/// `X`/`Z` propagation) to a scalar [`Simulator`](crate::Simulator)
/// driven with lane `l`'s stimulus.
#[derive(Debug, Clone)]
pub struct BatchSimulator {
    compiled: Compiled,
    lanes: usize,
    nets: Vec<Planes>,
    states: Vec<BatchState>,
    input_values: HashMap<String, Vec<Planes>>,
    dirty: bool,
    cycle_count: u64,
    traces: Vec<BatchTrace>,
}

impl BatchSimulator {
    /// Compiles a circuit for `lanes`-wide batch simulation,
    /// auto-detecting the clock (an input named `clk`, `c` or
    /// `clock`).
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`](crate::Simulator::new), plus
    /// [`SimError::InvalidLanes`] when `lanes` is 0 or above
    /// [`MAX_LANES`].
    pub fn new(circuit: &Circuit, lanes: usize) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, None, lanes)
    }

    /// Compiles a circuit with an explicit clock port.
    ///
    /// # Errors
    ///
    /// As for [`BatchSimulator::new`].
    pub fn with_clock(circuit: &Circuit, clock_port: &str, lanes: usize) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, Some(clock_port), lanes)
    }

    /// Compiles an already-flattened design.
    ///
    /// # Errors
    ///
    /// As for [`BatchSimulator::new`].
    pub fn from_flat(
        flat: &FlatNetlist,
        clock_port: Option<&str>,
        lanes: usize,
    ) -> Result<Self, SimError> {
        let compiled = compile(flat, clock_port)?;
        Self::from_compiled(compiled, lanes)
    }

    /// Instantiates a simulator over an already-compiled model (the
    /// sweep runner compiles once and stamps out per-shard instances
    /// with exact lane counts).
    pub(crate) fn from_compiled(compiled: Compiled, lanes: usize) -> Result<Self, SimError> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(SimError::InvalidLanes { lanes });
        }
        let mut sim = BatchSimulator {
            lanes,
            nets: vec![Planes::splat(Logic::X); compiled.net_count],
            states: Vec::new(),
            input_values: HashMap::new(),
            dirty: true,
            cycle_count: 0,
            traces: Vec::new(),
            compiled,
        };
        sim.power_on();
        Ok(sim)
    }

    /// The compiled model (shared source for program lowering).
    pub(crate) fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// Number of stimulus lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `true` when the combinational network was fully levelized.
    #[must_use]
    pub fn is_levelized(&self) -> bool {
        self.compiled.levelized
    }

    /// Cycles simulated since power-on or the last reset.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycle_count
    }

    /// Names, directions and widths of the primary ports.
    #[must_use]
    pub fn ports(&self) -> Vec<(String, PortDir, u32)> {
        self.compiled
            .ports
            .iter()
            .map(|p| (p.name.clone(), p.dir, p.nets.len() as u32))
            .collect()
    }

    fn power_on(&mut self) {
        self.nets.fill(Planes::splat(Logic::X));
        self.states.clear();
        for update in &self.compiled.seq {
            match update {
                SeqUpdate::Ff { init, .. } => {
                    self.states.push(BatchState::Bit(Planes::splat(*init)))
                }
                SeqUpdate::Srl16 { init, .. } | SeqUpdate::Ram16 { init, .. } => {
                    let mut word = [Planes::default(); 16];
                    for (i, bit) in word.iter_mut().enumerate() {
                        *bit = Planes::splat(Logic::from_bool((init >> i) & 1 == 1));
                    }
                    self.states.push(BatchState::Word(word));
                }
            }
        }
        for &(net, v) in &self.compiled.const_drives {
            self.nets[net.index()] = Planes::splat(v);
        }
        for &net in &self.compiled.black_box_outputs {
            self.nets[net.index()] = Planes::splat(Logic::X);
        }
        self.drive_state_outputs();
        for &net in &self.compiled.clock_nets {
            self.nets[net.index()] = Planes::splat(Logic::Zero);
        }
        self.dirty = true;
    }

    /// Resets all sequential state to power-on values in every lane,
    /// keeping the current input assignments.
    pub fn reset(&mut self) {
        let inputs = std::mem::take(&mut self.input_values);
        self.power_on();
        self.cycle_count = 0;
        for (port, planes) in inputs {
            if let Some(info) = self.compiled.ports.iter().find(|p| p.name == port) {
                for (i, &net) in info.nets.iter().enumerate() {
                    self.nets[net.index()] = planes[i];
                }
                self.input_values.insert(port, planes);
            }
        }
        self.dirty = true;
    }

    fn port_info(&self, port: &str) -> Result<usize, SimError> {
        self.compiled
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
        let idx = self.port_info(port)?;
        let info = &self.compiled.ports[idx];
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
        let nets = info.nets.clone();
        for (i, &net) in nets.iter().enumerate() {
            let cur = self.nets[net.index()];
            self.nets[net.index()] = cur.with_lane(lane, value.bit(i));
        }
        let snapshot: Vec<Planes> = nets.iter().map(|n| self.nets[n.index()]).collect();
        self.input_values.insert(port.to_owned(), snapshot);
        self.dirty = true;
        Ok(())
    }

    /// Drives a primary input port with the same value in every lane.
    ///
    /// # Errors
    ///
    /// As for [`BatchSimulator::set_lane`].
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
    /// As for [`BatchSimulator::set_lane`], plus
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
    /// As for [`BatchSimulator::set_lane`].
    pub fn set_u64_lane(&mut self, port: &str, lane: usize, value: u64) -> Result<(), SimError> {
        let idx = self.port_info(port)?;
        let width = self.compiled.ports[idx].nets.len();
        self.set_lane(port, lane, &LogicVec::from_u64(value, width))
    }

    /// Convenience: drives one lane with a signed integer (two's
    /// complement).
    ///
    /// # Errors
    ///
    /// As for [`BatchSimulator::set_lane`].
    pub fn set_i64_lane(&mut self, port: &str, lane: usize, value: i64) -> Result<(), SimError> {
        let idx = self.port_info(port)?;
        let width = self.compiled.ports[idx].nets.len();
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
        let idx = self.port_info(port)?;
        Ok(self.compiled.ports[idx]
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
    /// As for [`BatchSimulator::peek_lane`].
    pub fn peek_lanes(&mut self, port: &str) -> Result<Vec<LogicVec>, SimError> {
        self.ensure_settled()?;
        let idx = self.port_info(port)?;
        let nets = &self.compiled.ports[idx].nets;
        Ok((0..self.lanes)
            .map(|lane| {
                nets.iter()
                    .map(|n| self.nets[n.index()].lane(lane))
                    .collect()
            })
            .collect())
    }

    /// Drives input port `port` (an index into the compiled ports,
    /// already checked to be an input of the column's width) in every
    /// lane from plane word `word` of `column`. Lanes past the lane
    /// count keep their value.
    pub(crate) fn set_port_word(&mut self, port: usize, column: &LogicColumn, word: usize) {
        let mask = self.lane_mask();
        let info = &self.compiled.ports[port];
        let mut snapshot = Vec::with_capacity(info.nets.len());
        for (bit, net) in info.nets.iter().enumerate() {
            let plane = |plane: &[u64]| plane.get(word).copied().unwrap_or(0) & mask;
            let cur = &mut self.nets[net.index()];
            cur.v = (cur.v & !mask) | plane(column.value_plane(bit));
            cur.u = (cur.u & !mask) | plane(column.unknown_plane(bit));
            snapshot.push(*cur);
        }
        self.input_values.insert(info.name.clone(), snapshot);
        self.dirty = true;
    }

    /// The settled planes of port `port` (a compiled port index), one
    /// per bit, LSB first.
    pub(crate) fn port_planes(
        &mut self,
        port: usize,
    ) -> Result<impl Iterator<Item = Planes> + '_, SimError> {
        self.ensure_settled()?;
        let nets = &self.nets;
        Ok(self.compiled.ports[port]
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
        let id =
            self.compiled
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
            .compiled
            .state_paths
            .iter()
            .position(|p| p == instance_path)?;
        match &self.states[idx] {
            BatchState::Bit(p) => Some(p.lane(lane)),
            BatchState::Word(_) => None,
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
            .compiled
            .state_paths
            .iter()
            .position(|p| p == instance_path)?;
        match &self.states[idx] {
            BatchState::Word(word) => Some(word.iter().map(|p| p.lane(lane)).collect()),
            BatchState::Bit(_) => None,
        }
    }

    /// Forces a flip-flop's current state by instance path in one
    /// lane, driving its output net so downstream logic observes the
    /// forced value at the next settle. Returns `false` for unknown
    /// paths, word-state elements, or out-of-range lanes.
    ///
    /// This is the counterexample-replay back door used by
    /// `ipd-verify`: a SAT witness names a register cut state, and
    /// replay must start the simulator from exactly that state.
    pub fn set_ff_lane(&mut self, instance_path: &str, lane: usize, value: Logic) -> bool {
        if lane >= self.lanes {
            return false;
        }
        let Some(idx) = self
            .compiled
            .state_paths
            .iter()
            .position(|p| p == instance_path)
        else {
            return false;
        };
        let BatchState::Bit(p) = self.states[idx] else {
            return false;
        };
        let forced = p.with_lane(lane, value);
        self.states[idx] = BatchState::Bit(forced);
        for update in &self.compiled.seq {
            if let SeqUpdate::Ff { state, q, .. } = update {
                if *state == idx {
                    self.nets[q.index()] = forced;
                }
            }
        }
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
            .compiled
            .state_paths
            .iter()
            .position(|p| p == instance_path)
        else {
            return false;
        };
        let BatchState::Word(word) = &mut self.states[idx] else {
            return false;
        };
        for (i, bit) in word.iter_mut().enumerate() {
            *bit = bit.with_lane(lane, value.bit(i));
        }
        self.dirty = true;
        true
    }

    /// Lists the instance paths of all stateful elements.
    #[must_use]
    pub fn state_elements(&self) -> &[String] {
        &self.compiled.state_paths
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
        let mut next = self.states.clone();
        for update in &self.compiled.seq {
            match update {
                SeqUpdate::Ff {
                    state,
                    d,
                    ce,
                    control,
                    q: _,
                    init: _,
                } => {
                    let BatchState::Bit(cur) = self.states[*state] else {
                        unreachable!("ff state is a bit")
                    };
                    let d = self.nets[d.index()];
                    let (ce1, ce0, ceu) = match ce {
                        None => (!0u64, 0u64, 0u64),
                        Some(c) => ctl_masks(self.nets[c.index()]),
                    };
                    let mut v = (ce1 & d.v) | (ce0 & cur.v);
                    let mut u = (ce1 & d.u) | (ce0 & cur.u) | ceu;
                    if let Some((_kind, net)) = control {
                        // One clears, zero keeps, unknown poisons —
                        // identical for async clear and sync reset at
                        // cycle granularity.
                        let (c1, c0, cu) = ctl_masks(self.nets[net.index()]);
                        let _ = c1;
                        v &= c0;
                        u = (u & c0) | cu;
                    }
                    next[*state] = BatchState::Bit(Planes { v, u });
                }
                SeqUpdate::Srl16 {
                    state,
                    d,
                    ce,
                    init: _,
                } => {
                    let BatchState::Word(cur) = &self.states[*state] else {
                        unreachable!("srl state is a word")
                    };
                    let d = self.nets[d.index()];
                    let (ce1, ce0, ceu) = ctl_masks(self.nets[ce.index()]);
                    let mut word = [Planes::default(); 16];
                    for (i, slot) in word.iter_mut().enumerate() {
                        let src = if i == 0 { d } else { cur[i - 1] };
                        slot.v = (ce1 & src.v) | (ce0 & cur[i].v);
                        slot.u = (ce1 & src.u) | (ce0 & cur[i].u) | ceu;
                    }
                    next[*state] = BatchState::Word(word);
                }
                SeqUpdate::Ram16 {
                    state,
                    d,
                    we,
                    addr,
                    init: _,
                } => {
                    let BatchState::Word(cur) = &self.states[*state] else {
                        unreachable!("ram state is a word")
                    };
                    let d = self.nets[d.index()];
                    let (we1, we0, weu) = ctl_masks(self.nets[we.index()]);
                    let addr: Vec<Planes> = addr.iter().map(|a| self.nets[a.index()]).collect();
                    let mut addr_unk = 0u64;
                    for a in &addr {
                        addr_unk |= a.u;
                    }
                    // A write with any unknown address bit poisons the
                    // whole word, as does an unknown write-enable.
                    let xmask = weu | (we1 & addr_unk);
                    let mut word = [Planes::default(); 16];
                    for (idx, slot) in word.iter_mut().enumerate() {
                        let mut sel = !0u64;
                        for (i, a) in addr.iter().enumerate() {
                            sel &= if (idx >> i) & 1 == 1 {
                                known1(*a)
                            } else {
                                known0(*a)
                            };
                        }
                        let write = we1 & sel;
                        let hold = we0 | (we1 & !addr_unk & !sel);
                        slot.v = (write & d.v) | (hold & cur[idx].v);
                        slot.u = (write & d.u) | (hold & cur[idx].u) | xmask;
                    }
                    next[*state] = BatchState::Word(word);
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
        for update in &self.compiled.seq {
            if let SeqUpdate::Ff { state, q, .. } = update {
                if let BatchState::Bit(p) = self.states[*state] {
                    self.nets[q.index()] = p;
                }
            }
        }
    }

    fn lane_mask(&self) -> u64 {
        if self.lanes == MAX_LANES {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    fn ensure_settled(&mut self) -> Result<(), SimError> {
        if !self.dirty {
            return Ok(());
        }
        if self.compiled.levelized {
            for i in 0..self.compiled.eval_order.len() {
                let value = self.eval_node(i);
                let out = self.compiled.eval_order[i].output;
                self.nets[out.index()] = value;
            }
        } else {
            let mask = self.lane_mask();
            let limit = 2 * self.compiled.eval_order.len() + 8;
            let mut pass = 0;
            loop {
                let mut changed_net: Option<NetId> = None;
                for i in 0..self.compiled.eval_order.len() {
                    let value = self.eval_node(i);
                    let out = self.compiled.eval_order[i].output;
                    let old = self.nets[out.index()];
                    if ((old.v ^ value.v) | (old.u ^ value.u)) & mask != 0 {
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
                                net: self.compiled.net_names[net.index()].clone(),
                            });
                        }
                    }
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    fn eval_node(&self, index: usize) -> Planes {
        let node = &self.compiled.eval_order[index];
        // Primitives have at most 4 inputs; avoid a heap allocation
        // per node in the inner loop.
        let mut ins = [Planes::default(); 8];
        for (slot, n) in ins.iter_mut().zip(&node.inputs) {
            *slot = self.nets[n.index()];
        }
        let ins = &ins[..node.inputs.len()];
        match &node.func {
            EvalFunc::Prim(kind) => eval_prim_k(kind, ins),
            EvalFunc::SrlRead { state } | EvalFunc::RamRead { state } => {
                let BatchState::Word(word) = &self.states[*state] else {
                    return Planes::splat(Logic::X);
                };
                word_read_k(ins, word)
            }
        }
    }

    /// Starts recording a per-cycle waveform for a primary port (all
    /// lanes at once; extract with [`BatchSimulator::lane_trace`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown ports.
    pub fn record(&mut self, port: &str) -> Result<(), SimError> {
        let idx = self.port_info(port)?;
        let info = &self.compiled.ports[idx];
        self.traces.push(BatchTrace {
            name: info.name.clone(),
            nets: info.nets.clone(),
            samples: Vec::new(),
        });
        Ok(())
    }

    fn sample_traces(&mut self) {
        for i in 0..self.traces.len() {
            let sample: Vec<Planes> = self.traces[i]
                .nets
                .iter()
                .map(|n| self.nets[n.index()])
                .collect();
            self.traces[i].samples.push(sample);
        }
    }

    /// Extracts the recorded waveform of one port for one lane as a
    /// scalar [`Trace`] (identical to what a scalar simulator run of
    /// that lane's stimulus would have recorded).
    ///
    /// # Errors
    ///
    /// Fails for unrecorded ports or out-of-range lanes.
    pub fn lane_trace(&self, port: &str, lane: usize) -> Result<Trace, SimError> {
        self.check_lane(lane)?;
        let bt =
            self.traces
                .iter()
                .find(|t| t.name == port)
                .ok_or_else(|| SimError::UnknownPort {
                    port: port.to_owned(),
                })?;
        let mut trace = Trace::new(&bt.name, bt.nets.len());
        for sample in &bt.samples {
            trace.push(sample.iter().map(|p| p.lane(lane)).collect());
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// Packs one input combination per lane and checks every lane of
    /// the plane kernel against the scalar `eval_comb`.
    fn check_kernel(kind: &PrimKind, arity: usize) {
        let combos: Vec<Vec<Logic>> = (0..4usize.pow(arity as u32))
            .map(|mut c| {
                (0..arity)
                    .map(|_| {
                        let l = ALL[c % 4];
                        c /= 4;
                        l
                    })
                    .collect()
            })
            .collect();
        for chunk in combos.chunks(MAX_LANES) {
            let mut ins = vec![Planes::default(); arity];
            for (lane, combo) in chunk.iter().enumerate() {
                for (i, &l) in combo.iter().enumerate() {
                    ins[i] = ins[i].with_lane(lane, l);
                }
            }
            let out = eval_prim_k(kind, &ins);
            for (lane, combo) in chunk.iter().enumerate() {
                let expect = kind.eval_comb(combo);
                assert_eq!(out.lane(lane), expect, "{} on {combo:?}", kind.name());
            }
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
            let bits = 1u32 << inputs;
            let mask = if bits == 16 {
                0xFFFF
            } else {
                (1u16 << bits) - 1
            };
            for init in [0u16, 0xFFFF, 0x6996, 0xAAAA, 0xCAFE, 0x8001, 0x1234] {
                let kind = PrimKind::Lut {
                    inputs,
                    init: init & mask,
                };
                check_kernel(&kind, inputs as usize);
            }
        }
        check_kernel(&PrimKind::Rom16x1 { init: 0x8001 }, 4);
        check_kernel(&PrimKind::Rom16x1 { init: 0x6996 }, 4);
    }

    #[test]
    fn word_read_matches_scalar_semantics() {
        // Exhaustive over one address bit unknown vs known, with
        // agreeing and disagreeing word contents.
        let agree_one = [Planes::splat(Logic::One); 16];
        let mut mixed = [Planes::splat(Logic::Zero); 16];
        mixed[5] = Planes::splat(Logic::One);

        // Known address 5 reads word[5].
        let addr5 = [
            Planes::splat(Logic::One),
            Planes::splat(Logic::Zero),
            Planes::splat(Logic::One),
            Planes::splat(Logic::Zero),
        ];
        assert_eq!(word_read_k(&addr5, &mixed).lane(0), Logic::One);
        // Unknown address over agreeing contents still reads the value.
        let addr_x = [
            Planes::splat(Logic::X),
            Planes::splat(Logic::Zero),
            Planes::splat(Logic::Zero),
            Planes::splat(Logic::Zero),
        ];
        assert_eq!(word_read_k(&addr_x, &agree_one).lane(0), Logic::One);
        // Unknown address over disagreeing contents is X.
        assert_eq!(word_read_k(&addr_x, &mixed).lane(0), Logic::X);
    }

    #[test]
    fn planes_lane_round_trip() {
        for l in ALL {
            assert_eq!(Planes::splat(l).lane(17), l);
            let p = Planes::splat(Logic::Zero).with_lane(3, l);
            assert_eq!(p.lane(3), l);
            assert_eq!(p.lane(2), Logic::Zero);
        }
    }

    #[test]
    fn invalid_lane_counts_are_rejected() {
        let circuit = Circuit::new("empty");
        assert!(matches!(
            BatchSimulator::new(&circuit, 0),
            Err(SimError::InvalidLanes { lanes: 0 })
        ));
        assert!(matches!(
            BatchSimulator::new(&circuit, 65),
            Err(SimError::InvalidLanes { lanes: 65 })
        ));
    }
}
