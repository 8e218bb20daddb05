//! The Virtex-like primitive set: interfaces, classes and behaviour.

use ipd_hdl::{Logic, PortDir, PortSpec, Primitive};

use crate::error::TechError;

/// The library name used for all primitives in this technology.
pub const LIBRARY: &str = "virtex";

/// Asynchronous-control flavour of a flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfControl {
    /// Plain D flip-flop.
    None,
    /// Asynchronous clear (`clr`).
    AsyncClear,
    /// Synchronous reset (`r`).
    SyncReset,
}

/// Behavioural classification of a primitive, used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimClass {
    /// Pure combinational function of its inputs.
    Comb,
    /// Edge-triggered flip-flop.
    Ff {
        /// Whether a clock-enable port exists.
        has_ce: bool,
        /// Reset/clear behaviour.
        control: FfControl,
    },
    /// 16-bit shift-register LUT (address selects tap).
    Srl16,
    /// 16×1 synchronous-write, asynchronous-read RAM.
    Ram16,
    /// 16×1 ROM (combinational, contents from `INIT`).
    Rom16,
    /// Constant driver.
    Const(Logic),
}

/// A resolved primitive kind with its `INIT` contents.
///
/// [`PrimKind::from_primitive`] is the single point where the
/// technology-independent [`Primitive`](ipd_hdl::Primitive) reference
/// stored in the circuit is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// N-input AND (2–4).
    And(u8),
    /// N-input OR (2–4).
    Or(u8),
    /// N-input NAND (2–4).
    Nand(u8),
    /// N-input NOR (2–4).
    Nor(u8),
    /// N-input XOR (2–3).
    Xor(u8),
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer (`i0`, `i1`, `sel`).
    Mux2,
    /// N-input look-up table (1–4) with truth table `init`.
    Lut {
        /// Number of inputs (1–4).
        inputs: u8,
        /// Truth table; bit `k` is the output for input pattern `k`.
        init: u16,
    },
    /// Carry-chain multiplexer (`ci`, `di`, `s` → `o`).
    Muxcy,
    /// Carry-chain XOR (`ci`, `li` → `o`).
    Xorcy,
    /// Dedicated multiplier AND gate feeding the carry chain.
    MultAnd,
    /// D flip-flop family.
    Ff {
        /// Clock enable present.
        has_ce: bool,
        /// Control flavour.
        control: FfControl,
        /// Power-up value (from `INIT`, default 0).
        init: Logic,
    },
    /// 16-bit shift register LUT with initial contents.
    Srl16 {
        /// Initial 16-bit contents.
        init: u16,
    },
    /// 16×1 single-port RAM with initial contents.
    Ram16x1 {
        /// Initial 16-bit contents.
        init: u16,
    },
    /// 16×1 ROM.
    Rom16x1 {
        /// 16-bit contents.
        init: u16,
    },
    /// Ground (constant 0).
    Gnd,
    /// Power (constant 1).
    Vcc,
    /// Input pad buffer.
    Ibuf,
    /// Output pad buffer.
    Obuf,
    /// Global clock buffer.
    Bufg,
}

impl PrimKind {
    /// Interprets a circuit primitive reference.
    ///
    /// # Errors
    ///
    /// Fails for foreign libraries, unknown names, or missing/oversized
    /// `INIT` values.
    pub fn from_primitive(prim: &Primitive) -> Result<Self, TechError> {
        if prim.library != LIBRARY {
            return Err(TechError::UnknownLibrary {
                library: prim.library.clone(),
            });
        }
        let init16 = || -> Result<u16, TechError> {
            let v = prim.init.ok_or(TechError::MissingInit {
                name: prim.name.clone(),
            })?;
            u16::try_from(v).map_err(|_| TechError::InvalidInit {
                name: prim.name.clone(),
                init: v,
            })
        };
        let ff = |has_ce, control| -> Result<PrimKind, TechError> {
            let init = match prim.init {
                None | Some(0) => Logic::Zero,
                Some(1) => Logic::One,
                Some(v) => {
                    return Err(TechError::InvalidInit {
                        name: prim.name.clone(),
                        init: v,
                    })
                }
            };
            Ok(PrimKind::Ff {
                has_ce,
                control,
                init,
            })
        };
        match prim.name.as_str() {
            "inv" => Ok(PrimKind::Inv),
            "buf" => Ok(PrimKind::Buf),
            "and2" => Ok(PrimKind::And(2)),
            "and3" => Ok(PrimKind::And(3)),
            "and4" => Ok(PrimKind::And(4)),
            "or2" => Ok(PrimKind::Or(2)),
            "or3" => Ok(PrimKind::Or(3)),
            "or4" => Ok(PrimKind::Or(4)),
            "nand2" => Ok(PrimKind::Nand(2)),
            "nand3" => Ok(PrimKind::Nand(3)),
            "nor2" => Ok(PrimKind::Nor(2)),
            "nor3" => Ok(PrimKind::Nor(3)),
            "xor2" => Ok(PrimKind::Xor(2)),
            "xor3" => Ok(PrimKind::Xor(3)),
            "xnor2" => Ok(PrimKind::Xnor2),
            "mux2" => Ok(PrimKind::Mux2),
            "lut1" => Ok(PrimKind::Lut {
                inputs: 1,
                init: init16()? & 0x3,
            }),
            "lut2" => Ok(PrimKind::Lut {
                inputs: 2,
                init: init16()? & 0xF,
            }),
            "lut3" => Ok(PrimKind::Lut {
                inputs: 3,
                init: init16()? & 0xFF,
            }),
            "lut4" => Ok(PrimKind::Lut {
                inputs: 4,
                init: init16()?,
            }),
            "muxcy" => Ok(PrimKind::Muxcy),
            "xorcy" => Ok(PrimKind::Xorcy),
            "mult_and" => Ok(PrimKind::MultAnd),
            "fd" => ff(false, FfControl::None),
            "fdc" => ff(false, FfControl::AsyncClear),
            "fdce" => ff(true, FfControl::AsyncClear),
            "fdre" => ff(true, FfControl::SyncReset),
            "srl16" => Ok(PrimKind::Srl16 { init: init16()? }),
            "ram16x1" => Ok(PrimKind::Ram16x1 {
                init: prim.init.map(|v| v as u16).unwrap_or(0),
            }),
            "rom16x1" => Ok(PrimKind::Rom16x1 { init: init16()? }),
            "gnd" => Ok(PrimKind::Gnd),
            "vcc" => Ok(PrimKind::Vcc),
            "ibuf" => Ok(PrimKind::Ibuf),
            "obuf" => Ok(PrimKind::Obuf),
            "bufg" => Ok(PrimKind::Bufg),
            other => Err(TechError::UnknownPrimitive {
                name: other.to_owned(),
            }),
        }
    }

    /// Canonical primitive name in the library.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PrimKind::Inv => "inv",
            PrimKind::Buf => "buf",
            PrimKind::And(2) => "and2",
            PrimKind::And(3) => "and3",
            PrimKind::And(_) => "and4",
            PrimKind::Or(2) => "or2",
            PrimKind::Or(3) => "or3",
            PrimKind::Or(_) => "or4",
            PrimKind::Nand(2) => "nand2",
            PrimKind::Nand(_) => "nand3",
            PrimKind::Nor(2) => "nor2",
            PrimKind::Nor(_) => "nor3",
            PrimKind::Xor(2) => "xor2",
            PrimKind::Xor(_) => "xor3",
            PrimKind::Xnor2 => "xnor2",
            PrimKind::Mux2 => "mux2",
            PrimKind::Lut { inputs: 1, .. } => "lut1",
            PrimKind::Lut { inputs: 2, .. } => "lut2",
            PrimKind::Lut { inputs: 3, .. } => "lut3",
            PrimKind::Lut { .. } => "lut4",
            PrimKind::Muxcy => "muxcy",
            PrimKind::Xorcy => "xorcy",
            PrimKind::MultAnd => "mult_and",
            PrimKind::Ff {
                has_ce: false,
                control: FfControl::None,
                ..
            } => "fd",
            PrimKind::Ff {
                has_ce: false,
                control: FfControl::AsyncClear,
                ..
            } => "fdc",
            PrimKind::Ff {
                has_ce: true,
                control: FfControl::AsyncClear,
                ..
            } => "fdce",
            PrimKind::Ff { .. } => "fdre",
            PrimKind::Srl16 { .. } => "srl16",
            PrimKind::Ram16x1 { .. } => "ram16x1",
            PrimKind::Rom16x1 { .. } => "rom16x1",
            PrimKind::Gnd => "gnd",
            PrimKind::Vcc => "vcc",
            PrimKind::Ibuf => "ibuf",
            PrimKind::Obuf => "obuf",
            PrimKind::Bufg => "bufg",
        }
    }

    /// The port interface of this primitive.
    #[must_use]
    pub fn ports(&self) -> Vec<PortSpec> {
        let mut ports = Vec::new();
        self.each_port(|name, dir, width| ports.push(PortSpec::new(name, dir, width)));
        ports
    }

    /// Visits the port interface of [`PrimKind::ports`] in order as
    /// `(name, direction, width)`, without allocating.
    pub fn each_port(&self, mut port: impl FnMut(&'static str, PortDir, u32)) {
        let (inputs, address): (&[&'static str], bool) = match self {
            PrimKind::Ff { .. } => (&["c", "d"], false),
            PrimKind::Srl16 { .. } => (&["c", "ce", "d"], true),
            PrimKind::Ram16x1 { .. } => (&["c", "we", "d"], true),
            PrimKind::Rom16x1 { .. } => (&[], true),
            _ => (self.comb_input_names(), false),
        };
        for &name in inputs {
            port(name, PortDir::Input, 1);
        }
        if let PrimKind::Ff {
            has_ce, control, ..
        } = self
        {
            if *has_ce {
                port("ce", PortDir::Input, 1);
            }
            match control {
                FfControl::None => {}
                FfControl::AsyncClear => port("clr", PortDir::Input, 1),
                FfControl::SyncReset => port("r", PortDir::Input, 1),
            }
        }
        if address {
            port("a", PortDir::Input, 4);
        }
        port(self.output_name(), PortDir::Output, 1);
    }

    /// Input port names of a combinational (or ROM) primitive, in the
    /// same order as [`PrimKind::ports`], as static strings — the
    /// allocation-free form analysis loops want. Empty for constant
    /// and sequential primitives (their pins are named, not positional;
    /// see [`PrimKind::ports`]).
    #[must_use]
    pub fn comb_input_names(&self) -> &'static [&'static str] {
        static INDEXED: [&str; 4] = ["i0", "i1", "i2", "i3"];
        match self {
            PrimKind::Inv | PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => {
                &["i"]
            }
            PrimKind::And(n)
            | PrimKind::Or(n)
            | PrimKind::Nand(n)
            | PrimKind::Nor(n)
            | PrimKind::Xor(n) => &INDEXED[..*n as usize],
            PrimKind::Xnor2 | PrimKind::MultAnd => &INDEXED[..2],
            PrimKind::Mux2 => &["i0", "i1", "sel"],
            PrimKind::Lut { inputs, .. } => &INDEXED[..*inputs as usize],
            PrimKind::Muxcy => &["ci", "di", "s"],
            PrimKind::Xorcy => &["ci", "li"],
            PrimKind::Rom16x1 { .. } => &["a"],
            PrimKind::Ff { .. }
            | PrimKind::Srl16 { .. }
            | PrimKind::Ram16x1 { .. }
            | PrimKind::Gnd
            | PrimKind::Vcc => &[],
        }
    }

    /// Name of the primitive's single output port.
    #[must_use]
    pub fn output_name(&self) -> &'static str {
        match self {
            PrimKind::Ff { .. } | PrimKind::Srl16 { .. } => "q",
            _ => "o",
        }
    }

    /// Behavioural class for simulation.
    #[must_use]
    pub fn class(&self) -> PrimClass {
        match self {
            PrimKind::Ff {
                has_ce, control, ..
            } => PrimClass::Ff {
                has_ce: *has_ce,
                control: *control,
            },
            PrimKind::Srl16 { .. } => PrimClass::Srl16,
            PrimKind::Ram16x1 { .. } => PrimClass::Ram16,
            PrimKind::Rom16x1 { .. } => PrimClass::Rom16,
            PrimKind::Gnd => PrimClass::Const(Logic::Zero),
            PrimKind::Vcc => PrimClass::Const(Logic::One),
            _ => PrimClass::Comb,
        }
    }

    /// `true` when the primitive holds state across clock edges.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        matches!(
            self.class(),
            PrimClass::Ff { .. } | PrimClass::Srl16 | PrimClass::Ram16
        )
    }

    /// `true` for dedicated carry-chain elements (MUXCY/XORCY/MULT_AND)
    /// whose inter-element routes are silicon, not general fabric.
    #[must_use]
    pub fn is_carry(&self) -> bool {
        matches!(self, PrimKind::Muxcy | PrimKind::Xorcy | PrimKind::MultAnd)
    }

    /// Evaluates a *combinational* primitive given its input values in
    /// port-declaration order (excluding any clock port).
    ///
    /// Unknown (`X`/`Z`) inputs propagate pessimistically except where
    /// the boolean function is insensitive to them — e.g.
    /// `0 AND X = 0`, and a LUT whose cofactors agree on the unknown
    /// inputs still produces a known value.
    ///
    /// # Panics
    ///
    /// Panics if called on a sequential primitive or with the wrong
    /// number of inputs.
    #[must_use]
    pub fn eval_comb(&self, inputs: &[Logic]) -> Logic {
        match self {
            PrimKind::Inv => !inputs[0],
            PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => match inputs[0] {
                Logic::Zero => Logic::Zero,
                Logic::One => Logic::One,
                _ => Logic::X,
            },
            PrimKind::And(n) => {
                let mut acc = Logic::One;
                for &i in &inputs[..*n as usize] {
                    acc = acc & i;
                }
                acc
            }
            PrimKind::Or(n) => {
                let mut acc = Logic::Zero;
                for &i in &inputs[..*n as usize] {
                    acc = acc | i;
                }
                acc
            }
            PrimKind::Nand(n) => !PrimKind::And(*n).eval_comb(inputs),
            PrimKind::Nor(n) => !PrimKind::Or(*n).eval_comb(inputs),
            PrimKind::Xor(n) => {
                let mut acc = Logic::Zero;
                for &i in &inputs[..*n as usize] {
                    acc = acc ^ i;
                }
                acc
            }
            PrimKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            PrimKind::Mux2 => match inputs[2].to_bool() {
                Some(false) => pessimize(inputs[0]),
                Some(true) => pessimize(inputs[1]),
                None => {
                    // If both data inputs agree and are driven, sel is
                    // irrelevant.
                    if inputs[0] == inputs[1] && inputs[0].is_driven() {
                        inputs[0]
                    } else {
                        Logic::X
                    }
                }
            },
            PrimKind::Lut { inputs: n, init } => eval_lut(*n, *init, inputs),
            PrimKind::Muxcy => match inputs[2].to_bool() {
                Some(true) => pessimize(inputs[0]),  // s=1 → carry in
                Some(false) => pessimize(inputs[1]), // s=0 → di
                None => {
                    if inputs[0] == inputs[1] && inputs[0].is_driven() {
                        inputs[0]
                    } else {
                        Logic::X
                    }
                }
            },
            PrimKind::Xorcy => inputs[0] ^ inputs[1],
            PrimKind::MultAnd => inputs[0] & inputs[1],
            PrimKind::Rom16x1 { init } => eval_lut(4, *init, inputs),
            PrimKind::Gnd => Logic::Zero,
            PrimKind::Vcc => Logic::One,
            PrimKind::Ff { .. } | PrimKind::Srl16 { .. } | PrimKind::Ram16x1 { .. } => {
                panic!("eval_comb called on sequential primitive {}", self.name())
            }
        }
    }
}

fn pessimize(v: Logic) -> Logic {
    if v.is_driven() {
        v
    } else {
        Logic::X
    }
}

/// LUT evaluation with unknown-input cofactor analysis: if the output is
/// the same for every assignment of the unknown inputs, that value is
/// returned; otherwise `X`.
fn eval_lut(n: u8, init: u16, inputs: &[Logic]) -> Logic {
    let n = n as usize;
    let mut known = 0usize;
    let mut unknown_positions = Vec::new();
    for (i, v) in inputs.iter().take(n).enumerate() {
        match v.to_bool() {
            Some(true) => known |= 1 << i,
            Some(false) => {}
            None => unknown_positions.push(i),
        }
    }
    if unknown_positions.is_empty() {
        return Logic::from_bool((init >> known) & 1 == 1);
    }
    let combos = 1usize << unknown_positions.len();
    let mut first: Option<bool> = None;
    for combo in 0..combos {
        let mut idx = known;
        for (k, &pos) in unknown_positions.iter().enumerate() {
            if (combo >> k) & 1 == 1 {
                idx |= 1 << pos;
            }
        }
        let bit = (init >> idx) & 1 == 1;
        match first {
            None => first = Some(bit),
            Some(f) if f != bit => return Logic::X,
            Some(_) => {}
        }
    }
    Logic::from_bool(first.unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(name: &str) -> Primitive {
        Primitive::new(LIBRARY, name)
    }

    #[test]
    fn parse_known_primitives() {
        assert_eq!(
            PrimKind::from_primitive(&prim("and2")),
            Ok(PrimKind::And(2))
        );
        assert_eq!(
            PrimKind::from_primitive(&prim("xor3")),
            Ok(PrimKind::Xor(3))
        );
        assert_eq!(PrimKind::from_primitive(&prim("gnd")), Ok(PrimKind::Gnd));
        assert!(matches!(
            PrimKind::from_primitive(&Primitive::with_init(LIBRARY, "lut4", 0x6996)),
            Ok(PrimKind::Lut {
                inputs: 4,
                init: 0x6996
            })
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            PrimKind::from_primitive(&Primitive::new("asic", "and2")),
            Err(TechError::UnknownLibrary { .. })
        ));
        assert!(matches!(
            PrimKind::from_primitive(&prim("flux_capacitor")),
            Err(TechError::UnknownPrimitive { .. })
        ));
        assert!(matches!(
            PrimKind::from_primitive(&prim("lut4")),
            Err(TechError::MissingInit { .. })
        ));
        assert!(matches!(
            PrimKind::from_primitive(&Primitive::with_init(LIBRARY, "fd", 7)),
            Err(TechError::InvalidInit { .. })
        ));
    }

    #[test]
    fn round_trip_names() {
        for name in [
            "inv", "buf", "and2", "and3", "and4", "or2", "or3", "or4", "nand2", "nor2", "xor2",
            "xor3", "xnor2", "mux2", "muxcy", "xorcy", "mult_and", "fd", "fdc", "fdce", "fdre",
            "gnd", "vcc", "ibuf", "obuf", "bufg",
        ] {
            let kind = PrimKind::from_primitive(&prim(name)).expect(name);
            assert_eq!(kind.name(), name);
        }
    }

    #[test]
    fn gate_eval() {
        use Logic::*;
        assert_eq!(PrimKind::And(2).eval_comb(&[One, One]), One);
        assert_eq!(PrimKind::And(3).eval_comb(&[One, One, Zero]), Zero);
        assert_eq!(PrimKind::Or(2).eval_comb(&[Zero, Zero]), Zero);
        assert_eq!(PrimKind::Nand(2).eval_comb(&[One, One]), Zero);
        assert_eq!(PrimKind::Nor(2).eval_comb(&[Zero, Zero]), One);
        assert_eq!(PrimKind::Xor(3).eval_comb(&[One, One, One]), One);
        assert_eq!(PrimKind::Xnor2.eval_comb(&[One, One]), One);
        assert_eq!(PrimKind::Inv.eval_comb(&[Zero]), One);
        assert_eq!(PrimKind::Buf.eval_comb(&[One]), One);
        assert_eq!(PrimKind::Gnd.eval_comb(&[]), Zero);
        assert_eq!(PrimKind::Vcc.eval_comb(&[]), One);
    }

    #[test]
    fn mux_and_carry_eval() {
        use Logic::*;
        // mux2: inputs [i0, i1, sel]
        assert_eq!(PrimKind::Mux2.eval_comb(&[One, Zero, Zero]), One);
        assert_eq!(PrimKind::Mux2.eval_comb(&[One, Zero, One]), Zero);
        assert_eq!(PrimKind::Mux2.eval_comb(&[One, One, X]), One);
        assert_eq!(PrimKind::Mux2.eval_comb(&[One, Zero, X]), X);
        // muxcy: inputs [ci, di, s]; s=1 selects carry-in
        assert_eq!(PrimKind::Muxcy.eval_comb(&[One, Zero, One]), One);
        assert_eq!(PrimKind::Muxcy.eval_comb(&[One, Zero, Zero]), Zero);
        assert_eq!(PrimKind::Xorcy.eval_comb(&[One, Zero]), One);
        assert_eq!(PrimKind::MultAnd.eval_comb(&[One, One]), One);
    }

    #[test]
    fn lut_eval_matches_truth_table() {
        // lut2 with INIT=0b0110 is XOR.
        let l = PrimKind::Lut {
            inputs: 2,
            init: 0b0110,
        };
        use Logic::*;
        assert_eq!(l.eval_comb(&[Zero, Zero]), Zero);
        assert_eq!(l.eval_comb(&[One, Zero]), One);
        assert_eq!(l.eval_comb(&[Zero, One]), One);
        assert_eq!(l.eval_comb(&[One, One]), Zero);
    }

    #[test]
    fn lut_cofactor_analysis() {
        use Logic::*;
        // Output independent of i1: init pattern duplicates across i1.
        let l = PrimKind::Lut {
            inputs: 2,
            init: 0b1010, // o = i0
        };
        assert_eq!(l.eval_comb(&[One, X]), One);
        assert_eq!(l.eval_comb(&[Zero, X]), Zero);
        // XOR is sensitive to every input.
        let x = PrimKind::Lut {
            inputs: 2,
            init: 0b0110,
        };
        assert_eq!(x.eval_comb(&[One, X]), X);
    }

    #[test]
    fn rom_is_lut4() {
        let r = PrimKind::Rom16x1 { init: 0x8000 };
        use Logic::*;
        assert_eq!(r.eval_comb(&[One, One, One, One]), One);
        assert_eq!(r.eval_comb(&[Zero, One, One, One]), Zero);
    }

    #[test]
    fn port_interfaces() {
        assert_eq!(PrimKind::And(3).ports().len(), 4);
        assert_eq!(PrimKind::Mux2.ports().len(), 4);
        let ff = PrimKind::Ff {
            has_ce: true,
            control: FfControl::AsyncClear,
            init: Logic::Zero,
        };
        let names: Vec<_> = ff.ports().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, ["c", "d", "ce", "clr", "q"]);
        let srl = PrimKind::Srl16 { init: 0 };
        assert_eq!(srl.ports().iter().find(|p| p.name == "a").unwrap().width, 4);
    }

    #[test]
    fn classes() {
        assert!(PrimKind::And(2).class() == PrimClass::Comb);
        assert!(PrimKind::Srl16 { init: 0 }.is_sequential());
        assert!(PrimKind::Ram16x1 { init: 0 }.is_sequential());
        assert!(!PrimKind::Rom16x1 { init: 0 }.is_sequential());
        assert_eq!(PrimKind::Gnd.class(), PrimClass::Const(Logic::Zero));
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn eval_comb_rejects_sequential() {
        let _ = PrimKind::Srl16 { init: 0 }.eval_comb(&[]);
    }

    #[test]
    fn static_port_names_match_ports() {
        use ipd_hdl::PortDir;
        let kinds = [
            PrimKind::Inv,
            PrimKind::Buf,
            PrimKind::Ibuf,
            PrimKind::Obuf,
            PrimKind::Bufg,
            PrimKind::And(2),
            PrimKind::Or(3),
            PrimKind::Nand(4),
            PrimKind::Nor(2),
            PrimKind::Xor(3),
            PrimKind::Xnor2,
            PrimKind::Mux2,
            PrimKind::Lut {
                inputs: 1,
                init: 0b10,
            },
            PrimKind::Lut {
                inputs: 4,
                init: 0xABCD,
            },
            PrimKind::Muxcy,
            PrimKind::Xorcy,
            PrimKind::MultAnd,
            PrimKind::Rom16x1 { init: 7 },
        ];
        for kind in kinds {
            let ports = kind.ports();
            let inputs: Vec<&str> = ports
                .iter()
                .filter(|p| p.dir == PortDir::Input)
                .map(|p| p.name.as_str())
                .collect();
            assert_eq!(kind.comb_input_names(), inputs.as_slice(), "{kind:?}");
            let output = ports.iter().find(|p| p.dir == PortDir::Output).unwrap();
            assert_eq!(kind.output_name(), output.name, "{kind:?}");
        }
        // Sequential/const primitives have no positional comb inputs.
        for kind in [
            PrimKind::Gnd,
            PrimKind::Vcc,
            PrimKind::Srl16 { init: 0 },
            PrimKind::Ram16x1 { init: 0 },
        ] {
            assert!(kind.comb_input_names().is_empty(), "{kind:?}");
        }
    }
}
