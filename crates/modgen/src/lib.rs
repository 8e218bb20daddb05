//! # ipd-modgen — parameterizable FPGA module generators
//!
//! "JHDL … is especially useful for creating parameterizable module
//! generators" (paper §3). This crate is the generator library the IP
//! delivery applets serve:
//!
//! - [`KcmMultiplier`] — the paper's flagship constant-coefficient
//!   multiplier (partial-product LUT tables, signed/unsigned, optional
//!   pipelining, truncated products, relative placement).
//! - [`ArrayMultiplier`] — the general-purpose baseline it is compared
//!   against.
//! - [`RippleAdder`], [`Subtractor`], [`AddSub`], [`Accumulator`] —
//!   carry-chain arithmetic.
//! - [`Counter`], [`Register`], [`ShiftRegister`] — sequential
//!   building blocks (SRL16-mapped delays).
//! - [`Comparator`], [`Decoder`], [`ParityTree`], [`BusMux`],
//!   [`Rom`] — combinational blocks.
//! - [`FirFilter`] — a transposed-form FIR built from KCMs, the
//!   "more complicated IP" of the paper's future work.
//!
//! Every generator is an ordinary value type implementing
//! [`Generator`](ipd_hdl::Generator): construct it with parameters,
//! elaborate with [`Circuit::from_generator`](ipd_hdl::Circuit) or
//! instance it inside another generator.
//!
//! # Example
//!
//! The paper's §3.1 code fragment — an 8×8 constant multiplier with a
//! 12-bit output and the constant −56:
//!
//! ```
//! use ipd_hdl::Circuit;
//! use ipd_modgen::KcmMultiplier;
//!
//! # fn main() -> Result<(), ipd_hdl::HdlError> {
//! let kcm = KcmMultiplier::new(-56, 8, 12)
//!     .signed(true)
//!     .pipelined(true);
//! let circuit = Circuit::from_generator(&kcm)?;
//! assert!(ipd_hdl::validate(&circuit)?.is_clean());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accum;
mod add;
mod bitsum;
mod compare;
mod counter;
mod fir;
mod gray;
mod kcm;
mod logicgen;
mod mult;
mod register;
mod rom;
mod shift;
pub mod sweep;

pub use accum::Accumulator;
pub use add::{AddSub, RippleAdder, Subtractor};
pub use compare::{Comparator, CompareOp};
pub use counter::{CountDirection, Counter};
pub use fir::FirFilter;
pub use gray::{GrayCounter, PopCount};
pub use kcm::{KcmMultiplier, KCM_MAX_CONSTANT_BITS, KCM_MAX_INPUT_WIDTH};
pub use logicgen::{BusMux, Decoder, ParityTree};
pub use mult::ArrayMultiplier;
pub use register::{Register, ShiftRegister};
pub use rom::Rom;
pub use shift::{BarrelShifter, Lfsr};

use ipd_hdl::{CellCtx, CellId, Circuit, Rloc};

/// The canonical example designs: the paper's running KCM
/// configuration plus a spread of other generators exercising every
/// primitive family (LUT tables, carry chains, flip-flops, SRL16
/// delays, ROMs).
///
/// One list shared by the `ipd-lint --examples` CLI, the equivalence
/// CI gate, and the golden EDIF fixtures, so "the zoo" means the same
/// designs everywhere.
///
/// # Panics
///
/// Panics if any built-in generator fails to elaborate — a bug in
/// this crate, not a caller error.
#[must_use]
pub fn example_zoo() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    let mut add = |c: Result<Circuit, ipd_hdl::HdlError>| {
        let c = c.expect("example generators elaborate");
        out.push((c.name().to_owned(), c));
    };
    add(Circuit::from_generator(
        &KcmMultiplier::new(-56, 8, 12).signed(true),
    ));
    add(Circuit::from_generator(
        &FirFilter::new(vec![-2, 5, 9, 5, -2], 8).expect("valid taps"),
    ));
    add(Circuit::from_generator(
        &Counter::new(8, CountDirection::Up).loadable(),
    ));
    add(Circuit::from_generator(&PopCount::new(12)));
    add(Circuit::from_generator(
        // Hashed contents: an affine table like `i * 7 % 256` makes the
        // upper bank's low bit-planes provably identical to the lower
        // bank's (f(i+16) - f(i) is divisible by 16), which the
        // semantic lint tier rightly reports as redundant ROM LUTs.
        &Rom::new(
            5,
            8,
            (0..32u64)
                .map(|i| (i * 2_654_435_761) >> 7 & 0xff)
                .collect(),
        )
        .expect("valid rom"),
    ));
    add(Circuit::from_generator(&RippleAdder::new(10)));
    add(Circuit::from_generator(&ArrayMultiplier::new(6, 6)));
    add(Circuit::from_generator(&Comparator::new(8, CompareOp::Lt)));
    add(Circuit::from_generator(&ShiftRegister::new(4, 9)));
    add(Circuit::from_generator(&GrayCounter::new(6)));
    out
}

/// Places a per-bit primitive in a column layout: two bits per slice
/// row, matching the carry-chain geometry of the Virtex fabric.
pub(crate) fn place_column(ctx: &mut CellCtx<'_>, cell: CellId, bit: u32) {
    ctx.set_rloc(cell, Rloc::new((bit / 2) as i32, 0));
}
