//! # ipd-sim — the built-in circuit simulator
//!
//! A cycle-based, four-state simulator over flattened
//! [`ipd-hdl`](ipd_hdl) circuits, reproducing the JHDL design suite's
//! built-in simulator that the paper embeds in IP evaluation applets:
//!
//! - [`Simulator`] — drive inputs, advance the clock, peek ports and
//!   internal nets, inspect memory contents, reset.
//! - [`CompiledSimulator`] — the bit-parallel engine: the levelized
//!   netlist lowered to flat bytecode and executed over 256-lane
//!   planes, bit-identical to the scalar simulator lane for lane.
//! - [`VectorSweep`] — shard arbitrary stimulus sets into 256-lane
//!   compiled batches that the calling thread and helper threads claim
//!   from one counter, with throughput counters.
//! - [`Trace`] / [`write_vcd`] — waveform recording and Value Change
//!   Dump export for conventional viewers.
//!
//! The scalar [`Simulator`] is also the reference the compiled engine
//! is differentially tested against, and one of the two engines that
//! replay every equivalence counterexample in `ipd-verify`.
//!
//! Combinational logic is levelized at compile time for single-pass
//! settling; designs with combinational cycles automatically fall back
//! to fixpoint relaxation with oscillation detection.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, PortSpec};
//! use ipd_sim::Simulator;
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Combinational: y = a & b.
//! let mut circuit = Circuit::new("and_gate");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let b = ctx.add_port(PortSpec::input("b", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.and2(a, b, y)?;
//!
//! let mut sim = Simulator::new(&circuit)?;
//! sim.set_u64("a", 1)?;
//! sim.set_u64("b", 1)?;
//! assert_eq!(sim.peek("y")?.to_u64(), Some(1));
//! sim.set_u64("b", 0)?;
//! assert_eq!(sim.peek("y")?.to_u64(), Some(0));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod exec;
pub mod graph;
mod program;
pub mod rails;
mod simulator;
mod sweep;
mod waveform;

pub use error::SimError;
pub use exec::{CompiledSimulator, COMPILED_MAX_LANES};
pub use graph::NetlistGraph;
pub use simulator::Simulator;
pub use sweep::{ShardStats, Stimulus, SweepReport, VectorSweep};
pub use waveform::{write_vcd, Trace};

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, Logic, LogicVec, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    /// clk, d[4] -> q[4] register with clock-enable tied high.
    fn register4() -> Circuit {
        let mut c = Circuit::new("reg4");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 4)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 4)).unwrap();
        for b in 0..4 {
            ctx.fd(clk, Signal::bit_of(d, b), Signal::bit_of(q, b))
                .unwrap();
        }
        c
    }

    #[test]
    fn register_captures_on_cycle() {
        let mut sim = Simulator::new(&register4()).expect("compile");
        assert!(sim.is_levelized());
        sim.set_u64("d", 9).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0), "before edge");
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(9));
        sim.set_u64("d", 5).unwrap();
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(5));
        assert_eq!(sim.cycle_count(), 2);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut sim = Simulator::new(&register4()).expect("compile");
        sim.set_u64("d", 15).unwrap();
        sim.cycle(3).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(15));
        sim.reset();
        assert_eq!(sim.cycle_count(), 0);
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0));
        // Inputs survive reset.
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(15));
    }

    #[test]
    fn fdce_clear_and_enable() {
        let mut c = Circuit::new("ce_reg");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let ce = ctx.add_port(PortSpec::input("ce", 1)).unwrap();
        let clr = ctx.add_port(PortSpec::input("clr", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.fdce(clk, ce, clr, d, q).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        sim.set_u64("d", 1).unwrap();
        sim.set_u64("ce", 0).unwrap();
        sim.set_u64("clr", 0).unwrap();
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0), "ce=0 holds");
        sim.set_u64("ce", 1).unwrap();
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(1), "ce=1 loads");
        sim.set_u64("clr", 1).unwrap();
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0), "clr wins");
    }

    #[test]
    fn srl16_shifts_and_taps() {
        let mut c = Circuit::new("srl");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let ce = ctx.add_port(PortSpec::input("ce", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.srl16(0, clk, ce, d, a, q).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        sim.set_u64("ce", 1).unwrap();
        sim.set_u64("a", 3).unwrap(); // tap after 4 stages
        sim.set_u64("d", 1).unwrap();
        sim.cycle(1).unwrap();
        sim.set_u64("d", 0).unwrap();
        sim.cycle(2).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0), "not arrived yet");
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(1), "pulse at tap 3");
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn ram16_write_and_read() {
        let mut c = Circuit::new("ram");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let we = ctx.add_port(PortSpec::input("we", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let o = ctx.add_port(PortSpec::output("o", 1)).unwrap();
        ctx.ram16x1(0, clk, we, d, a, o).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        sim.set_u64("we", 1).unwrap();
        sim.set_u64("a", 7).unwrap();
        sim.set_u64("d", 1).unwrap();
        sim.cycle(1).unwrap();
        sim.set_u64("we", 0).unwrap();
        assert_eq!(sim.peek("o").unwrap().to_u64(), Some(1), "async read");
        sim.set_u64("a", 6).unwrap();
        assert_eq!(sim.peek("o").unwrap().to_u64(), Some(0));
        // Memory viewer: contents readable by path.
        let paths = sim.state_elements().to_vec();
        let mem = sim.memory(&paths[0]).expect("ram word");
        assert_eq!(mem.to_u64(), Some(1 << 7));
    }

    #[test]
    fn uninitialized_inputs_read_x() {
        let mut c = Circuit::new("and");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.and2(a, b, y).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        assert_eq!(sim.peek("y").unwrap().bit(0), Logic::X);
        sim.set_u64("a", 0).unwrap();
        assert_eq!(sim.peek("y").unwrap().bit(0), Logic::Zero, "0 dominates");
    }

    #[test]
    fn black_box_outputs_are_x() {
        let mut c = Circuit::new("bb");
        let mut ctx = c.root_ctx();
        let i = ctx.add_port(PortSpec::input("i", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.black_box(
            "secret",
            vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
            "u0",
            &[("i", i.into()), ("o", y.into())],
        )
        .unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        sim.set_u64("i", 1).unwrap();
        assert_eq!(sim.peek("y").unwrap().bit(0), Logic::X);
    }

    #[test]
    fn combinational_loop_falls_back_to_relaxation() {
        // An SR latch from cross-coupled NORs: classic comb cycle.
        let mut c = Circuit::new("latch");
        let mut ctx = c.root_ctx();
        let s = ctx.add_port(PortSpec::input("s", 1)).unwrap();
        let r = ctx.add_port(PortSpec::input("r", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let nq = ctx.wire("nq", 1);
        // q = nor(r, nq); nq = nor(s, q)
        ctx.leaf(
            ipd_hdl::Primitive::new("virtex", "nor2"),
            vec![
                PortSpec::input("i0", 1),
                PortSpec::input("i1", 1),
                PortSpec::output("o", 1),
            ],
            "n0",
            &[("i0", r.into()), ("i1", nq.into()), ("o", q.into())],
        )
        .unwrap();
        ctx.leaf(
            ipd_hdl::Primitive::new("virtex", "nor2"),
            vec![
                PortSpec::input("i0", 1),
                PortSpec::input("i1", 1),
                PortSpec::output("o", 1),
            ],
            "n1",
            &[("i0", s.into()), ("i1", q.into()), ("o", nq.into())],
        )
        .unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        assert!(!sim.is_levelized());
        sim.set_u64("s", 1).unwrap();
        sim.set_u64("r", 0).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(1), "set");
        sim.set_u64("s", 0).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(1), "hold");
        sim.set_u64("r", 1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(0), "reset");
    }

    #[test]
    fn ring_settles_to_x() {
        // A 1-inverter ring through a buffer: with pessimistic
        // four-state evaluation the X power-on value is a fixpoint, so
        // relaxation terminates and reports the unknown.
        let mut c = Circuit::new("osc");
        let mut ctx = c.root_ctx();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let a = ctx.wire("a", 1);
        ctx.inv(a, q).unwrap();
        ctx.buffer(q, a).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        assert!(!sim.is_levelized());
        assert_eq!(sim.peek("q").unwrap().bit(0), Logic::X);
    }

    #[test]
    fn traces_record_each_cycle() {
        let mut sim = Simulator::new(&register4()).expect("compile");
        sim.record("q").unwrap();
        sim.set_u64("d", 1).unwrap();
        sim.cycle(1).unwrap();
        sim.set_u64("d", 2).unwrap();
        sim.cycle(1).unwrap();
        let traces = sim.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len(), 2);
        assert_eq!(traces[0].sample(0).unwrap().to_u64(), Some(1));
        assert_eq!(traces[0].sample(1).unwrap().to_u64(), Some(2));
    }

    #[test]
    fn port_api_errors() {
        let mut sim = Simulator::new(&register4()).expect("compile");
        assert!(matches!(
            sim.set("nope", LogicVec::zeros(1)),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(matches!(
            sim.set("q", LogicVec::zeros(4)),
            Err(SimError::NotAnInput { .. })
        ));
        assert!(matches!(
            sim.set("d", LogicVec::zeros(3)),
            Err(SimError::WidthMismatch { .. })
        ));
        assert!(matches!(
            sim.peek("nothing"),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(matches!(
            sim.peek_net("no/such/net"),
            Err(SimError::UnknownNet { .. })
        ));
    }

    #[test]
    fn peek_internal_net() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let t = ctx.wire("t", 1);
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, t).unwrap();
        ctx.inv(t, y).unwrap();
        let mut sim = Simulator::new(&c).expect("compile");
        sim.set_u64("a", 1).unwrap();
        assert_eq!(sim.peek_net("top/t").unwrap(), Logic::Zero);
        assert_eq!(sim.peek("y").unwrap().to_u64(), Some(1));
    }

    #[test]
    fn multiple_drivers_rejected_at_compile() {
        let mut c = Circuit::new("bad");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        ctx.buffer(a, y).unwrap();
        assert!(matches!(
            Simulator::new(&c),
            Err(SimError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn gated_clock_rejected() {
        let mut c = Circuit::new("gated");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let gclk = ctx.wire("gclk", 1);
        ctx.and2(clk, en, gclk).unwrap();
        ctx.fd(gclk, d, q).unwrap();
        assert!(matches!(
            Simulator::new(&c),
            Err(SimError::UnsupportedClock { .. })
        ));
    }

    #[test]
    fn clock_through_bufg_accepted() {
        let mut c = Circuit::new("buffered");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let gclk = ctx.wire("gclk", 1);
        ctx.leaf(
            ipd_hdl::Primitive::new("virtex", "bufg"),
            vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
            "bufg",
            &[("i", clk.into()), ("o", gclk.into())],
        )
        .unwrap();
        ctx.fd(gclk, d, q).unwrap();
        let mut sim = Simulator::new(&c).expect("bufg clock accepted");
        sim.set_u64("d", 1).unwrap();
        sim.cycle(1).unwrap();
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(1));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use ipd_hdl::{Circuit, Logic, LogicVec, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    fn counter2() -> Circuit {
        // A 2-bit ripple-ish counter from toggles.
        let mut c = Circuit::new("cnt");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 2)).unwrap();
        let n0 = ctx.wire("n0", 1);
        ctx.inv(Signal::bit_of(q, 0), n0).unwrap();
        ctx.fd(clk, n0, Signal::bit_of(q, 0)).unwrap();
        // q1 toggles when q0 is 1: d = q1 ^ q0.
        let n1 = ctx.wire("n1", 1);
        ctx.xor2(Signal::bit_of(q, 1), Signal::bit_of(q, 0), n1)
            .unwrap();
        ctx.fd(clk, n1, Signal::bit_of(q, 1)).unwrap();
        c
    }

    #[test]
    fn run_until_counts_cycles() {
        let mut sim = Simulator::new(&counter2()).expect("compile");
        let target = LogicVec::from_u64(3, 2);
        let took = sim.run_until("q", &target, 10).expect("reached");
        assert_eq!(took, 3);
        assert_eq!(sim.peek("q").unwrap().to_u64(), Some(3));
        // Already there: zero cycles.
        assert_eq!(sim.run_until("q", &target, 10).unwrap(), 0);
    }

    #[test]
    fn run_until_times_out() {
        let mut sim = Simulator::new(&counter2()).expect("compile");
        // A 2-bit counter never reads an X vector.
        let err = sim.run_until("q", &LogicVec::unknown(2), 8).unwrap_err();
        assert!(matches!(err, SimError::Timeout { cycles: 8, .. }));
        assert_eq!(sim.cycle_count(), 8, "budget was consumed");
    }

    #[test]
    fn ff_state_by_path() {
        let mut sim = Simulator::new(&counter2()).expect("compile");
        sim.cycle(1).unwrap();
        let paths: Vec<String> = sim.state_elements().to_vec();
        assert_eq!(paths.len(), 2);
        assert_eq!(sim.ff_state(&paths[0]), Some(Logic::One));
        assert_eq!(sim.ff_state("cnt/nope"), None);
    }

    /// A RAM16X1 with power-on contents `init`, read at `a`.
    fn ram16(init: u16) -> Circuit {
        let mut c = Circuit::new("rom_ram");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let we = ctx.add_port(PortSpec::input("we", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let o = ctx.add_port(PortSpec::output("o", 1)).unwrap();
        ctx.ram16x1(init, clk, we, d, a, o).unwrap();
        c
    }

    #[test]
    fn set_memory_back_door() {
        let mut sim = Simulator::new(&ram16(0)).expect("compile");
        let path = sim.state_elements()[0].clone();
        assert!(sim.set_memory(&path, &LogicVec::from_u64(0x8001, 16)));
        sim.set_u64("we", 0).unwrap();
        sim.set_u64("a", 0).unwrap();
        assert_eq!(sim.peek("o").unwrap().to_u64(), Some(1));
        sim.set_u64("a", 15).unwrap();
        assert_eq!(sim.peek("o").unwrap().to_u64(), Some(1));
        sim.set_u64("a", 7).unwrap();
        assert_eq!(sim.peek("o").unwrap().to_u64(), Some(0));
        assert!(!sim.set_memory("rom_ram/none", &LogicVec::zeros(16)));
    }

    #[test]
    fn set_memory_refuses_words_not_16_bits_wide() {
        let mut sim = Simulator::new(&ram16(0x1234)).expect("compile");
        let path = sim.state_elements()[0].clone();
        let before = sim.memory(&path).expect("ram word");
        for width in [8, 15, 17] {
            let value = LogicVec::from_u64(u64::MAX, width);
            assert!(!sim.set_memory(&path, &value), "width {width} refused");
            assert_eq!(sim.memory(&path).as_ref(), Some(&before), "width {width}");
        }
        assert!(sim.set_memory(&path, &LogicVec::from_u64(0xA5A5, 16)));
        assert_eq!(sim.memory(&path).and_then(|m| m.to_u64()), Some(0xA5A5));
    }
}
