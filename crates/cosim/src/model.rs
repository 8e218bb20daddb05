//! The port-level simulation-model abstraction.
//!
//! A black-box applet exposes *only* this interface: drive inputs,
//! cycle, read outputs. Local circuits, remote applets and behavioral
//! stand-ins all implement it, so a system simulation can mix them
//! freely (the paper's Figure 4).

use std::sync::Arc;

use ipd_hdl::{Circuit, FlatNetlist, LogicColumn, LogicVec, PortDir};
use ipd_sim::{NetlistGraph, SimError, Simulator, VectorSweep};
use ipd_techlib::FlatIndex;

use crate::error::CosimError;

/// A port-level simulation model.
pub trait SimModel {
    /// The model's port interface: `(name, dir, width)`.
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError>;

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports or transport failures.
    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError>;

    /// Advances the model by `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates simulation or transport failures.
    fn cycle(&mut self, n: u32) -> Result<(), CosimError>;

    /// Resets the model to power-on state.
    ///
    /// # Errors
    ///
    /// Propagates simulation or transport failures.
    fn reset(&mut self) -> Result<(), CosimError>;

    /// Reads a port's current value.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports or transport failures.
    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError>;

    /// Runs a batch of independent stimulus vectors and returns every
    /// output port's value per vector.
    ///
    /// Each vector is simulated from power-on: reset, inputs applied,
    /// `cycles` clock edges, outputs sampled. `inputs` holds one value
    /// per vector for each driven input port (all the same length).
    ///
    /// The default implementation replays the vectors one at a time
    /// through [`SimModel::set`]/[`SimModel::cycle`]/[`SimModel::get`];
    /// implementations with a faster path (lane-parallel simulation, a
    /// single network round trip) override it.
    ///
    /// # Errors
    ///
    /// Fails on mismatched vector counts, unknown ports, or
    /// simulation/transport failures.
    fn run_batch(
        &mut self,
        cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        run_batch_serial(self, cycles, inputs)
    }

    /// [`SimModel::run_batch`] over columns: one [`LogicColumn`] per
    /// driven input port in, one per output port out. This is the form
    /// a batch crosses the wire in, and what a
    /// [`BlackBoxServer`](crate::BlackBoxServer) calls.
    ///
    /// The default calls [`SimModel::run_batch`] on slices of at most
    /// 4096 vectors, unpacking each slice's inputs and packing its
    /// outputs into the result's columns, so a model that overrides
    /// only `run_batch` keeps working. Each vector starts from
    /// power-on, so the slices change no output; they bound the
    /// one-`LogicVec`-per-value form to a slice, whatever the batch's
    /// size.
    ///
    /// # Errors
    ///
    /// As for [`SimModel::run_batch`], plus [`CosimError::Wiring`] when
    /// the outputs of one port mix widths, are zero bits wide, or do
    /// not hold one value per vector.
    fn run_columns(
        &mut self,
        cycles: u32,
        inputs: &[(String, LogicColumn)],
    ) -> Result<Vec<(String, LogicColumn)>, CosimError> {
        run_columns_in_slices(self, cycles, inputs)
    }
}

/// Vectors per [`SimModel::run_batch`] call in the default
/// [`SimModel::run_columns`]; a multiple of 64, so every slice but the
/// last fills whole plane words.
const SLICE_VECTORS: usize = 4096;

/// The default [`SimModel::run_columns`].
fn run_columns_in_slices<M: SimModel + ?Sized>(
    model: &mut M,
    cycles: u32,
    inputs: &[(String, LogicColumn)],
) -> Result<Vec<(String, LogicColumn)>, CosimError> {
    let count = inputs.first().map_or(0, |(_, column)| column.len());
    if let Some((port, column)) = inputs.iter().find(|(_, column)| column.len() != count) {
        return Err(ragged(port, column.len(), count));
    }
    let mut outputs: Option<Vec<(String, LogicColumn)>> = None;
    let mut start = 0;
    loop {
        let end = count.min(start + SLICE_VECTORS);
        let slice: Vec<(String, Vec<LogicVec>)> = inputs
            .iter()
            .map(|(port, column)| (port.clone(), (start..end).map(|k| column.get(k)).collect()))
            .collect();
        let part = pack_batch(&model.run_batch(cycles, &slice)?)?;
        let whole = outputs.get_or_insert_with(|| {
            part.iter()
                .map(|(port, column)| (port.clone(), LogicColumn::unknown(column.width(), count)))
                .collect()
        });
        if whole.len() != part.len() {
            return Err(CosimError::Wiring {
                reason: format!(
                    "run_batch answered vectors {start}..{end} with {} output ports, expected {}",
                    part.len(),
                    whole.len()
                ),
            });
        }
        for ((port, column), (part_port, values)) in whole.iter_mut().zip(&part) {
            if part_port != port || values.len() != end - start || values.width() != column.width()
            {
                return Err(CosimError::Wiring {
                    reason: format!(
                        "run_batch answered vectors {start}..{end} with {} {}-bit values of \
                         {part_port}, expected {} {}-bit values of {port}",
                        values.len(),
                        values.width(),
                        end - start,
                        column.width()
                    ),
                });
            }
            for bit in 0..values.width() {
                let planes = values
                    .value_plane(bit)
                    .iter()
                    .zip(values.unknown_plane(bit));
                for (w, (&v, &u)) in planes.enumerate() {
                    column.set_word(bit, start / 64 + w, v, u);
                }
            }
        }
        if end == count {
            return Ok(outputs.unwrap_or_default());
        }
        start = end;
    }
}

/// The portable batched-run fallback: one vector at a time through the
/// scalar [`SimModel`] interface. Exposed so overriding models can
/// delegate to it.
///
/// # Errors
///
/// As for [`SimModel::run_batch`].
pub fn run_batch_serial<M: SimModel + ?Sized>(
    model: &mut M,
    cycles: u32,
    inputs: &[(String, Vec<LogicVec>)],
) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
    let vectors = batch_vector_count(inputs)?;
    let out_ports: Vec<String> = model
        .interface()?
        .into_iter()
        .filter(|(_, dir, _)| *dir == PortDir::Output)
        .map(|(name, _, _)| name)
        .collect();
    let mut outputs: Vec<(String, Vec<LogicVec>)> = out_ports
        .iter()
        .map(|p| (p.clone(), Vec::with_capacity(vectors)))
        .collect();
    for k in 0..vectors {
        model.reset()?;
        for (port, values) in inputs {
            model.set(port, values[k].clone())?;
        }
        model.cycle(cycles)?;
        for (slot, port) in outputs.iter_mut().zip(&out_ports) {
            slot.1.push(model.get(port)?);
        }
    }
    Ok(outputs)
}

/// Validates that every port in a batch carries the same number of
/// vectors and returns that count.
///
/// # Errors
///
/// Returns [`CosimError::Wiring`] on a length mismatch.
pub fn batch_vector_count(inputs: &[(String, Vec<LogicVec>)]) -> Result<usize, CosimError> {
    let count = inputs.first().map_or(0, |(_, v)| v.len());
    for (port, values) in inputs {
        if values.len() != count {
            return Err(CosimError::Wiring {
                reason: format!(
                    "batch input {port} carries {} vectors, expected {count}",
                    values.len()
                ),
            });
        }
    }
    Ok(count)
}

/// The error for a batch input column of `found` values where the
/// batch runs `expected`.
fn ragged(port: &str, found: usize, expected: usize) -> CosimError {
    CosimError::Wiring {
        reason: format!("batch input {port} carries {found} vectors, expected {expected}"),
    }
}

/// Packs a batch into one column per port.
///
/// # Errors
///
/// Returns [`CosimError::Wiring`] when a port's values mix widths or
/// are zero bits wide.
pub(crate) fn pack_batch(
    batch: &[(String, Vec<LogicVec>)],
) -> Result<Vec<(String, LogicColumn)>, CosimError> {
    batch
        .iter()
        .map(|(port, values)| match LogicColumn::from_values(values) {
            Some(column) if column.width() > 0 || column.is_empty() => Ok((port.clone(), column)),
            _ => Err(CosimError::Wiring {
                reason: format!("batch port {port} needs values of one nonzero width"),
            }),
        })
        .collect()
}

/// Unpacks one column per port into one value per vector.
pub(crate) fn unpack_batch(columns: &[(String, LogicColumn)]) -> Vec<(String, Vec<LogicVec>)> {
    columns
        .iter()
        .map(|(port, column)| (port.clone(), column.to_values()))
        .collect()
}

impl std::fmt::Debug for dyn SimModel + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<sim model>")
    }
}

/// A model backed by a local [`Simulator`] — the applet-local case the
/// paper advocates (no network between events).
#[derive(Debug, Clone)]
pub struct LocalSimModel {
    simulator: Simulator,
    sweep: Option<VectorSweep>,
}

impl LocalSimModel {
    /// Compiles a circuit into a local model. The circuit is flattened,
    /// indexed and compiled once; the scalar simulator and the
    /// lane-parallel sweep behind [`SimModel::run_batch`] share that
    /// one compiled model.
    ///
    /// # Errors
    ///
    /// Propagates flattening and simulator compile errors.
    pub fn new(circuit: &Circuit) -> Result<Self, CosimError> {
        let flat = FlatNetlist::build(circuit).map_err(SimError::from)?;
        let graph = Arc::new(NetlistGraph::build(&FlatIndex::new(&flat), None)?);
        Ok(LocalSimModel {
            simulator: Simulator::from_graph(Arc::clone(&graph)),
            sweep: Some(VectorSweep::from_graph(graph)),
        })
    }

    /// Wraps an existing simulator. Batch runs fall back to the serial
    /// path (the compiled circuit is not available for lane packing).
    #[must_use]
    pub fn from_simulator(simulator: Simulator) -> Self {
        LocalSimModel {
            simulator,
            sweep: None,
        }
    }

    /// Access to the underlying simulator (e.g. for waveforms).
    #[must_use]
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.simulator
    }
}

impl SimModel for LocalSimModel {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(self.simulator.ports())
    }

    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        self.simulator.set(port, value)?;
        Ok(())
    }

    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        self.simulator.cycle(u64::from(n))?;
        Ok(())
    }

    fn reset(&mut self) -> Result<(), CosimError> {
        self.simulator.reset();
        Ok(())
    }

    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        Ok(self.simulator.peek(port)?)
    }

    /// Without the lane-parallel engine ([`LocalSimModel::from_simulator`])
    /// this is the scalar serial path; otherwise it packs the batch
    /// into columns for [`SimModel::run_columns`].
    fn run_batch(
        &mut self,
        cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        if self.sweep.is_none() {
            return run_batch_serial(self, cycles, inputs);
        }
        let outputs = self.run_columns(cycles, &pack_batch(inputs)?)?;
        Ok(unpack_batch(&outputs))
    }

    fn run_columns(
        &mut self,
        cycles: u32,
        inputs: &[(String, LogicColumn)],
    ) -> Result<Vec<(String, LogicColumn)>, CosimError> {
        let Some(sweep) = self.sweep.take() else {
            return run_columns_in_slices(self, cycles, inputs);
        };
        // `cycles` takes the sweep by value, so setting the cycle count
        // moves it back into place without copying its compiled
        // netlist.
        let sweep = self.sweep.insert(sweep.cycles(u64::from(cycles)));
        // The sweep's column-length check is the batch's ragged-count
        // check.
        let count = inputs.first().map_or(0, |(_, column)| column.len());
        sweep.run_columns(count, inputs).map_err(|e| match e {
            SimError::ColumnLength {
                port,
                expected,
                found,
            } => ragged(&port, found, expected),
            e => e.into(),
        })
    }
}

/// A behavioral stand-in defined by a closure over its input history —
/// the "behavioral models of non-FPGA circuitry" JHDL supports (§2.3).
pub struct BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    ports: Vec<(String, PortDir, u32)>,
    inputs: Vec<(String, LogicVec)>,
    outputs: Vec<(String, LogicVec)>,
    step: F,
}

impl<F> std::fmt::Debug for BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehavioralModel")
            .field("ports", &self.ports.len())
            .finish()
    }
}

impl<F> BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    /// A behavioral model with the given interface; `step` maps the
    /// current inputs to the next outputs, called once per cycle.
    #[must_use]
    pub fn new(ports: Vec<(String, PortDir, u32)>, step: F) -> Self {
        let inputs = ports
            .iter()
            .filter(|(_, d, _)| *d == PortDir::Input)
            .map(|(n, _, w)| (n.clone(), LogicVec::unknown(*w as usize)))
            .collect();
        let outputs = ports
            .iter()
            .filter(|(_, d, _)| *d == PortDir::Output)
            .map(|(n, _, w)| (n.clone(), LogicVec::unknown(*w as usize)))
            .collect();
        BehavioralModel {
            ports,
            inputs,
            outputs,
            step,
        }
    }
}

impl<F> SimModel for BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(self.ports.clone())
    }

    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        match self.inputs.iter_mut().find(|(n, _)| n == port) {
            Some(slot) => {
                slot.1 = value;
                Ok(())
            }
            None => Err(CosimError::UnknownPort {
                port: port.to_owned(),
            }),
        }
    }

    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        for _ in 0..n {
            let next = (self.step)(&self.inputs);
            for (name, value) in next {
                if let Some(slot) = self.outputs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                }
            }
        }
        Ok(())
    }

    fn reset(&mut self) -> Result<(), CosimError> {
        for (_, v) in &mut self.outputs {
            *v = LogicVec::unknown(v.width());
        }
        Ok(())
    }

    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        if let Some((_, v)) = self.outputs.iter().find(|(n, _)| n == port) {
            return Ok(v.clone());
        }
        if let Some((_, v)) = self.inputs.iter().find(|(n, _)| n == port) {
            return Ok(v.clone());
        }
        Err(CosimError::UnknownPort {
            port: port.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::PortSpec;
    use ipd_techlib::LogicCtx;

    #[test]
    fn local_model_wraps_simulator() {
        let mut c = Circuit::new("inv");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        let mut model = LocalSimModel::new(&c).unwrap();
        assert_eq!(model.interface().unwrap().len(), 2);
        model.set("a", LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(model.get("y").unwrap().to_u64(), Some(0));
    }

    fn xor_adder() -> Circuit {
        let mut c = Circuit::new("xa");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let s = ctx.add_port(PortSpec::output("s", 1)).unwrap();
        let co = ctx.add_port(PortSpec::output("co", 1)).unwrap();
        ctx.xor2(a, b, s).unwrap();
        ctx.and2(a, b, co).unwrap();
        c
    }

    #[test]
    fn batched_run_matches_serial_fallback() {
        let circuit = xor_adder();
        let inputs: Vec<(String, Vec<LogicVec>)> = vec![
            (
                "a".into(),
                (0..70u64).map(|k| LogicVec::from_u64(k & 1, 1)).collect(),
            ),
            (
                "b".into(),
                (0..70u64)
                    .map(|k| LogicVec::from_u64((k >> 1) & 1, 1))
                    .collect(),
            ),
        ];
        // Lane-parallel path (LocalSimModel::new).
        let mut fast = LocalSimModel::new(&circuit).unwrap();
        let fast_out = fast.run_batch(0, &inputs).unwrap();
        // Serial fallback path (from_simulator has no compiled batch).
        let mut slow = LocalSimModel::from_simulator(Simulator::new(&circuit).unwrap());
        let slow_out = slow.run_batch(0, &inputs).unwrap();
        assert_eq!(fast_out, slow_out);
        assert_eq!(fast_out.len(), 2);
        for (port, values) in &fast_out {
            assert_eq!(values.len(), 70, "port {port}");
        }
        let s = &fast_out.iter().find(|(p, _)| p == "s").unwrap().1;
        assert_eq!(s[1].to_u64(), Some(1)); // 1 xor 0
        assert_eq!(s[3].to_u64(), Some(0)); // 1 xor 1
    }

    #[test]
    fn batched_run_rejects_ragged_inputs() {
        let mut model = LocalSimModel::new(&xor_adder()).unwrap();
        let ragged = vec![
            ("a".into(), vec![LogicVec::zeros(1); 3]),
            ("b".into(), vec![LogicVec::zeros(1); 2]),
        ];
        assert!(matches!(
            model.run_batch(0, &ragged),
            Err(CosimError::Wiring { .. })
        ));
        // Empty batches are fine: per-port empty columns.
        let out = model.run_batch(0, &[]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, v)| v.is_empty()));
    }

    /// A `run_batch`-only model, `y = a`, that records each call's
    /// vector count; a `short` one drops every call's last vector.
    struct Echo {
        calls: Vec<usize>,
        short: bool,
    }

    impl SimModel for Echo {
        fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
            Ok(vec![
                ("a".into(), PortDir::Input, 3),
                ("y".into(), PortDir::Output, 3),
            ])
        }
        fn set(&mut self, port: &str, _: LogicVec) -> Result<(), CosimError> {
            Err(CosimError::UnknownPort { port: port.into() })
        }
        fn cycle(&mut self, _: u32) -> Result<(), CosimError> {
            Ok(())
        }
        fn reset(&mut self) -> Result<(), CosimError> {
            Ok(())
        }
        fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
            Err(CosimError::UnknownPort { port: port.into() })
        }
        fn run_batch(
            &mut self,
            _: u32,
            inputs: &[(String, Vec<LogicVec>)],
        ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
            let mut y = inputs.first().map_or_else(Vec::new, |(_, a)| a.clone());
            self.calls.push(y.len());
            if self.short {
                y.pop();
            }
            Ok(vec![("y".into(), y)])
        }
    }

    fn echo(short: bool) -> Echo {
        Echo {
            calls: Vec::new(),
            short,
        }
    }

    /// `count` 3-bit values, every seventh `X`.
    fn three_bit_column(count: usize) -> LogicColumn {
        let values: Vec<LogicVec> = (0..count as u64)
            .map(|k| match k % 7 {
                0 => LogicVec::unknown(3),
                _ => LogicVec::from_u64(k * 5 % 8, 3),
            })
            .collect();
        LogicColumn::from_values(&values).unwrap()
    }

    #[test]
    fn default_run_columns_runs_slices_of_4096_vectors() {
        let cases: [(usize, &[usize]); 5] = [
            (0, &[0]),
            (1, &[1]),
            (4096, &[4096]),
            (4097, &[4096, 1]),
            (8257, &[4096, 4096, 65]),
        ];
        for (count, calls) in cases {
            let mut model = echo(false);
            let a = three_bit_column(count);
            let outputs = model.run_columns(2, &[("a".into(), a.clone())]).unwrap();
            assert_eq!(outputs, vec![("y".to_owned(), a)], "x{count}");
            assert_eq!(model.calls, calls, "x{count}");
        }
    }

    #[test]
    fn default_run_columns_checks_vector_counts() {
        let mut model = echo(false);
        let ragged = [
            ("a".to_owned(), three_bit_column(5000)),
            ("b".to_owned(), three_bit_column(4999)),
        ];
        match model.run_columns(0, &ragged) {
            Err(CosimError::Wiring { reason }) => {
                assert_eq!(reason, "batch input b carries 4999 vectors, expected 5000");
            }
            other => panic!("{other:?}"),
        }
        assert!(model.calls.is_empty(), "refused before any slice runs");
        // A model that answers a slice with too few values.
        let mut short = echo(true);
        for count in [10, 5000] {
            assert!(matches!(
                short.run_columns(0, &[("a".to_owned(), three_bit_column(count))]),
                Err(CosimError::Wiring { .. })
            ));
        }
    }

    #[test]
    fn behavioral_model_steps() {
        let mut counter = 0u64;
        let mut model = BehavioralModel::new(
            vec![
                ("en".into(), PortDir::Input, 1),
                ("count".into(), PortDir::Output, 8),
            ],
            move |inputs| {
                let en = inputs[0].1.to_u64().unwrap_or(0);
                counter += en;
                vec![("count".into(), LogicVec::from_u64(counter, 8))]
            },
        );
        model.set("en", LogicVec::from_u64(1, 1)).unwrap();
        model.cycle(3).unwrap();
        assert_eq!(model.get("count").unwrap().to_u64(), Some(3));
        assert!(model.set("nope", LogicVec::zeros(1)).is_err());
        assert!(model.get("nope").is_err());
    }
}
