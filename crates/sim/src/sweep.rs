//! Sharded stimulus sweeps over the compiled engine.
//!
//! A [`VectorSweep`] runs an arbitrary number of stimulus vectors
//! through a circuit by packing them into 256-lane
//! [`CompiledSimulator`](crate::CompiledSimulator) shards, running
//! the shards on the calling thread and up to `threads − 1` helper
//! threads that claim them from one counter, and reporting per-shard
//! and overall throughput. Every shard costs the same, so there is
//! nothing to rebalance; a helper the OS refuses to start is skipped
//! and the caller finishes the sweep alone.
//!
//! The circuit is compiled and lowered to bytecode exactly once; every
//! shard shares the program and pays only a plane-arena allocation. A
//! shard holds exactly as many lanes as it has vectors, so a stimulus
//! count that is not a multiple of the lane width never pads with X
//! lanes — partial planes are masked and the throughput stats count
//! real vectors only.
//!
//! Stimulus and results travel as columns: [`VectorSweep::run_columns`]
//! takes one [`LogicColumn`] per driven input port and returns one per
//! output port. A shard copies its plane words straight between the
//! columns and the engine's nets (four words per bit), with no
//! per-vector value in between. [`VectorSweep::run`] is the row
//! adapter over it for per-vector `(port, value)` assignments.
//!
//! Every vector is simulated from power-on: inputs applied, `cycles`
//! clock edges, outputs sampled — the natural shape for exhaustive
//! verification sweeps against a golden model.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, LogicVec, PortSpec};
//! use ipd_sim::VectorSweep;
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("xor_gate");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let b = ctx.add_port(PortSpec::input("b", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.xor2(a, b, y)?;
//!
//! let stimuli: Vec<Vec<(String, LogicVec)>> = (0..4u64)
//!     .map(|k| vec![
//!         ("a".to_owned(), LogicVec::from_u64(k & 1, 1)),
//!         ("b".to_owned(), LogicVec::from_u64(k >> 1, 1)),
//!     ])
//!     .collect();
//! let report = VectorSweep::new(&circuit)?.run(&stimuli)?;
//! assert_eq!(report.outputs.len(), 4);
//! let y1 = &report.outputs[1][0];
//! assert_eq!((y1.0.as_str(), y1.1.to_u64()), ("y", Some(1)));
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ipd_hdl::{Circuit, FlatNetlist, LogicColumn, LogicVec, PortDir};

use crate::error::SimError;
use crate::exec::{CompiledSimulator, Planes4, COMPILED_MAX_LANES};
use crate::graph::NetlistGraph;
use crate::program::Program;

/// One stimulus vector: `(input port, value)` assignments.
pub type Stimulus = Vec<(String, LogicVec)>;

/// The output columns of one sweep, with its shard timings.
struct ColumnSweep {
    outputs: Vec<(String, LogicColumn)>,
    shards: Vec<ShardStats>,
}

/// Timing for one lane-parallel shard of a sweep.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index in submission order.
    pub shard: usize,
    /// Stimulus vectors simulated by this shard (equals its lane
    /// count: partial final shards are never padded).
    pub vectors: usize,
    /// Wall-clock time the shard spent simulating.
    pub elapsed: Duration,
}

impl ShardStats {
    /// Vectors per second achieved by this shard.
    #[must_use]
    pub fn vectors_per_sec(&self) -> f64 {
        self.vectors as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The result of a sweep: per-vector outputs plus throughput counters.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// For each stimulus vector (in submission order), the value of
    /// every output port after the run.
    pub outputs: Vec<Vec<(String, LogicVec)>>,
    /// Per-shard timing, in shard order.
    pub shards: Vec<ShardStats>,
    /// Total wall-clock time for the whole sweep.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Total stimulus vectors simulated.
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.outputs.len()
    }

    /// Overall vectors per second (wall clock, across all shards).
    #[must_use]
    pub fn vectors_per_sec(&self) -> f64 {
        self.total_vectors() as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// A reusable sweep runner: compile (and lower) once, shard stimulus
/// into lane-parallel batches, run shards on the caller and helper
/// threads.
#[derive(Debug, Clone)]
pub struct VectorSweep {
    /// Lowered bytecode shared by every shard.
    program: Arc<Program>,
    cycles: u64,
    threads: usize,
}

impl VectorSweep {
    /// Compiles a circuit for sweeping, auto-detecting the clock.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`](crate::Simulator::new).
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, None)
    }

    /// Compiles a circuit with an explicit clock port.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`](crate::Simulator::new).
    pub fn with_clock(circuit: &Circuit, clock_port: &str) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, Some(clock_port))
    }

    /// Compiles an already-flattened design.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`](crate::Simulator::new).
    pub fn from_flat(flat: &FlatNetlist, clock_port: Option<&str>) -> Result<Self, SimError> {
        let graph = NetlistGraph::from_flat(flat, clock_port)?;
        Ok(Self::from_graph(Arc::new(graph)))
    }

    /// Lowers an already-compiled design for sweeping, sharing it (a
    /// [`Simulator`](crate::Simulator) can run the same one).
    #[must_use]
    pub fn from_graph(graph: Arc<NetlistGraph>) -> Self {
        VectorSweep {
            program: Program::lower(graph),
            cycles: 0,
            threads: default_threads(),
        }
    }

    /// Clock cycles to run after applying each vector's inputs
    /// (0 = combinational settle only; pipelined circuits need their
    /// latency here).
    #[must_use]
    pub fn cycles(mut self, n: u64) -> Self {
        self.cycles = n;
        self
    }

    /// Caps the number of threads running shards, the caller's
    /// included (at least 1; 1 runs every shard on the caller).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Runs `count` vectors given as one column per driven input
    /// port and returns one column per output port, in port order.
    ///
    /// An input port without a column is `X` in every vector; a port
    /// given twice takes its last column. With `count` 0 the columns'
    /// widths are not checked.
    ///
    /// # Errors
    ///
    /// Fails for an unknown port, a non-input, a column whose width
    /// differs from its port's ([`SimError::WidthMismatch`]) or whose
    /// length is not `count` ([`SimError::ColumnLength`]), and
    /// propagates the first cycle error from any shard.
    pub fn run_columns(
        &self,
        count: usize,
        inputs: &[(String, LogicColumn)],
    ) -> Result<Vec<(String, LogicColumn)>, SimError> {
        Ok(self.sweep(count, inputs)?.outputs)
    }

    /// Runs every stimulus vector and collects outputs plus
    /// throughput counters: the row adapter over
    /// [`VectorSweep::run_columns`]. A vector that omits a port leaves
    /// it `X`; a port assigned twice in one vector takes the last
    /// value.
    ///
    /// # Errors
    ///
    /// Fails for an unknown port, a non-input or a width mismatch, and
    /// propagates the first cycle error from any shard.
    pub fn run(&self, stimuli: &[Stimulus]) -> Result<SweepReport, SimError> {
        let start = Instant::now();
        let count = stimuli.len();
        let mut columns: Vec<(String, LogicColumn)> = Vec::new();
        for (k, stimulus) in stimuli.iter().enumerate() {
            for (port, value) in stimulus {
                let slot = match columns.iter().position(|(name, _)| name == port) {
                    Some(slot) => slot,
                    None => {
                        let width = self.program.graph.ports[self.input_port(port)?].nets.len();
                        columns.push((port.clone(), LogicColumn::unknown(width, count)));
                        columns.len() - 1
                    }
                };
                let column = &mut columns[slot].1;
                check_width(port, column.width(), value.width())?;
                column.set(k, value);
            }
        }
        let sweep = self.sweep(count, &columns)?;
        let mut columns: Vec<_> = sweep
            .outputs
            .iter()
            .map(|(port, column)| (port, column.to_values().into_iter()))
            .collect();
        let outputs = (0..count)
            .map(|_| {
                columns
                    .iter_mut()
                    .map(|(port, values)| ((*port).clone(), values.next().expect("count values")))
                    .collect()
            })
            .collect();
        Ok(SweepReport {
            outputs,
            shards: sweep.shards,
            elapsed: start.elapsed(),
        })
    }

    /// The program port index of input `port`.
    fn input_port(&self, port: &str) -> Result<usize, SimError> {
        let ports = &self.program.graph.ports;
        let idx =
            ports
                .iter()
                .position(|p| p.name == port)
                .ok_or_else(|| SimError::UnknownPort {
                    port: port.to_owned(),
                })?;
        if ports[idx].dir != PortDir::Input {
            return Err(SimError::NotAnInput {
                port: port.to_owned(),
            });
        }
        Ok(idx)
    }

    /// Checks the input columns, runs the shards and assembles the
    /// output columns.
    fn sweep(
        &self,
        count: usize,
        inputs: &[(String, LogicColumn)],
    ) -> Result<ColumnSweep, SimError> {
        let mut driven = Vec::with_capacity(inputs.len());
        for (port, column) in inputs {
            let idx = self.input_port(port)?;
            if column.len() != count {
                return Err(SimError::ColumnLength {
                    port: port.clone(),
                    expected: count,
                    found: column.len(),
                });
            }
            // A column of no values drives nothing, whatever its width.
            if count > 0 {
                check_width(
                    port,
                    self.program.graph.ports[idx].nets.len(),
                    column.width(),
                )?;
            }
            driven.push((idx, column));
        }
        let ports = &self.program.graph.ports;
        let outputs: Vec<usize> = (0..ports.len())
            .filter(|&i| ports[i].dir == PortDir::Output)
            .collect();
        let jobs = count.div_ceil(COMPILED_MAX_LANES);
        let results = run_jobs(jobs, self.threads, |k| {
            self.run_shard(k, count, &driven, &outputs)
        })?;
        let mut columns: Vec<(String, LogicColumn)> = outputs
            .iter()
            .map(|&i| {
                let port = &ports[i];
                (
                    port.name.clone(),
                    LogicColumn::unknown(port.nets.len(), count),
                )
            })
            .collect();
        let mut shards = Vec::with_capacity(results.len());
        for (planes, stats) in results {
            let first_word = stats.shard * COMPILED_MAX_LANES / 64;
            let mut planes = planes.iter();
            for (_, column) in &mut columns {
                for bit in 0..column.width() {
                    let p = planes.next().expect("one plane set per output bit");
                    for w in 0..stats.vectors.div_ceil(64) {
                        column.set_word(bit, first_word + w, p.v[w], p.u[w]);
                    }
                }
            }
            shards.push(stats);
        }
        Ok(ColumnSweep {
            outputs: columns,
            shards,
        })
    }

    /// Runs shard `shard` of a `count`-vector sweep, with exactly as
    /// many lanes as it has vectors. Returns the settled planes of
    /// every bit of the `outputs` ports, in order, LSB first.
    fn run_shard(
        &self,
        shard: usize,
        count: usize,
        inputs: &[(usize, &LogicColumn)],
        outputs: &[usize],
    ) -> Result<(Vec<Planes4>, ShardStats), SimError> {
        let t0 = Instant::now();
        let first = shard * COMPILED_MAX_LANES;
        let lanes = (count - first).min(COMPILED_MAX_LANES);
        let mut sim = CompiledSimulator::from_program(Arc::clone(&self.program), lanes)?;
        for &(port, column) in inputs {
            sim.set_port_words(port, column, first / 64);
        }
        sim.cycle(self.cycles)?;
        let mut planes = Vec::new();
        for &port in outputs {
            planes.extend(sim.port_planes(port)?);
        }
        Ok((
            planes,
            ShardStats {
                shard,
                vectors: lanes,
                elapsed: t0.elapsed(),
            },
        ))
    }
}

/// A value of width `found` for `port`, whose width is `expected`.
fn check_width(port: &str, expected: usize, found: usize) -> Result<(), SimError> {
    if expected == found {
        return Ok(());
    }
    Err(SimError::WidthMismatch {
        port: port.to_owned(),
        expected: expected as u32,
        found: found as u32,
    })
}

/// Worker count: one per available core, at least 1.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(job)` for every job in `0..jobs` and returns the outputs in
/// job order. The calling thread and up to `workers − 1` helpers each
/// claim the next job from one counter; a helper the OS refuses to
/// start is skipped, so the caller alone can finish the run. An error
/// stops further claims, and the lowest-numbered error is returned.
fn run_jobs<T, E, F>(jobs: usize, workers: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send + Sync,
    E: Send + Sync,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    // `Relaxed` suffices: the counter only hands out indices, and each
    // output is published by its slot's `OnceLock` and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, E>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let work = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(k) else { break };
        let out = f(k);
        if out.is_err() {
            next.fetch_max(jobs, Ordering::Relaxed);
        }
        let _ = slot.set(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(jobs) {
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
    // Jobs are claimed in order, so every job below an unclaimed one
    // ran, and the first error comes before the first empty slot.
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("claimed before any error"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Logic, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    /// `y = a ^ b` and `q` = `a` registered.
    fn xor_reg() -> Circuit {
        let mut c = Circuit::new("xr");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.xor2(a, b, y).unwrap();
        ctx.fd(clk, Signal::from(a), Signal::from(q)).unwrap();
        c
    }

    fn bit(v: u64) -> LogicVec {
        LogicVec::from_u64(v, 1)
    }

    #[test]
    fn row_adapter_pins_omitted_and_repeated_ports() {
        let sweep = VectorSweep::new(&xor_reg()).unwrap().cycles(1);
        let stimuli = vec![
            // b omitted: X.
            vec![("a".to_owned(), bit(1))],
            // b assigned twice: the last value wins.
            vec![
                ("b".to_owned(), bit(1)),
                ("a".to_owned(), bit(0)),
                ("b".to_owned(), bit(0)),
            ],
        ];
        let report = sweep.run(&stimuli).unwrap();
        let y = |k: usize| report.outputs[k][0].1.clone();
        assert_eq!(report.outputs[0][0].0, "y");
        assert_eq!(y(0), LogicVec::unknown(1));
        assert_eq!(y(1), bit(0));
        assert_eq!(report.outputs[0][1], ("q".to_owned(), bit(1)));
    }

    #[test]
    fn row_adapter_errors_are_unchanged() {
        let sweep = VectorSweep::new(&xor_reg()).unwrap();
        let run = |port: &str, value: LogicVec| {
            sweep
                .run(&[
                    vec![("a".to_owned(), bit(0))],
                    vec![(port.to_owned(), value)],
                ])
                .unwrap_err()
        };
        assert_eq!(
            run("nope", bit(0)),
            SimError::UnknownPort {
                port: "nope".into()
            }
        );
        assert_eq!(run("y", bit(0)), SimError::NotAnInput { port: "y".into() });
        assert_eq!(
            run("a", LogicVec::zeros(2)),
            SimError::WidthMismatch {
                port: "a".into(),
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn columns_match_rows_across_shard_edges() {
        const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
        // `threads(1)` runs every shard on the caller.
        for threads in [1, 2, 5] {
            let sweep = VectorSweep::new(&xor_reg())
                .unwrap()
                .cycles(1)
                .threads(threads);
            for count in [0usize, 1, 63, 64, 65, 255, 256, 257, 300, 1100] {
                let a: Vec<LogicVec> = (0..count).map(|k| ALL[k % 4].into()).collect();
                let b: Vec<LogicVec> = (0..count).map(|k| ALL[(k / 4) % 4].into()).collect();
                let columns = vec![
                    ("a".to_owned(), LogicColumn::from_values(&a).unwrap()),
                    ("b".to_owned(), LogicColumn::unknown(1, count)),
                    ("b".to_owned(), LogicColumn::from_values(&b).unwrap()),
                ];
                let outputs = sweep.run_columns(count, &columns).unwrap();
                let rows: Vec<Stimulus> = (0..count)
                    .map(|k| {
                        vec![
                            ("a".to_owned(), a[k].clone()),
                            ("b".to_owned(), b[k].clone()),
                        ]
                    })
                    .collect();
                let report = sweep.run(&rows).unwrap();
                assert_eq!(report.total_vectors(), count);
                for (p, (port, column)) in outputs.iter().enumerate() {
                    assert_eq!(column.len(), count);
                    let from_rows: Vec<LogicVec> =
                        report.outputs.iter().map(|row| row[p].1.clone()).collect();
                    assert_eq!(column.to_values(), from_rows, "{port} x{count} t{threads}");
                }
            }
        }
    }

    #[test]
    fn all_jobs_run_exactly_once_in_order() {
        for workers in [1, 8] {
            for jobs in [0usize, 1, 2, 7, 64, 257, 1000] {
                let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let out = run_jobs::<usize, (), _>(jobs, workers, |job| {
                    hits[job].fetch_add(1, Ordering::Relaxed);
                    Ok(job * 3)
                })
                .expect("no errors");
                assert_eq!(out, (0..jobs).map(|job| job * 3).collect::<Vec<_>>());
                for (job, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "job {job} ran once");
                }
            }
        }
    }

    #[test]
    fn uneven_jobs_rebalance() {
        // A run of slow jobs up front: the other claimers take the rest,
        // and every output comes back in job order.
        for workers in [1, 8] {
            let out = run_jobs::<usize, (), _>(64, workers, |job| {
                if job < 16 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(job)
            })
            .expect("no errors");
            assert_eq!(out, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn first_error_aborts() {
        for workers in [1, 8] {
            let ran = AtomicUsize::new(0);
            let err = run_jobs::<usize, String, _>(100, workers, |job| {
                ran.fetch_add(1, Ordering::Relaxed);
                match job {
                    37 | 38 => Err(format!("boom {job}")),
                    _ => Ok(job),
                }
            })
            .expect_err("error propagates");
            // Whichever of the two failing jobs finishes first, the
            // lower-numbered error is the one returned.
            assert_eq!(err, "boom 37");
            if workers == 1 {
                assert_eq!(ran.load(Ordering::Relaxed), 38, "claims stopped");
            }
        }
    }

    #[test]
    fn column_lengths_must_match_the_sweep() {
        let sweep = VectorSweep::new(&xor_reg()).unwrap();
        let columns = vec![("a".to_owned(), LogicColumn::unknown(1, 3))];
        assert_eq!(
            sweep.run_columns(4, &columns).unwrap_err(),
            SimError::ColumnLength {
                port: "a".into(),
                expected: 4,
                found: 3
            }
        );
        let outputs = sweep.run_columns(2, &[]).unwrap();
        assert_eq!(outputs.len(), 2);
        assert!(outputs.iter().all(|(_, c)| c.len() == 2 && c.width() == 1));
    }
}
