//! Exhaustive verification of the paper's KCM instance with the
//! compiled bit-parallel engine.
//!
//! The paper's running example (8-bit multiplicand, 12-bit product,
//! signed, pipelined, constant −56) has exactly 256 possible inputs, so
//! the applet can prove the delivered netlist against its golden model
//! by sweeping all of them. The sweep lowers the netlist to bytecode
//! once and packs all 256 stimulus vectors into a single 256-lane
//! compiled pass; the scalar simulator replays every vector one at a
//! time as an independent cross-check, and for comparison.
//!
//! Run with: `cargo run --example batch_sweep`

use ipd::hdl::{Circuit, LogicVec};
use ipd::modgen::KcmMultiplier;
use ipd::sim::{SimError, Simulator, Stimulus, VectorSweep};

/// Per-vector output rows, as a sweep report holds them.
type Rows = Vec<Vec<(String, LogicVec)>>;

/// Runs every vector on the scalar simulator from power-on and
/// returns its outputs, in the sweep's row form.
fn scalar_sweep(sim: &mut Simulator, stimuli: &[Stimulus], cycles: u64) -> Result<Rows, SimError> {
    let mut outputs = Vec::with_capacity(stimuli.len());
    for stim in stimuli {
        sim.reset();
        for (port, value) in stim {
            sim.set(port, value.clone())?;
        }
        sim.cycle(cycles)?;
        outputs.push(vec![("product".to_owned(), sim.peek("product")?)]);
    }
    Ok(outputs)
}

/// Vectors per second over `repeats` sweeps of `vectors` since `start`.
fn vectors_per_sec(repeats: u32, vectors: usize, start: std::time::Instant) -> f64 {
    f64::from(repeats) * vectors as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kcm = KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true);
    let circuit = Circuit::from_generator(&kcm)?;
    println!("== design ==");
    println!("  constant      : {}", kcm.constant());
    println!(
        "  input width   : {} (=> 256-vector exhaustive sweep)",
        kcm.input_width()
    );
    println!("  product width : {}", kcm.product_width());
    println!("  latency       : {} cycles", kcm.latency());
    println!("  primitives    : {}", circuit.primitive_count());

    // The generator emits both the stimulus set and the golden model.
    let stimuli = kcm.sweep_stimuli();
    let golden = kcm.expected_products();

    let cycles = u64::from(kcm.latency());
    let sweep = VectorSweep::with_clock(&circuit, "clk")?.cycles(cycles);
    let report = sweep.run(&stimuli)?;

    // The same vectors on the scalar simulator, one at a time: the
    // proof must not depend on which engine ran it.
    let mut scalar = Simulator::with_clock(&circuit, "clk")?;
    if report.outputs != scalar_sweep(&mut scalar, &stimuli, cycles)? {
        return Err("compiled and scalar engines disagree".into());
    }

    println!("\n== sweep (compiled engine, 256 lanes/shard) ==");
    for stats in &report.shards {
        println!(
            "  shard {} : {:3} vectors in {:9.1?} ({:8.0} vectors/s)",
            stats.shard,
            stats.vectors,
            stats.elapsed,
            stats.vectors_per_sec()
        );
    }
    println!(
        "  total   : {} vectors in {:.1?} ({:.0} vectors/s)",
        report.total_vectors(),
        report.elapsed,
        report.vectors_per_sec()
    );

    // Engine-vs-engine: one cold 256-vector pass is dominated by
    // shard setup, so time warm repeated sweeps, single-threaded.
    const REPEATS: u32 = 20;
    let runner = sweep.clone().threads(1);
    runner.run(&stimuli)?; // warm up
    let start = std::time::Instant::now();
    for _ in 0..REPEATS {
        runner.run(&stimuli)?;
    }
    let compiled = vectors_per_sec(REPEATS, stimuli.len(), start);
    let start = std::time::Instant::now();
    for _ in 0..REPEATS {
        scalar_sweep(&mut scalar, &stimuli, cycles)?;
    }
    let scalar_rate = vectors_per_sec(REPEATS, stimuli.len(), start);
    println!("  compiled engine (warm, 1 thread): {compiled:8.0} vectors/s");
    println!("  scalar engine                   : {scalar_rate:8.0} vectors/s");
    println!(
        "  compiled is {:.1}x the scalar engine on this sweep",
        compiled / scalar_rate.max(1e-9)
    );

    // Check every product against the golden model.
    let mut mismatches = 0u32;
    for (k, (outputs, expect)) in report.outputs.iter().zip(&golden).enumerate() {
        let product = outputs
            .iter()
            .find(|(port, _)| port == "product")
            .map(|(_, value)| value)
            .ok_or("product port missing from sweep outputs")?;
        let got = product.to_i64().ok_or("product not fully driven")?;
        if got != *expect {
            let x = stimuli[k][0].1.to_i64().unwrap_or(i64::MIN);
            eprintln!("  MISMATCH x={x}: got {got}, expected {expect}");
            mismatches += 1;
        }
    }
    println!("\n== verdict ==");
    if mismatches == 0 {
        println!(
            "  all {} products match reference_product() — netlist proven",
            golden.len()
        );
        Ok(())
    } else {
        Err(format!("{mismatches} mismatching products").into())
    }
}
