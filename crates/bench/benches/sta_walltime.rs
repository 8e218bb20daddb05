//! X8 — timing-analysis cost: wall time for a full constraint-evaluated
//! STA run over the pipelined kcm_w16, versus one full `ipd-lint` suite
//! run on the same circuit. The timing gate rides the lint gate on the
//! delivery path, so STA must stay in the same cost class; the
//! acceptance shape is STA ≤ 3× lint. Also measured: one analysis on
//! an analyzer built once, what serving one slack summary from an
//! already-built session costs.

use ipd_bench::full_width_kcm;
use ipd_bench::harness::{black_box, Harness};
use ipd_estimate::{analyze_timing, Sta, TimingConstraints};
use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::lint;
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

/// The 150 MHz scheme the KCM applet story closes with pipelining.
fn constraints() -> TimingConstraints {
    let mut t = TimingConstraints::new();
    t.clock("clk", 1000.0 / 150.0, "clk");
    t.output_delay("clk", 0.0, "product");
    t.input_delay("clk", 0.0, "multiplicand");
    t
}

fn main() {
    let circuit = Circuit::from_generator(&full_width_kcm(-12345, 16, true).pipelined(true))
        .expect("kcm elaborates");
    let prims = circuit.primitive_count();
    let index = FlatIndex::new(FlatNetlist::build(&circuit).expect("flattens"));
    let model = DelayModel::virtex();

    let mut c = Harness::new();
    let mut group = c.benchmark_group("sta_walltime");

    // The full vendor-side timing gate: flatten + graph build + analyze.
    group.bench_function(format!("sta_full/kcm_w16_pipe_{prims}prims"), |b| {
        b.iter(|| {
            black_box(
                analyze_timing(&circuit, &constraints())
                    .expect("sta")
                    .summary(),
            )
        })
    });

    // Analysis only, graph amortized — what serving one slack summary
    // from an already-built session costs.
    group.bench_function(format!("sta_analyze_only/kcm_w16_pipe_{prims}prims"), |b| {
        let mut sta = Sta::new(&index, &model, NetDelaySource::Heuristic).expect("build");
        b.iter(|| black_box(sta.analyze(&constraints()).summary()))
    });

    // The yardstick: one full lint-suite run on the same circuit.
    group.bench_function(format!("lint_full/kcm_w16_pipe_{prims}prims"), |b| {
        b.iter(|| black_box(lint(&circuit).expect("lint").summary()))
    });
    group.finish();
}
