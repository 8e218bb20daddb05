//! X12 — place-and-route cost: wall time for the full physical flow
//! (pinned placement → congestion-negotiated routing → routed STA) on
//! the pipelined kcm_w16, against one full `ipd-lint` suite run on the
//! same circuit. The physical gate rides the delivery path next to
//! lint and STA, so routing must stay in interactive territory.
//!
//! `IPD_BENCH_FAST=1` shrinks repeat counts (CI smoke). The run always
//! writes a flat JSON summary (`IPD_BENCH_OUT`, default
//! `BENCH_pnr.json`) with `*_pps` (passes/s) keys for `bench_gate` to
//! compare against the committed baseline.

use std::io::Write as _;
use std::time::Instant;

use ipd_bench::full_width_kcm;
use ipd_estimate::{
    estimate_timing, place_and_route, route, PlacerMode, PnrConfig, TimingConstraints,
};
use ipd_hdl::Circuit;
use ipd_lint::lint;
use ipd_modgen::FirFilter;

struct Run {
    label: String,
    passes_per_sec: f64,
}

/// Times `repeats` passes of `body` after one warmup pass.
fn measure<F: FnMut()>(label: &str, repeats: usize, mut body: F) -> Run {
    body();
    let start = Instant::now();
    for _ in 0..repeats {
        body();
    }
    let wall = start.elapsed();
    println!(
        "{label:<28} {repeats} pass(es) in {:>8.2?} ({:.2} passes/s)",
        wall,
        repeats as f64 / wall.as_secs_f64().max(1e-9)
    );
    Run {
        label: label.to_owned(),
        passes_per_sec: repeats as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn constraints_150mhz() -> TimingConstraints {
    let mut t = TimingConstraints::new();
    t.clock("clk", 1000.0 / 150.0, "clk");
    t.output_delay("clk", 0.0, "product");
    t
}

fn write_json(runs: &[Run], extras: &[(String, f64)]) {
    let path = std::env::var("IPD_BENCH_OUT").unwrap_or_else(|_| "BENCH_pnr.json".to_owned());
    let mut entries: Vec<(String, f64)> = runs
        .iter()
        .map(|r| (format!("{}_pps", r.label), r.passes_per_sec))
        .collect();
    entries.extend(extras.iter().cloned());
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("  \"{key}\": {value:.2}{comma}\n"));
    }
    out.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create bench JSON");
    file.write_all(out.as_bytes()).expect("write bench JSON");
    println!("wrote {path}");
}

/// The X12 three-way comparison: hand layout vs. annealed vs. the
/// unplaced heuristic, on *routed* timing where a placement exists.
/// Returns informational `*_ns` keys for the JSON (never gated).
fn routed_comparison() -> Vec<(String, f64)> {
    let fir_coeffs: Vec<i64> = (0..16i64).map(|i| (i % 7) - 3).collect();
    let designs = [
        (
            "kcm_w16",
            Circuit::from_generator(&full_width_kcm(-12345, 16, true).pipelined(true))
                .expect("kcm elaborates"),
        ),
        (
            "fir_t16",
            Circuit::from_generator(&FirFilter::new(fir_coeffs, 8).expect("fir params"))
                .expect("fir elaborates"),
        ),
    ];
    let mut extras = Vec::new();
    println!("\nrouted-timing comparison (critical path, ns):");
    println!(
        "{:<10} {:>10} {:>10} {:>10}  router",
        "design", "hand", "annealed", "unplaced"
    );
    for (name, circuit) in designs {
        let hand = place_and_route(&circuit, &PnrConfig::virtex()).expect("hand pnr");
        let mut anneal_cfg = PnrConfig::virtex();
        anneal_cfg.placer.mode = PlacerMode::Scratch;
        let anneal = place_and_route(&circuit, &anneal_cfg).expect("annealed pnr");
        let mut stripped = circuit.clone();
        stripped.strip_placement();
        let unplaced = estimate_timing(&stripped).expect("unplaced");

        let hand_ns = hand.timing().expect("hand timing").critical_path_ns;
        let anneal_ns = anneal.timing().expect("annealed timing").critical_path_ns;
        println!(
            "{name:<10} {hand_ns:>10.3} {anneal_ns:>10.3} {:>10.3}  {}",
            unplaced.critical_path_ns, hand.routing.stats
        );
        println!("{:<43} {}", "", anneal.routing.stats);
        extras.push((format!("{name}_hand_routed_ns"), hand_ns));
        extras.push((format!("{name}_anneal_routed_ns"), anneal_ns));
        extras.push((
            format!("{name}_unplaced_heuristic_ns"),
            unplaced.critical_path_ns,
        ));
    }
    extras
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();
    let repeats = if fast { 2 } else { 10 };

    let circuit = Circuit::from_generator(&full_width_kcm(-12345, 16, true).pipelined(true))
        .expect("kcm elaborates");
    let config = PnrConfig::virtex();

    // Shared fixtures for the split stages.
    let phys = place_and_route(&circuit, &config).expect("pnr");
    assert!(
        phys.routing.stats.converged,
        "kcm_w16 must route cleanly: {}",
        phys.routing.stats
    );

    let mut runs = Vec::new();

    // The full physical flow: pinned placement, routing, routed STA.
    runs.push(measure("pnr_full", repeats, || {
        let phys = place_and_route(&circuit, &config).expect("pnr");
        let report = phys.analyze(&constraints_150mhz()).expect("routed sta");
        assert_eq!(report.violations(), 0, "kcm_w16 closes 150 MHz routed");
    }));

    // Routing only, placement and the placed design's index amortized.
    runs.push(measure("route_only", repeats, || {
        let routing = route(phys.index(), &config.model, &config.router).expect("route");
        assert!(routing.stats.converged);
        std::hint::black_box(routing.stats.total_wirelength);
    }));

    // Routed STA only, placement and routing amortized.
    runs.push(measure("routed_sta", repeats, || {
        let report = phys.analyze(&constraints_150mhz()).expect("routed sta");
        std::hint::black_box(report.summary());
    }));

    // The yardstick: one full lint-suite run on the same circuit.
    runs.push(measure("lint_full", repeats, || {
        std::hint::black_box(lint(&circuit).expect("lint").summary());
    }));

    let extras = routed_comparison();
    write_json(&runs, &extras);
}
