//! Figures 1 & 3 — the interactive applet flow: build, estimate, view,
//! simulate, netlist. Benchmarks each button of the KCM applet, since
//! in-browser responsiveness is the paper's usability argument.

use ipd_bench::harness::{black_box, Harness};
use ipd_bench::{paper_kcm, paper_kcm_circuit};
use ipd_core::{AppletHost, AppletSession, CapabilitySet, IpExecutable};
use ipd_hdl::{Circuit, FlatNetlist};
use ipd_netlist::NetlistFormat;

fn main() {
    let mut c = Harness::new();
    let mut group = c.benchmark_group("fig3_applet");

    group.bench_function("build_button", |b| {
        b.iter(|| black_box(Circuit::from_generator(&paper_kcm()).expect("build")))
    });

    let circuit = paper_kcm_circuit();
    group.bench_function("estimate_panel", |b| {
        b.iter(|| {
            let area = ipd_estimate::estimate_area(&circuit).expect("area");
            let timing = ipd_estimate::estimate_timing(&circuit).expect("timing");
            black_box((area.total.luts, timing.critical_path_ns))
        })
    });
    group.bench_function("schematic_view", |b| {
        b.iter(|| black_box(ipd_viewer::schematic_text(&circuit, circuit.root())))
    });
    group.bench_function("layout_view", |b| {
        b.iter(|| {
            let flat = FlatNetlist::build(&circuit).expect("flatten");
            black_box(ipd_viewer::layout_grid(&flat))
        })
    });
    group.bench_function("netlist_button_edif", |b| {
        b.iter(|| black_box(ipd_netlist::edif_string(&circuit).expect("edif")))
    });

    group.bench_function("full_session_end_to_end", |b| {
        let exe = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
        let host = AppletHost::new();
        b.iter(|| {
            let mut session = AppletSession::new(&exe, &host, Box::new(paper_kcm()));
            session.build().expect("build");
            session.set_i64("multiplicand", -56).expect("set");
            session.cycle(2).expect("cycle");
            let product = session.peek("product").expect("peek");
            let netlist = session.netlist(NetlistFormat::Edif).expect("netlist");
            black_box((product, netlist.len()))
        })
    });
    group.finish();
}
