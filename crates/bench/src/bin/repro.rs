//! `repro` — regenerates every table and figure of the paper as text.
//!
//! Usage:
//!
//! ```text
//! repro [--table1] [--fig1] [--fig2] [--fig3] [--fig4] [--kcm] [--all]
//! ```
//!
//! With no flags (or `--all`), every artifact is reproduced in order.
//! `--fig4-measured` additionally runs the co-simulation sweep with
//! *real* localhost sockets and injected latency (slower).

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

use ipd_bench::{
    baseline_multiplier, fig4_rtts, fig4_scenario, full_width_kcm, kcm_quality_widths, paper_kcm,
    paper_kcm_circuit, quality_constant,
};
use ipd_core::{AppletHost, AppletServer, AppletSession, CapabilitySet, IpExecutable};
use ipd_cosim::{
    measure_local_event_cost, Approach, BlackBoxClient, BlackBoxServer, LatencyTransport,
    LocalSimModel, SimModel,
};
use ipd_estimate::{estimate_area, estimate_timing};
use ipd_hdl::Circuit;
use ipd_netlist::NetlistFormat;
use ipd_pack::BundleSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    if want("--table1") {
        table1();
    }
    if want("--fig1") {
        fig1();
    }
    if want("--fig2") {
        fig2();
    }
    if want("--fig3") {
        fig3();
    }
    if want("--fig4") {
        fig4_modeled();
    }
    if args.iter().any(|a| a == "--fig4-measured") {
        fig4_measured();
    }
    if want("--kcm") {
        kcm_quality();
    }
}

fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Table 1: bundle sizes for the constant-multiplier applet.
fn table1() {
    heading("TABLE 1 — bundles used by the constant-multiplier applet");
    println!("paper: JHDLBase 346 kB, Virtex 293 kB, Viewer 140 kB, Applet 16 kB, total 795 kB");
    println!("(ours embed this workspace's real sources, so absolute sizes differ;");
    println!(" the partitioning *shape* is the reproduced claim)\n");
    let set = BundleSet::jhdl_applet_set();
    print!("{set}");
    let base = set.get("JHDLBase").expect("base").packed_size();
    let applet = set.get("Applet").expect("applet").packed_size();
    println!("\nshape check:");
    println!(
        "  base/applet size ratio: {:.1}x (paper: {:.1}x)",
        base as f64 / applet as f64,
        346.0 / 16.0
    );
    println!(
        "  compression saves {:.0}% of raw bytes",
        100.0 * (1.0 - set.total_packed() as f64 / set.total_raw() as f64)
    );
}

/// Figure 1: the KCM parameter panel with estimates.
fn fig1() {
    heading("FIGURE 1 — GUI for constant coefficient multiplier (parameter panel)");
    let kcm = paper_kcm();
    println!("  Constant Value : {}", kcm.constant());
    println!("  Input Width    : {} bits", kcm.input_width());
    println!(
        "  Output Width   : {} bits (top bits of {})",
        kcm.product_width(),
        kcm.full_product_width()
    );
    println!("  Signed         : {}", kcm.is_signed());
    println!(
        "  Pipelined      : {} (latency {} cycles)",
        kcm.is_pipelined(),
        kcm.latency()
    );
    let circuit = paper_kcm_circuit();
    println!("\n  [Build] pressed:");
    print!("{}", estimate_area(&circuit).expect("area"));
    print!("{}", estimate_timing(&circuit).expect("timing"));
}

/// Figure 2: the two executable configurations.
fn fig2() {
    heading("FIGURE 2 — two configurations of an IP delivery executable");
    let passive = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::passive());
    let licensed = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::licensed());
    println!("--- passive customer (browse + estimate) ---");
    print!("{passive}");
    println!("--- licensed customer (full visibility + netlist) ---");
    print!("{licensed}");
    println!(
        "shape check: licensed grants {} vs {} operations and downloads {} vs {} kB",
        licensed.capabilities().len(),
        passive.capabilities().len(),
        licensed.download_size().div_ceil(1024),
        passive.download_size().div_ceil(1024),
    );
}

/// Figure 3: a full applet session transcript.
fn fig3() {
    heading("FIGURE 3 — applet session: build, browse, simulate, netlist");
    let mut server = AppletServer::new("byu", b"vendor-key".to_vec());
    server.enroll("customer", "virtex-kcm", CapabilitySet::licensed(), 0, 365);
    let exe = server.serve("customer", 1).expect("serve");
    let mut host = AppletHost::new();
    let downloaded = host.load(&exe);
    println!(
        "downloaded {} kB: {:?}",
        downloaded.div_ceil(1024),
        host.cached()
    );
    let kcm = paper_kcm();
    let latency = kcm.latency();
    let mut session = AppletSession::new(&exe, &host, Box::new(kcm));
    session.build().expect("[Build]");
    println!("\n[Build] -> {}", session.generator_name());
    println!("\nschematic browser (excerpt):");
    for line in session.schematic().expect("schematic").lines().take(12) {
        println!("  {line}");
    }
    println!("\n[Cycle]/[Reset] simulation:");
    for x in [-128i64, -56, 0, 77, 127] {
        session.set_i64("multiplicand", x).expect("set");
        session.cycle(u64::from(latency)).expect("cycle");
        let p = session.peek("product").expect("peek");
        println!("  multiplicand {x:>5} -> product {:>6?}", p.to_i64());
    }
    let edif = session.netlist(NetlistFormat::Edif).expect("[Netlist]");
    println!(
        "\n[Netlist] -> {} bytes of EDIF (scrollable window)",
        edif.len()
    );
    for line in edif.lines().take(4) {
        println!("  {line}");
    }
}

/// Figure 4, modeled: throughput vs RTT for the three architectures.
fn fig4_modeled() {
    heading("FIGURE 4 — black-box co-simulation vs remote simulation (modeled)");
    let circuit = paper_kcm_circuit();
    let local_cost = measure_local_event_cost(&circuit, 5_000).expect("measure");
    println!("measured applet-local event cost: {local_cost:?}\n");
    println!(
        "{:>8} | {:>13} {:>13} {:>13} | {:>10} {:>10}",
        "RTT", "applet cyc/s", "webcad cyc/s", "rmi cyc/s", "cross(web)", "cross(rmi)"
    );
    for rtt in fig4_rtts() {
        let s = fig4_scenario(rtt, local_cost);
        let fmt_cross = |c: Option<u64>| c.map_or_else(|| "never".into(), |v: u64| v.to_string());
        println!(
            "{:>6}ms | {:>13.0} {:>13.0} {:>13.0} | {:>10} {:>10}",
            rtt.as_millis(),
            s.throughput(Approach::AppletLocal),
            s.throughput(Approach::WebCadRemote),
            s.throughput(Approach::JavaCadRmi),
            fmt_cross(s.crossover_cycles(Approach::WebCadRemote)),
            fmt_cross(s.crossover_cycles(Approach::JavaCadRmi)),
        );
    }
    println!("\nshape check: applet-local is RTT-independent; remote degrades ~1/RTT;");
    println!("the one-time download amortizes within ~10^2-10^3 cycles at WAN latency.");
}

/// Figure 4, measured: real sockets, really injected latency.
fn fig4_measured() {
    heading("FIGURE 4 (measured) — real TCP + injected RTT");
    let circuit = paper_kcm_circuit();
    println!(
        "{:>8} | {:>16} {:>16}",
        "RTT", "local cyc/s", "remote cyc/s"
    );
    for rtt_ms in [0u64, 1, 2, 5, 10] {
        // Local path.
        let mut local = LocalSimModel::new(&circuit).expect("model");
        let cycles = 300u64;
        let start = Instant::now();
        for i in 0..cycles {
            local
                .set("multiplicand", ipd_hdl::LogicVec::from_u64(i & 0xFF, 8))
                .expect("set");
            local.cycle(1).expect("cycle");
            let _ = local.get("product").expect("get");
        }
        let local_rate = cycles as f64 / start.elapsed().as_secs_f64();

        // Remote path over real TCP with injected latency.
        let mut host = AppletHost::new();
        host.grant_network_permission();
        let server = BlackBoxServer::bind(&host).expect("bind");
        let addr = server.addr();
        let _thread = server.spawn(LocalSimModel::new(&circuit).expect("model"));
        let tcp = ipd_cosim::TcpTransport::connect(addr).expect("connect");
        let mut remote =
            BlackBoxClient::over(LatencyTransport::new(tcp, Duration::from_millis(rtt_ms)));
        let remote_cycles = if rtt_ms == 0 {
            300u64
        } else {
            60 / rtt_ms.max(1) + 10
        };
        let start = Instant::now();
        for i in 0..remote_cycles {
            remote
                .set("multiplicand", ipd_hdl::LogicVec::from_u64(i & 0xFF, 8))
                .expect("set");
            remote.cycle(1).expect("cycle");
            let _ = remote.get("product").expect("get");
        }
        let remote_rate = remote_cycles as f64 / start.elapsed().as_secs_f64();
        let _ = remote.close();
        println!("{rtt_ms:>6}ms | {local_rate:>16.0} {remote_rate:>16.0}");
    }
}

/// X1: the KCM quality table (the authors' FPL 2001 evaluation).
fn kcm_quality() {
    heading("X1 — KCM vs general array multiplier (ref [9] evaluation)");
    println!(
        "{:>5} {:>10} {:>10} {:>8} | {:>9} {:>9} {:>8}",
        "width", "kcm cost", "mult cost", "ratio", "kcm ns", "mult ns", "ratio"
    );
    for width in kcm_quality_widths() {
        let kcm = Circuit::from_generator(&full_width_kcm(quality_constant(width), width, false))
            .expect("kcm");
        let mult = Circuit::from_generator(&baseline_multiplier(width)).expect("mult");
        let ka = estimate_area(&kcm).expect("area");
        let ma = estimate_area(&mult).expect("area");
        let kt = estimate_timing(&kcm).expect("timing");
        let mt = estimate_timing(&mult).expect("timing");
        let k_cost = f64::from(ka.total.luts) + f64::from(ka.total.carries) * 0.5;
        let m_cost = f64::from(ma.total.luts) + f64::from(ma.total.carries) * 0.5;
        println!(
            "{width:>5} {k_cost:>10.1} {m_cost:>10.1} {:>8.2} | {:>9.2} {:>9.2} {:>8.2}",
            m_cost / k_cost,
            kt.critical_path_ns,
            mt.critical_path_ns,
            mt.critical_path_ns / kt.critical_path_ns,
        );
    }
    println!("\nshape check: the constant folds into LUT tables, so the KCM stays");
    println!("several times cheaper and faster than the general multiplier at every");
    println!("width (paper [9] reports a ~2x area advantage on real Virtex parts).");

    // Placement ablation: the same netlist with RLOCs stripped pays
    // the unplaced-routing penalty — the quantified value of the
    // paper's preplaced macros and layout viewer.
    println!("\nablation: relative placement (paper KCM)");
    let placed = paper_kcm_circuit();
    let mut unplaced = placed.clone();
    unplaced.strip_placement();
    let tp = estimate_timing(&placed).expect("timing");
    let tu = estimate_timing(&unplaced).expect("timing");
    println!(
        "  placed:   {:.2} ns ({:.0} MHz), {:.0}% of leaves placed",
        tp.critical_path_ns,
        tp.fmax_mhz,
        tp.placed_fraction * 100.0
    );
    println!(
        "  stripped: {:.2} ns ({:.0} MHz) — {:.1}x slower without RLOCs",
        tu.critical_path_ns,
        tu.fmax_mhz,
        tu.critical_path_ns / tp.critical_path_ns
    );
    let auto = ipd_estimate::auto_place(&placed, &ipd_estimate::PlacerConfig::default())
        .expect("auto place");
    let ta = estimate_timing(&auto.circuit).expect("timing");
    println!(
        "  annealed: {:.2} ns ({:.0} MHz) — wirelength {:.0} -> {:.0} over a {}x{} grid",
        ta.critical_path_ns,
        ta.fmax_mhz,
        auto.initial_wirelength,
        auto.final_wirelength,
        auto.grid_side,
        auto.grid_side
    );

    // Pipelining ablation.
    println!("\nablation: pipelining the paper KCM");
    for pipelined in [false, true] {
        let kcm = if pipelined {
            ipd_modgen::KcmMultiplier::new(-56, 8, 12)
                .signed(true)
                .pipelined(true)
        } else {
            ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true)
        };
        let latency = kcm.latency();
        let circuit = Circuit::from_generator(&kcm).expect("kcm");
        let area = estimate_area(&circuit).expect("area");
        let timing = estimate_timing(&circuit).expect("timing");
        println!(
            "  pipelined={pipelined:<5} latency={latency} LUTs={:<3} FFs={:<3} {:.2} ns ({:.0} MHz)",
            area.total.luts, area.total.ffs, timing.critical_path_ns, timing.fmax_mhz
        );
    }
}
