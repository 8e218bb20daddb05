//! `ipd-verify` — the vendor's formal equivalence checker.
//!
//! Proves two EDIF netlists functionally equivalent over their matched
//! primary I/O and register cut with the `ipd-verify` engine (AIG
//! lowering, sim-guided fraig sweep, CDCL SAT miters), or refutes them
//! with a distinguishing input/state vector that has already been
//! replayed through both simulation engines. Exits nonzero on any
//! mismatch — the same check [`ipd::core::seal_design`] runs before
//! certifying a delivery whose [`SealPolicy`] names a golden reference.
//!
//! [`SealPolicy`]: ipd::core::SealPolicy
//!
//! ```text
//! ipd-verify [options] GOLDEN.edif REVISED.edif
//! ipd-verify [options] --examples
//! ```
//!
//! `--examples` round-trips every built-in example design through the
//! EDIF writer/reader and proves the reread netlist equivalent to the
//! generator output — an end-to-end self-check of generators, netlist
//! I/O and the prover.
//!
//! Options: `--clock NAME` (override clock auto-detection),
//! `--by-position` (pair state elements by order instead of path),
//! `--no-sweep` (skip the fraig sweep; SAT the output miters
//! directly), `--seed N` (signature-simulation PRNG seed),
//! `--stats` (print engine statistics per pair).

#![deny(unsafe_code)]

use std::process::ExitCode;

use ipd::hdl::FlatNetlist;
use ipd::verify::{check_equiv, EquivConfig, EquivReport, EquivVerdict, StateMatch};

fn usage() -> &'static str {
    "usage: ipd-verify [--clock NAME] [--by-position] [--no-sweep] \
     [--seed N] [--stats] (--examples | GOLDEN.edif REVISED.edif)"
}

/// Prints a verdict line (and optional stats); returns `true` when the
/// pair proved equivalent.
fn report(name: &str, report: &EquivReport, stats: bool) -> bool {
    let ok = match &report.verdict {
        EquivVerdict::Equivalent => {
            println!(
                "== {name}: EQUIVALENT ({} functions, {} by hash, {} SAT queries)",
                report.stats.outputs_checked,
                report.stats.outputs_by_hash,
                report.stats.sat_queries,
            );
            true
        }
        EquivVerdict::NotEquivalent(cex) => {
            println!("== {name}: NOT EQUIVALENT at {}", cex.function);
            println!(
                "   golden={}, revised={}",
                u8::from(cex.golden_value),
                u8::from(cex.revised_value)
            );
            for (port, value) in &cex.inputs {
                println!("   input {port} = {value}");
            }
            for s in &cex.state {
                if s.golden_path == s.revised_path {
                    println!("   state {} = {}", s.golden_path, s.value);
                } else {
                    println!(
                        "   state {} / {} = {}",
                        s.golden_path, s.revised_path, s.value
                    );
                }
            }
            false
        }
    };
    if stats {
        let s = &report.stats;
        println!(
            "   aig: {} ands ({} after sweep), {} sim patterns, {} merged, \
             {} SAT queries, {} conflicts",
            s.aig_ands, s.reduced_ands, s.sim_patterns, s.merged, s.sat_queries, s.sat_conflicts,
        );
    }
    ok
}

fn read_flat(path: &str) -> Result<FlatNetlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let circuit = ipd::netlist::read_edif(&text).map_err(|e| format!("{path}: {e}"))?;
    FlatNetlist::build(&circuit).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut cfg = EquivConfig::default();
    let mut use_examples = false;
    let mut stats = false;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--examples" => use_examples = true,
            "--by-position" => cfg.state_match = StateMatch::ByPosition,
            "--no-sweep" => cfg.sweep = false,
            "--stats" => stats = true,
            "--clock" => {
                let Some(name) = args.next() else {
                    eprintln!("--clock requires a port name argument");
                    return ExitCode::FAILURE;
                };
                cfg.clock = Some(name);
            }
            "--seed" => {
                let Some(n) = args.next() else {
                    eprintln!("--seed requires a number argument");
                    return ExitCode::FAILURE;
                };
                match n.parse() {
                    Ok(seed) => cfg.seed = seed,
                    Err(e) => {
                        eprintln!("--seed {n}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => files.push(other.to_owned()),
        }
    }

    // Collect (name, golden, revised) pairs to check.
    let mut pairs: Vec<(String, FlatNetlist, FlatNetlist)> = Vec::new();
    if use_examples {
        if !files.is_empty() {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
        for (name, circuit) in ipd::modgen::example_zoo() {
            let golden = match FlatNetlist::build(&circuit) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let edif = match ipd::netlist::NetlistFormat::Edif.generate(&circuit) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let reread = match ipd::netlist::read_edif(&edif)
                .map_err(|e| e.to_string())
                .and_then(|c| FlatNetlist::build(&c).map_err(|e| e.to_string()))
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{name}: EDIF round-trip: {e}");
                    return ExitCode::FAILURE;
                }
            };
            pairs.push((name, golden, reread));
        }
    } else {
        let [golden_path, revised_path] = files.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        let (golden, revised) = match (read_flat(golden_path), read_flat(revised_path)) {
            (Ok(g), Ok(r)) => (g, r),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        pairs.push((format!("{golden_path} vs {revised_path}"), golden, revised));
    }

    let mut failures = 0usize;
    for (name, golden, revised) in &pairs {
        match check_equiv(golden, revised, &cfg) {
            Ok(r) => {
                if !report(name, &r, stats) {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("== {name}: ERROR: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("ipd-verify: {failures} of {} pair(s) failed", pairs.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
