//! `ipd-lint` — the vendor's pre-delivery netlist checker.
//!
//! Runs the full `ipd-lint` static-analysis engine (connectivity,
//! combinational loops, CDC, dead logic, X-propagation, fanout) over
//! EDIF netlists or the built-in example designs, and exits nonzero
//! when any unwaived error-severity finding remains — the same gate
//! [`ipd::core::seal_design`] applies before sealing a delivery: the
//! flags fill in a [`SealPolicy`] and its [`SealPolicy::linter`] runs.
//!
//! ```text
//! ipd-lint [OPTIONS] --examples
//! ipd-lint [OPTIONS] DESIGN.edif [...]
//! ipd-lint --list-rules
//! ```
//!
//! `--config` loads waivers, severity overrides and limits in the
//! `LintConfig` text format; `--json` emits machine-readable reports.
//! `--rules` restricts the run to a comma-separated list of rule ids
//! (all other catalog rules are set to `allow`); `--list-rules` prints
//! the catalog. `--timing` loads a `TimingConstraints` file and adds
//! the STA pass: each design's slack report is printed and unwaived
//! setup violations fail the run like any other lint error.
//! `--semantic[=BUDGET]` enables the SAT-backed semantic tier: the
//! structural dead/constant/X findings are confirmed, refined or
//! upgraded by an `ipd-verify` oracle (optionally capped at `BUDGET`
//! solver conflicts per query), and redundant-logic and
//! unreachable-state mining runs on top.
//!
//! Exit codes: `0` — every design is free of unwaived errors; `1` —
//! at least one unwaived error-severity finding; `2` — usage or I/O
//! error (bad flags, unreadable file, unparsable netlist or config).

#![deny(unsafe_code)]

use std::process::ExitCode;

use ipd::core::SealPolicy;
use ipd::estimate::analyze_timing;
use ipd::lint::{
    rule_catalog, LintConfig, LintLevel, LintReport, OracleOptions, TimingConstraints,
};

/// Usage or I/O failure (distinct from lint findings, which exit 1).
const EXIT_USAGE: u8 = 2;

const USAGE: &str = "usage: ipd-lint [--config FILE] [--timing FILE] [--rules ID,ID,...] \
     [--semantic[=BUDGET]] [--json] (--examples | DESIGN.edif ...)\n\
     \x20      ipd-lint --list-rules";

const HELP: &str = "\
  --examples          lint the built-in module-generator example zoo
  --config FILE       load waivers / severity overrides / limits
  --timing FILE       load timing constraints and add the STA pass
  --rules ID,ID,...   run only the listed rules (others set to allow)
  --list-rules        print the rule catalog (id, severity, help) and exit
  --semantic[=BUDGET] enable the SAT-backed semantic tier; BUDGET caps
                      solver conflicts per query (0 = unlimited)
  --json              machine-readable reports

exit codes:
  0  all designs free of unwaived error-severity findings
  1  at least one unwaived error-severity finding
  2  usage or I/O error";

/// The example designs `--examples` checks: the shared modgen zoo
/// (the same list the equivalence CI gate proves against its golden
/// EDIF fixtures).
fn examples() -> Vec<(String, ipd::hdl::Circuit)> {
    ipd::modgen::example_zoo()
}

fn print_report(name: &str, report: &LintReport, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        println!("== {name}: {}", report.summary());
        print!("{report}");
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut use_examples = false;
    let mut config = LintConfig::new();
    let mut constraints: Option<TimingConstraints> = None;
    let mut semantic: Option<OracleOptions> = None;
    let mut rule_filter: Option<Vec<String>> = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--examples" => use_examples = true,
            "--list-rules" => {
                for rule in rule_catalog() {
                    println!("{:<20} {:<8} {}", rule.id, rule.severity, rule.help);
                }
                return ExitCode::SUCCESS;
            }
            "--semantic" => semantic = Some(OracleOptions::default()),
            "--rules" => {
                let Some(list) = args.next() else {
                    eprintln!("--rules requires a comma-separated list of rule ids");
                    return ExitCode::from(EXIT_USAGE);
                };
                rule_filter = Some(list.split(',').map(str::to_owned).collect());
            }
            "--config" => {
                let Some(path) = args.next() else {
                    eprintln!("--config requires a file argument");
                    return ExitCode::from(EXIT_USAGE);
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                };
                match LintConfig::parse(&text) {
                    Ok(c) => config = c,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--timing" => {
                let Some(path) = args.next() else {
                    eprintln!("--timing requires a constraints file argument");
                    return ExitCode::from(EXIT_USAGE);
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                };
                match TimingConstraints::parse(&text) {
                    Ok(t) => constraints = Some(t),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\n{HELP}");
                return ExitCode::SUCCESS;
            }
            other => {
                if let Some(budget) = other.strip_prefix("--semantic=") {
                    match budget.parse::<u64>() {
                        Ok(conflict_budget) => {
                            semantic = Some(OracleOptions {
                                conflict_budget,
                                ..OracleOptions::default()
                            });
                        }
                        Err(_) => {
                            eprintln!("--semantic budget must be an integer, got {budget:?}");
                            return ExitCode::from(EXIT_USAGE);
                        }
                    }
                } else if other.starts_with("--") {
                    eprintln!("unknown flag {other}\n{USAGE}");
                    return ExitCode::from(EXIT_USAGE);
                } else {
                    files.push(other.to_owned());
                }
            }
        }
    }
    if !use_examples && files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    if let Some(selected) = &rule_filter {
        let catalog = rule_catalog();
        for id in selected {
            if !catalog.iter().any(|r| r.id == id) {
                eprintln!("unknown rule {id:?} (see --list-rules)");
                return ExitCode::from(EXIT_USAGE);
            }
        }
        // Everything not selected drops to `allow`; selected rules keep
        // their configured (or catalog) severity.
        for rule in catalog {
            if !selected.iter().any(|id| id == rule.id) {
                config.set_level(rule.id.to_owned(), LintLevel::Allow);
            }
        }
    }

    let mut designs = if use_examples { examples() } else { Vec::new() };
    for path in files {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        match ipd::netlist::read_edif(&text) {
            Ok(c) => designs.push((path, c)),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    let policy = SealPolicy {
        lint: config,
        timing: constraints,
        semantic,
        golden: None,
    };
    let linter = policy.linter();
    let mut errors = 0usize;
    for (name, circuit) in &designs {
        match linter.run(circuit) {
            Ok(report) => {
                errors += report.error_count();
                print_report(name, &report, json);
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
        // The STA report itself (slack tables, histograms, critical
        // paths) rides alongside the lint diagnostics when timing is
        // requested; the gate above already counted its violations.
        if let Some(t) = &policy.timing {
            match analyze_timing(circuit, t) {
                Ok(sta) => {
                    if json {
                        println!("{}", sta.to_json());
                    } else {
                        println!("-- {name}: {}", sta.summary());
                        print!("{sta}");
                    }
                }
                Err(e) => {
                    eprintln!("{name}: sta: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
    }
    if errors > 0 {
        eprintln!(
            "ipd-lint: {errors} unwaived error(s) across {} design(s)",
            designs.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
