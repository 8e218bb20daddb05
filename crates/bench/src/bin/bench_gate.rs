//! CI perf-regression gate for the fleet benches (X9 wire, X10 sim).
//!
//! Compares fresh bench JSON (written by `wire_fleet` /
//! `sim_fleet`) against the committed baselines and exits nonzero
//! when any throughput figure regresses by more than the allowed
//! fraction (default 30%). Only throughput keys gate — `*_rps`
//! (requests/s), `*_vps` (vectors/s), `*_cps` (equivalence checks/s)
//! and `*_pps` (place-and-route passes/s); latency figures
//! (`*_p99_us`) are reported but too noisy on shared CI runners to
//! fail a build on.
//!
//! Usage (repeat `--suite` for each baseline/current pair):
//!
//! ```text
//! bench_gate --suite crates/bench/baselines/wire_fleet.json:BENCH_wire.json \
//!            --suite crates/bench/baselines/sim_fleet.json:BENCH_sim.json \
//!            [--max-regress 0.30]
//! ```
//!
//! The JSON involved is the flat `{"key": number, ...}` shape the
//! benches emit; the parser below handles exactly that (no nesting,
//! no strings) so the gate needs no dependencies.

#![deny(unsafe_code)]

use std::process::ExitCode;

/// Key suffixes that gate the build (throughput: higher is better) —
/// requests/s, vectors/s, equivalence checks/s, place-and-route
/// passes/s.
const GATED_SUFFIXES: &[&str] = &["_rps", "_vps", "_cps", "_pps"];

/// Key suffixes shown for information only.
const INFO_SUFFIXES: &[&str] = &["_p99_us"];

/// Parses a flat `{"key": number, ...}` document.
fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut pairs = Vec::new();
    let mut rest = text.trim();
    rest = rest
        .strip_prefix('{')
        .ok_or("expected a JSON object")?
        .trim_end();
    rest = rest.strip_suffix('}').ok_or("unterminated object")?;
    for entry in rest.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry: {entry}"))?;
        let key = key.trim().trim_matches('"').to_owned();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number for {key}: {e}"))?;
        pairs.push((key, value));
    }
    Ok(pairs)
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn lookup(pairs: &[(String, f64)], key: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn has_suffix(key: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| key.ends_with(s))
}

/// Gates one baseline/current pair; returns false on any regression
/// or missing metric.
fn gate_suite(baseline_path: &str, current_path: &str, max_regress: f64) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;

    let mut ok = true;
    println!("suite: {baseline_path} vs {current_path}");
    println!(
        "{:<26} {:>12} {:>12} {:>9}  verdict",
        "metric", "baseline", "current", "delta"
    );
    for (key, base) in baseline
        .iter()
        .filter(|(k, _)| has_suffix(k, GATED_SUFFIXES))
    {
        let Some(now) = lookup(&current, key) else {
            println!("{key:<26} {base:>12.0} {:>12} {:>9}  MISSING", "-", "-");
            ok = false;
            continue;
        };
        let delta = (now - base) / base;
        let floor = base * (1.0 - max_regress);
        let verdict = if now >= floor { "ok" } else { "REGRESSED" };
        if now < floor {
            ok = false;
        }
        println!(
            "{key:<26} {base:>12.0} {now:>12.0} {delta:>+8.1}%  {verdict}",
            delta = delta * 100.0
        );
    }
    for (key, base) in baseline
        .iter()
        .filter(|(k, _)| has_suffix(k, INFO_SUFFIXES))
    {
        let now = lookup(&current, key);
        let shown = now.map_or("-".to_owned(), |v| format!("{v:.0}"));
        println!("{key:<26} {base:>12.0} {shown:>12} {:>9}  info", "-");
    }
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let mut suites: Vec<(String, String)> = Vec::new();
    let mut max_regress = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--suite" => {
                let pair = value("--suite")?;
                let (baseline, current) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("--suite wants baseline:current, got {pair}"))?;
                suites.push((baseline.to_owned(), current.to_owned()));
            }
            "--max-regress" => {
                max_regress = value("--max-regress")?
                    .parse()
                    .map_err(|e| format!("bad --max-regress: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if suites.is_empty() {
        return Err("at least one --suite baseline:current is required".into());
    }

    let mut ok = true;
    for (baseline, current) in &suites {
        ok &= gate_suite(baseline, current, max_regress)?;
        println!();
    }
    if ok {
        println!(
            "gate: pass (allowed regression {:.0}%)",
            max_regress * 100.0
        );
    } else {
        println!(
            "gate: FAIL — throughput regressed more than {:.0}% (or a metric is missing)",
            max_regress * 100.0
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
