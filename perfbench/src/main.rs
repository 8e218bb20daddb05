//! Customer-journey benchmark for the IP delivery stack.
//!
//! ```text
//! ipd-perfbench --workload <journey|cosim_sweep|cosim_events>
//!               --seed <n> --seconds <s> [--trace-file <path>]
//!               [--corrupt-op <op id>]
//! ```
//!
//! Two customer threads run a closed loop of ops against the real
//! delivery stack on loopback for `--seconds`, every output is checked,
//! and the last stdout line is the JSON result. With `--trace-file` the
//! run is split: an untraced half, then a traced half whose ops are
//! replayed uncontended afterwards, and the spans are written to the
//! file for `run.py` to turn into per-layer metrics. `--corrupt-op`
//! flips one product bit of that op before it is checked (self-test).

mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use workload::{Bench, Rng, Workload, CUSTOMERS};

/// Set-ups before and again after the measured loop; `setup_s` is the
/// median of all their times, so a burst of outside load at either end
/// does not decide it.
const SETUP_REPS: usize = 8;
/// Share of `--seconds` run as warm-up before measuring, so lazy
/// initialisation and heap growth land outside the measured ops.
const WARMUP_SHARE: f64 = 0.1;
/// Length of the windows the end-to-end metrics are taken over: a burst
/// of load from outside the benchmark moves a few windows, not the
/// result.
const WINDOW_S: f64 = 1.0;
/// Latency samples kept per customer and window.
const LATENCY_SAMPLES: usize = 2_000;
/// Most ops per customer a traced phase records, which bounds the
/// trace file of the fast workloads.
const TRACE_OPS: usize = 10_000;
/// Failure messages printed per run (all failures are counted).
const FAILURES_SHOWN: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_file: Option<String>,
    corrupt_op: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace_file = None;
    let mut corrupt_op = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace-file" => trace_file = Some(value),
            "--corrupt-op" => corrupt_op = Some(number(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace_file,
        corrupt_op,
    })
}

/// What one customer did in one window of a phase.
#[derive(Default, Clone)]
struct Window {
    ok: u64,
    /// Ops that ended in the window, failed ones included.
    ended: u64,
    /// A uniform sample of their latencies, at most `LATENCY_SAMPLES`.
    latencies_ms: Vec<f64>,
}

/// What one customer thread did in a phase. Its memory does not grow
/// with the op count beyond `LATENCY_SAMPLES` per window (except the op
/// list of a traced phase, which `TRACE_OPS` bounds), so `peak_rss_mb`
/// measures the program, not the bookkeeping.
#[derive(Default)]
struct CustomerRun {
    /// Indexed by the window each op ended in.
    windows: Vec<Window>,
    failed: u64,
    /// `(j, op id)` of every op of a traced phase, in order.
    ops: Vec<(u64, u64)>,
    wire_bytes: u64,
    failures: Vec<String>,
    spans: Vec<trace::Span>,
}

impl CustomerRun {
    /// Counts an op that ended in window `k`, keeping its latency by
    /// reservoir sampling (algorithm R).
    fn record(&mut self, k: usize, ok: bool, latency_ms: f64, rng: &mut Rng) {
        if self.windows.len() <= k {
            self.windows.resize(k + 1, Window::default());
        }
        let w = &mut self.windows[k];
        w.ok += u64::from(ok);
        w.ended += 1;
        if w.latencies_ms.len() < LATENCY_SAMPLES {
            w.latencies_ms.push(latency_ms);
        } else if let Some(slot) = w.latencies_ms.get_mut(rng.below(w.ended) as usize) {
            *slot = latency_ms;
        }
    }
}

/// Host counters read at the phase start and at every window boundary.
#[derive(Clone, Copy)]
struct Sample {
    /// Seconds since the phase start.
    at: f64,
    /// Process user+system CPU seconds.
    cpu: f64,
    /// Machine-wide `(steal, total)` jiffies: time the hypervisor ran
    /// something else while this machine's CPUs wanted to run.
    steal: (u64, u64),
}

impl Sample {
    fn now(at: f64) -> Self {
        Sample {
            at,
            cpu: cpu_seconds(),
            steal: steal_jiffies(),
        }
    }
}

struct Phase {
    wall_s: f64,
    samples: Vec<Sample>,
    runs: Vec<CustomerRun>,
}

impl Phase {
    fn ok(&self) -> u64 {
        self.runs
            .iter()
            .flat_map(|r| &r.windows)
            .map(|w| w.ok)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    /// The full windows the end-to-end metrics use: the half in which
    /// the hypervisor stole the least CPU from this machine (ties to the
    /// earlier window). Outside load then moves the result only when it
    /// lasts most of the run.
    fn quiet_windows(&self) -> Vec<usize> {
        let stolen: Vec<f64> = self
            .samples
            .windows(2)
            .map(|w| {
                let (steal, total) = (w[1].steal.0 - w[0].steal.0, w[1].steal.1 - w[0].steal.1);
                steal as f64 / total.max(1) as f64
            })
            .collect();
        let mut order: Vec<usize> = (0..stolen.len()).collect();
        order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]).then(a.cmp(&b)));
        order.truncate(stolen.len().div_ceil(2));
        order
    }

    /// Share of the machine's CPU time the hypervisor stole over the
    /// whole phase.
    fn steal_share(&self) -> f64 {
        let (first, last) = (self.samples[0], self.samples[self.samples.len() - 1]);
        (last.steal.0 - first.steal.0) as f64 / (last.steal.1 - first.steal.1).max(1) as f64
    }

    fn ops_in(&self, k: usize) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.windows.get(k))
            .map(|w| w.ok)
            .sum()
    }

    /// Median over the quiet windows of the ops completed per second.
    fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .quiet_windows()
            .into_iter()
            .map(|k| self.ops_in(k) as f64 / (self.samples[k + 1].at - self.samples[k].at))
            .collect();
        median(&mut rates)
    }

    /// Median over the quiet windows of the process CPU time per
    /// completed op.
    fn cpu_ms_per_op(&self) -> f64 {
        let mut costs: Vec<f64> = self
            .quiet_windows()
            .into_iter()
            .filter(|&k| self.ops_in(k) > 0)
            .map(|k| (self.samples[k + 1].cpu - self.samples[k].cpu) * 1e3 / self.ops_in(k) as f64)
            .collect();
        median(&mut costs)
    }

    /// The latency samples of the quiet windows, sorted.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .quiet_windows()
            .into_iter()
            .flat_map(|k| self.runs.iter().filter_map(move |r| r.windows.get(k)))
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

/// Runs the closed loop: every customer issues its next op as soon as
/// the previous one returns, until `seconds` have passed. `next_j`
/// holds each customer's next op number and carries over between
/// phases. Meanwhile this thread samples the host counters at every
/// window boundary.
fn run_phase(bench: &mut Bench, seconds: f64, traced: bool, next_j: &mut [u64]) -> Phase {
    let ctx = &bench.ctx;
    let barrier = Barrier::new(CUSTOMERS + 1);
    let window = WINDOW_S.min(seconds);
    let full_windows = (seconds / window).floor() as u32;
    std::thread::scope(|s| {
        let handles: Vec<_> = bench
            .rigs
            .iter_mut()
            .zip(next_j.iter_mut())
            .enumerate()
            .map(|(c, (rig, j))| {
                let barrier = &barrier;
                s.spawn(move || {
                    if traced {
                        trace::start(c);
                    }
                    let mut run = CustomerRun::default();
                    let mut rng = Rng::new(ctx.seed ^ (*j << 8) ^ c as u64);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline && !(traced && run.ops.len() >= TRACE_OPS) {
                        let op = *j * CUSTOMERS as u64 + c as u64;
                        let t0 = Instant::now();
                        let result = trace::root(op, "bench.op", || rig.op(ctx, c, *j, op));
                        let t1 = Instant::now();
                        let k = ((t1 - start).as_secs_f64() / window) as usize;
                        run.record(k, result.is_ok(), (t1 - t0).as_secs_f64() * 1e3, &mut rng);
                        if traced {
                            run.ops.push((*j, op));
                        }
                        match result {
                            Ok(bytes) => run.wire_bytes += bytes,
                            Err(e) => {
                                run.failed += 1;
                                if run.failures.len() < FAILURES_SHOWN {
                                    run.failures.push(format!("customer {c} op {op}: {e}"));
                                }
                            }
                        }
                        *j += 1;
                    }
                    if traced {
                        run.spans = trace::finish();
                    }
                    run
                })
            })
            .collect();
        let mut samples = vec![Sample::now(0.0)];
        barrier.wait();
        let start = Instant::now();
        let mut next = 1;
        while !handles.iter().all(|h| h.is_finished()) {
            let boundary = start + Duration::from_secs_f64(f64::from(next) * window);
            let now = Instant::now();
            if next > full_windows || now < boundary {
                std::thread::sleep(
                    boundary
                        .saturating_duration_since(now)
                        .min(Duration::from_millis(20)),
                );
                continue;
            }
            samples.push(Sample::now(now.duration_since(start).as_secs_f64()));
            next += 1;
        }
        let runs: Vec<CustomerRun> = handles
            .into_iter()
            .map(|h| h.join().expect("customer thread panicked"))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        if next == 1 {
            // A phase that ended within its first window (a capped
            // traced phase) is one window.
            samples.push(Sample::now(wall_s));
        }
        Phase {
            wall_s,
            samples,
            runs,
        }
    })
}

/// Machine-wide `(steal, total)` jiffies from `/proc/stat`.
fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu  user nice system idle iowait irq softirq steal guest ...";
    // guest time is already counted in user and nice.
    let jiffies: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (jiffies.get(7).copied().unwrap_or(0), jiffies.iter().sum())
}

/// Process user+system CPU seconds, all threads, exited ones included.
fn cpu_seconds() -> f64 {
    // USER_HZ is fixed at 100 by the Linux ABI.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of the process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile by the nearest-rank rule.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Builds the workload's world `SETUP_REPS` times, keeping the last,
/// and adds each build time to `times`. The first build of the process
/// is timed from process start.
fn set_up(args: &Args, since: Option<Instant>, times: &mut Vec<f64>) -> Result<Bench, String> {
    for rep in 0..SETUP_REPS {
        let t0 = match (rep, since) {
            (0, Some(start)) => start,
            _ => Instant::now(),
        };
        let bench = Bench::set_up(args.workload, args.seed, args.corrupt_op)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok(bench);
        }
        bench.shut_down()?;
    }
    unreachable!("SETUP_REPS > 0")
}

fn report_failures(args: &Args, phases: &[&Phase]) {
    for phase in phases {
        for run in &phase.runs {
            for failure in &run.failures {
                eprintln!(
                    "FAIL workload={} seed={} {failure}",
                    args.workload.name(),
                    args.seed
                );
            }
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The untraced run: every end-to-end metric.
fn measure(args: &Args, mut bench: Bench, mut setup_times: Vec<f64>) -> Result<(u64, u64), String> {
    let mut next_j = vec![0u64; CUSTOMERS];
    let warmup = run_phase(&mut bench, args.seconds * WARMUP_SHARE, false, &mut next_j);
    let phase = run_phase(&mut bench, args.seconds, false, &mut next_j);
    let rss_mb = peak_rss_mb();
    bench.shut_down()?;
    set_up(args, None, &mut setup_times)?.shut_down()?;
    report_failures(args, &[&warmup, &phase]);
    let ok = phase.ok();
    let failed = warmup.failed() + phase.failed();
    let attempted = warmup.ok() + ok + failed;
    let latencies = phase.latencies_ms();
    let wire: u64 = phase.runs.iter().map(|r| r.wire_bytes).sum();
    let (p50, p90) = (quantile(&latencies, 0.5), quantile(&latencies, 0.9));
    println!(
        "{}: {} ops in {:.3} s, host steal {:.1}%; in the quieter half of the windows, \
         latency p50 {p50:.4} ms / p90 {p90:.4} ms over {} samples",
        args.workload.name(),
        phase.ok() + phase.failed(),
        phase.wall_s,
        phase.steal_share() * 100.0,
        latencies.len()
    );
    let metrics = [
        metric("ops_per_s", phase.ops_per_s(), "1/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_p90_ms", p90, "ms"),
        metric("cpu_ms_per_op", phase.cpu_ms_per_op(), "ms"),
        metric("wire_bytes_per_op", wire as f64 / ok.max(1) as f64, "B"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("setup_s", median(&mut setup_times), "s"),
        // Warm-up ops count too: a wrong answer is wrong whenever it
        // happens.
        metric(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "share",
        ),
    ];
    println!(
        "{}",
        result_line(failed == 0 && ok > 0, attempted, failed, &metrics)
    );
    Ok((attempted, failed))
}

/// The traced run: an untraced half for the overhead baseline, a traced
/// half, then uncontended replays; spans and run counters go to `path`.
fn measure_traced(args: &Args, mut bench: Bench, path: &str) -> Result<(u64, u64), String> {
    let half = args.seconds / 2.0;
    let mut next_j = vec![0u64; CUSTOMERS];
    let warmup = run_phase(&mut bench, args.seconds * WARMUP_SHARE, false, &mut next_j);
    let untraced = run_phase(&mut bench, half, false, &mut next_j);
    let store0 = bench.ctx.service().store_stats();
    let audit0 = bench.ctx.service().audit_log().len();
    let errors0 = bench.server_errors();
    let mut traced = run_phase(&mut bench, half, true, &mut next_j);
    let store = bench.ctx.service().store_stats();
    let audit = bench.ctx.service().audit_log().len();
    let server_errors = bench.server_errors() - errors0;

    let mut replay_failed = 0u64;
    for (c, run) in traced.runs.iter().enumerate() {
        trace::start(c);
        if let Err(e) = bench.rigs[c].replay(&bench.ctx, c, &run.ops) {
            eprintln!(
                "FAIL workload={} seed={} replay for customer {c}: {e}",
                args.workload.name(),
                args.seed
            );
            replay_failed += 1;
        }
    }
    let replays = trace::finish();
    bench.shut_down()?;
    report_failures(args, &[&warmup, &untraced, &traced]);

    let mut threads: Vec<Vec<trace::Span>> = traced
        .runs
        .iter_mut()
        .map(|r| std::mem::take(&mut r.spans))
        .collect();
    threads.push(replays);
    let counters = [
        ("ops_traced", (traced.ok() + traced.failed()) as f64),
        ("ops_per_s_untraced", untraced.ops_per_s()),
        ("ops_per_s_traced", traced.ops_per_s()),
        ("server_wire_errors", server_errors as f64),
        ("store_hits", (store.hits - store0.hits) as f64),
        ("store_misses", (store.misses - store0.misses) as f64),
        (
            "store_not_modified",
            (store.not_modified - store0.not_modified) as f64,
        ),
        ("audit_records", (audit - audit0) as f64),
    ];
    std::fs::write(path, trace::chrome_json(&threads, &counters))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "{}: traced {} ops ({:.1}/s) after {} untraced ({:.1}/s); spans in {path}",
        args.workload.name(),
        traced.ok() + traced.failed(),
        traced.ops_per_s(),
        untraced.ok() + untraced.failed(),
        untraced.ops_per_s()
    );
    let phases = [&warmup, &untraced, &traced];
    let attempted: u64 = phases.iter().map(|p| p.ok() + p.failed()).sum();
    let failed = phases.iter().map(|p| p.failed()).sum::<u64>() + replay_failed;
    println!(
        "{}",
        result_line(failed == 0 && attempted > 0, attempted, failed, &[])
    );
    Ok((attempted, failed))
}

fn main() -> ExitCode {
    let process_start = trace::epoch();
    // Pin the transport before any wire configuration is built: a shell
    // or CI matrix variable must not change what is measured.
    std::env::remove_var("IPD_WIRE_MODE");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} customers={CUSTOMERS} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let mut setup_times = Vec::new();
    let outcome =
        set_up(&args, Some(process_start), &mut setup_times).and_then(|bench| {
            match &args.trace_file {
                Some(path) => measure_traced(&args, bench, path),
                None => measure(&args, bench, setup_times),
            }
        });
    match outcome {
        Ok((_, 0)) => ExitCode::SUCCESS,
        Ok((attempted, failed)) => {
            eprintln!("perfbench: {failed} of {attempted} ops failed or were wrong");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
