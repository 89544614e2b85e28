//! `qbench` — the repository benchmark.
//!
//! ```text
//! qbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`compile`, `serve-cli`), checks
//! every output, prints each metric by name with its
//! unit, a `# host` noise record, and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ones, taken from spans the benchmark records
//! around its calls into each layer (every other pass traced, so the run
//! also reports the tracing overhead). Exits 1 on any failed or
//! mismatched operation.
//!
//! The `compile` workload needs cold process-wide caches (closure memo,
//! distance cache, plan memo) and nothing empties them, so every timed
//! pass runs in a fresh child process (`--child`) of this binary; passes
//! repeat until `--seconds` of pass time (and at least two passes) are
//! done, each followed by set-up-only children for `setup_s`. Compile
//! children run with `ENGINE_THREADS=1` and time with the process CPU
//! clock; a job counts with its fastest time over the run's passes (see
//! `latencies`). `serve-cli` runs in one child and times wall clock.

mod compile;
mod host;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 2] = ["compile", "serve-cli"];

/// Per-layer metrics: name and unit. Each is a median: times over traced
/// passes, counts over all passes, `_ms` over traced jobs. A layer a
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("qasm.parse_s", "s"),
    ("qasm.emit_s", "s"),
    ("affine.analysis_s", "s"),
    ("affine.path_exact", "count"),
    ("affine.path_overapprox", "count"),
    ("affine.path_graph", "count"),
    ("presburger.closure_hits", "count"),
    ("presburger.closure_misses", "count"),
    ("presburger.closure_hit_ratio", "ratio"),
    ("core.layout_s", "s"),
    ("core.routing_s", "s"),
    ("circuit.verify_s", "s"),
    ("topology.distances_s", "s"),
    ("topology.distance_hit_ratio", "ratio"),
    ("hier.regions_s", "s"),
    ("hier.layout_s", "s"),
    ("hier.route_s", "s"),
    ("hier.plan_exact_hits", "count"),
    ("hier.plan_canonical_hits", "count"),
    ("hier.plan_misses", "count"),
    ("hier.plan_hit_ratio", "ratio"),
    ("map.unattributed_s", "s"),
    ("service.connect_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("intake.queue_ms", "ms"),
    ("engine.map_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("map.accounted_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: what it runs.
    child: Option<Child>,
}

/// What a child process runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Child {
    /// Set-up and one roster pass (the whole run on `serve-cli`).
    Pass,
    /// A pass followed by the equivalence check.
    Check,
    /// Set-up only, timed for `setup_s` (`compile`).
    Setup,
}

impl Child {
    fn as_str(self) -> &'static str {
        match self {
            Child::Pass => "pass",
            Child::Check => "check",
            Child::Setup => "setup",
        }
    }
}

/// `ENGINE_THREADS` of the `compile` child processes. One
/// thread turns off `hier`'s speculative prefetch, which on a 2-core host
/// made the `HierMapper` jobs slower, not faster, and keeps the CPU clock counting
/// a job's own work and no speculation thrown away.
const COMPILE_ENGINE_THREADS: &str = "1";

/// The `ENGINE_THREADS` the measured processes of `workload` see.
fn engine_threads(workload: &str) -> Option<String> {
    if workload == "serve-cli" {
        std::env::var("ENGINE_THREADS").ok()
    } else {
        Some(COMPILE_ENGINE_THREADS.to_string())
    }
}

/// Set-up-only child processes after each compile pass, so `setup_s` is
/// a median over twice as many cold set-ups as there are passes.
const SETUPS_PER_PASS: usize = 1;

/// Fewest timed passes per compile run: a traced run needs an untraced and
/// a traced one.
const MIN_PASSES: usize = 2;

fn usage(msg: &str) -> ! {
    eprintln!(
        "qbench: {msg}\nusage: qbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--child" => {
                child = Some(match value().as_str() {
                    "pass" => Child::Pass,
                    "check" => Child::Check,
                    "setup" => Child::Setup,
                    _ => usage("--child takes pass, check or setup"),
                })
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        child,
    }
}

/// Runs one child process and decodes its report, timing the host
/// reference kernel first (here, so its buffer never counts towards a
/// child's peak memory).
fn spawn_child(args: &Args, child: Child, traced: bool) -> Result<Report, String> {
    let reference_ms = host::reference_ms();
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    if args.workload != "serve-cli" {
        command.env("ENGINE_THREADS", COMPILE_ENGINE_THREADS);
    }
    let output = command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", child.as_str()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("child pass exited with {}", output.status));
    }
    let mut report = Report::decode(&String::from_utf8_lossy(&output.stdout))?;
    report.push("host.ref_ms", reference_ms);
    Ok(report)
}

fn median_of(report: &Report, key: &str) -> Option<f64> {
    let values = report.get(key);
    (!values.is_empty()).then(|| stats::median(values))
}

/// Checks that every sample of `key` is the same (deterministic totals).
fn check_repeats(report: &mut Report, key: &str) {
    let values = report.get(key).to_vec();
    report.check(values.windows(2).all(|w| w[0] == w[1]), || {
        format!("{key} differs between passes: {values:?}")
    });
}

fn host_record(workload: &str, cpu0: Option<host::CpuTimes>, report: &Report) -> String {
    let steal = match (cpu0, host::read_stat()) {
        (Some(a), Some(b)) => format!("{:.3}", host::steal_percent(a, b)),
        _ => "null".to_string(),
    };
    let load = host::read_loadavg().map_or("null".to_string(), |l| {
        format!("[{}, {}, {}]", l[0], l[1], l[2])
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let engine = engine_threads(workload).map_or("null".to_string(), |v| format!("{v:?}"));
    let workers = median_of(report, "daemon_workers").map_or("null".to_string(), |w| w.to_string());
    let reference = report.get("host.ref_ms");
    let reference = if reference.is_empty() {
        "null".to_string()
    } else {
        let lo = reference.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = reference.iter().copied().fold(0.0, f64::max);
        format!("[{lo:.2}, {:.2}, {hi:.2}]", stats::median(reference))
    };
    format!(
        "{{\"steal_pct\": {steal}, \"loadavg\": {load}, \"nproc\": {nproc}, \
         \"engine_threads\": {engine}, \"daemon_workers\": {workers}, \
         \"reference_ms_min_median_max\": {reference}}}"
    )
}

/// Runs the workload's child processes and merges their reports.
fn measure(args: &Args) -> Report {
    let mut report = Report::default();
    if args.workload == "serve-cli" {
        match spawn_child(args, Child::Pass, args.trace) {
            Ok(r) => report.merge(r),
            Err(e) => report.check(false, || e),
        }
        return report;
    }
    // Alternate untraced and traced passes in a traced run, so the
    // overhead compares passes taken under the same host conditions.
    let mut measured = 0.0;
    let mut pass = 0;
    while measured < args.seconds || pass < MIN_PASSES {
        let traced = args.trace && pass % 2 == 1;
        let child = if pass == 0 { Child::Check } else { Child::Pass };
        match spawn_child(args, child, traced) {
            Ok(mut r) => {
                measured += r
                    .get("pass_s")
                    .iter()
                    .chain(r.get("traced_pass_s"))
                    .sum::<f64>();
                r.spans = r.spans.iter().map(|s| format!("{pass} {s}")).collect();
                report.merge(r);
            }
            Err(e) => {
                report.check(false, || e);
                break;
            }
        }
        for _ in 0..SETUPS_PER_PASS {
            match spawn_child(args, Child::Setup, false) {
                Ok(r) => report.merge(r),
                Err(e) => report.check(false, || e),
            }
        }
        pass += 1;
    }
    report
}

/// Each job's fastest CPU time, in ms, over the compile passes whose
/// per-job samples are `key`; `None` when there are none (`serve-cli`).
fn fastest_jobs(report: &Report, key: &str) -> Option<Vec<f64>> {
    let jobs = *report.get("roster_jobs").first()? as usize;
    let samples = report.get(key);
    (!samples.is_empty()).then(|| stats::fastest_per_job(samples, jobs))
}

/// Per-job latencies, the roster pass time and jobs per second.
///
/// On `compile` a job's latency is its fastest CPU time over
/// the run's cold passes, and a pass is the sum of those: host noise
/// (steal, co-tenants on the shared caches) only ever adds time, and on a
/// shared 2-core host it came in bursts that covered half of some 35 s
/// runs and none of others, moving per-run medians by a third. On
/// `serve-cli` every job's client-observed wall time counts and a pass is
/// the median roster pass: its latency is mostly the client's and the
/// daemon's sleeps, which host noise hardly moves.
fn latencies(report: &Report) -> (Vec<f64>, Option<f64>, Option<f64>) {
    match fastest_jobs(report, "job_cpu_ms") {
        Some(jobs) => {
            let pass_s = jobs.iter().sum::<f64>() / 1e3;
            let rate = (pass_s > 0.0).then(|| jobs.len() as f64 / pass_s);
            (jobs, Some(pass_s), rate)
        }
        None => {
            let rtt = report.get("rtt_ms").to_vec();
            let total: f64 = report.get("map_s").iter().sum();
            let rate = (total > 0.0).then(|| rtt.len() as f64 / total);
            (rtt, median_of(report, "map_s"), rate)
        }
    }
}

/// The end-to-end metrics (name, unit, value) from untraced samples.
fn end_to_end(report: &Report) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let (rtt, map_s, jobs_per_s) = latencies(report);
    let rtt_at = |p| (!rtt.is_empty()).then(|| stats::percentile(&rtt, p));
    vec![
        ("setup_s", "s", median_of(report, "setup_s")),
        ("map_s", "s", map_s),
        ("swaps", "count", report.get("swaps").first().copied()),
        ("depth", "count", report.get("depth").first().copied()),
        ("rtt_p50_ms", "ms", rtt_at(50.0)),
        ("rtt_p99_ms", "ms", rtt_at(99.0)),
        ("jobs_per_s", "1/s", jobs_per_s),
        ("peak_rss_mb", "MB", median_of(report, "peak_rss_mb")),
    ]
}

/// Traced over untraced pass time, minus one, in percent: fastest-job
/// CPU sums on `compile`, median wall passes on `serve-cli`.
fn trace_overhead_pct(report: &Report) -> Option<f64> {
    let fastest_sum = |key| fastest_jobs(report, key).map(|jobs| jobs.iter().sum::<f64>());
    let (traced, untraced) = match fastest_sum("traced_job_cpu_ms") {
        Some(traced) => (traced, fastest_sum("job_cpu_ms")?),
        None => (
            median_of(report, "traced_map_s")?,
            median_of(report, "map_s")?,
        ),
    };
    Some((traced / untraced - 1.0) * 100.0)
}

/// The per-layer metrics (name, unit, value) from traced samples.
fn per_layer(report: &Report) -> Vec<(&'static str, &'static str, Option<f64>)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_pct" {
                trace_overhead_pct(report)
            } else {
                median_of(report, name)
            };
            (name, unit, value)
        })
        .collect()
}

fn write_spans(args: &Args, report: &Report) {
    let path = format!(".qbench/spans-{}-{}.txt", args.workload, args.seed);
    let mut text = String::from("# pass job id parent name start_ns end_ns\n");
    for s in &report.spans {
        writeln!(text, "{s}").expect("writing to a String");
    }
    match std::fs::create_dir_all(".qbench").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => eprintln!("qbench: could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(child) = args.child {
        let report = match (args.workload.as_str(), child) {
            ("serve-cli", _) => serve::run(args.seed, args.seconds, args.trace),
            (_, Child::Setup) => compile::run_setup(args.seed),
            (_, _) => compile::run(args.seed, args.trace, child == Child::Check),
        };
        print!("{}", report.encode());
        return ExitCode::SUCCESS;
    }

    let cpu0 = host::read_stat();
    let mut report = measure(&args);
    for key in ["swaps", "depth"] {
        check_repeats(&mut report, key);
    }
    let fingerprints = report.fingerprints.clone();
    report.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        format!("result fingerprints differ between passes: {fingerprints:016x?}")
    });
    let end_to_end = end_to_end(&report);
    let per_layer = per_layer(&report);

    // Every metric this run measured, with units and sample counts.
    println!(
        "# qbench {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    let n = latencies(&report).0.len();
    let tail = stats::highest_supported(n, &[50.0, 90.0, 99.0, 99.9], 10);
    println!(
        "# rtt samples: {n} (highest percentile with >= 10 beyond: {})",
        tail.map_or("none".to_string(), |p| format!("p{p}"))
    );
    for key in [
        "setup_s",
        "pass_s",
        "traced_pass_s",
        "map_s",
        "traced_map_s",
    ] {
        if !report.get(key).is_empty() {
            println!("# {key} samples: {:?}", report.get(key));
        }
    }
    for (name, unit, value) in end_to_end.iter().chain(&per_layer) {
        if let Some(v) = value {
            println!("# {name} = {v} {unit}");
        }
    }
    println!("# host {}", host_record(&args.workload, cpu0, &report));
    if !report.spans.is_empty() {
        write_spans(&args, &report);
    }

    // The result line: end-to-end metrics untraced, per-layer traced. A
    // layer the workload never calls reads 0; any other metric the run
    // could not measure is a failure.
    let chosen = if args.trace { per_layer } else { end_to_end };
    let mut metrics = Vec::new();
    for (name, unit, value) in chosen {
        let value = match value {
            Some(v) if v.is_finite() => v,
            None if args.trace && name != "trace.overhead_pct" => 0.0,
            _ => {
                report.check(false, || format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for f in &report.failures {
        eprintln!("qbench: FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
