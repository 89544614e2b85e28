//! The `serve-cli` workload: an in-process `qlosured` on a Unix socket
//! and two closed-loop clients, each job run the way `qlosure-cli submit
//! --wait` runs it — fresh connect, submit, wait, close.

use crate::compile::{map_staged, shuffled, Strategy};
use crate::report::{fold_fingerprints, Report};
use crate::spans::Tracer;
use crate::stats::hit_ratio;
use circuit::Circuit;
use qlosure::QlosureMapper;
use queko::QuekoSpec;
use service::{result_fingerprint, Client, ClientError, DaemonConfig, DaemonHandle, Priority};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use topology::backends;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Jobs per roster pass.
const ROSTER: usize = 24;
/// A run completes at least this many timed jobs, so its p99 has at
/// least ten samples beyond it.
const MIN_JOBS: usize = 1000;
/// Daemon spawns timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Per-job wait limit; a job past it counts as failed.
const WAIT_LIMIT: Duration = Duration::from_secs(30);

const BACKEND: &str = "aspen16";

/// What a direct in-process map of one roster entry produced.
struct Expected {
    swaps: u64,
    depth: u64,
    fingerprint: String,
}

/// One client-observed job.
struct Sample {
    index: usize,
    rtt_ms: f64,
    outcome: Result<service::Summary, ClientError>,
}

/// The roster as QASM text: small aspen16 QUEKO circuits (instances
/// 1..=24, depth 40 for odd instances and 80 for even ones) in a
/// seed-drawn order.
fn roster(seed: u64) -> Vec<String> {
    let device = backends::aspen16();
    shuffled((1..=ROSTER as u64).collect(), seed)
        .into_iter()
        .map(|instance| {
            let depth = if instance % 2 == 1 { 40 } else { 80 };
            let bench = QuekoSpec::new(&device, depth).seed(instance).generate();
            qasm::emit(&bench.circuit.to_qasm())
        })
        .collect()
}

/// Connects and asks for `stats` until the daemon answers (outside every
/// timer: the accept loop's first poll may sleep one tick). A fresh
/// connection each time: the daemon closes connections idle for 30 s.
fn stats(socket: &Path) -> Result<service::StatsBody, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(socket)
            .map_err(ClientError::from)
            .and_then(|mut c| c.stats())
        {
            Ok(stats) => return Ok(stats),
            Err(e) if Instant::now() > deadline => {
                return Err(format!(
                    "daemon on {} never answered: {e}",
                    socket.display()
                ))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn stop(daemon: DaemonHandle, socket: &Path) -> Result<(), String> {
    Client::connect(socket)
        .map_err(ClientError::from)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    daemon.join().map_err(|e| format!("daemon exit: {e}"))?;
    // The daemon leaves its socket file; the next bind would replace it.
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// One pass over the roster by [`CLIENTS`] closed-loop clients pulling
/// jobs from a shared cursor; returns the samples and their spans.
fn roster_pass(
    socket: &Path,
    qasm: &[String],
    traced: bool,
    origin: Instant,
    first_job: u64,
) -> (Vec<Sample>, Tracer) {
    let cursor = AtomicUsize::new(0);
    let mut merged = Tracer::new(traced, origin);
    let mut samples = Vec::with_capacity(qasm.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(traced, origin);
                    let mut mine = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= qasm.len() {
                            break;
                        }
                        let start = Instant::now();
                        let outcome = t.job(first_job + index as u64, "job", |t| {
                            let mut client = t
                                .span("service.connect", |_| Client::connect(socket))
                                .map_err(ClientError::from)?;
                            let id = t.span("service.submit", |_| {
                                client.submit(
                                    BACKEND,
                                    "qlosure",
                                    &qasm[index],
                                    Priority::Interactive,
                                    false,
                                )
                            })?;
                            t.span("service.wait", |_| client.wait(id, WAIT_LIMIT))
                        });
                        mine.push(Sample {
                            index,
                            rtt_ms: start.elapsed().as_secs_f64() * 1e3,
                            outcome,
                        });
                    }
                    (mine, t)
                })
            })
            .collect();
        for worker in workers {
            let (mine, t) = worker.join().expect("client thread panicked");
            samples.extend(mine);
            merged.absorb(t);
        }
    });
    samples.sort_by_key(|s| s.index);
    (samples, merged)
}

/// Checks every sample against the direct map and, unless `prefix` is
/// `None`, records its timings under it (`""` untraced, `"traced_"`
/// traced).
fn record(report: &mut Report, samples: &[Sample], expected: &[Expected], prefix: Option<&str>) {
    for s in samples {
        let want = &expected[s.index];
        match &s.outcome {
            Ok(summary) => {
                report.check(
                    summary.verified
                        && summary.swaps == want.swaps
                        && summary.depth == want.depth
                        && summary.fingerprint == want.fingerprint,
                    || {
                        format!(
                            "serve-cli job {}: daemon gave {} swaps, depth {}, fingerprint {}; \
                             direct map gave {} swaps, depth {}, fingerprint {}",
                            s.index,
                            summary.swaps,
                            summary.depth,
                            summary.fingerprint,
                            want.swaps,
                            want.depth,
                            want.fingerprint
                        )
                    },
                );
                let Some(prefix) = prefix else { continue };
                report.push(&format!("{prefix}rtt_ms"), s.rtt_ms);
                if !prefix.is_empty() {
                    let queue_ms = summary.queue_seconds * 1e3;
                    let map_ms = summary.seconds * 1e3;
                    report.push("intake.queue_ms", queue_ms);
                    report.push("engine.map_ms", map_ms);
                    report.push("service.overhead_ms", s.rtt_ms - queue_ms - map_ms);
                }
            }
            Err(e) => report.check(false, || format!("serve-cli job {}: {e}", s.index)),
        }
    }
}

/// The whole `serve-cli` run in this process: timed set-ups, a direct
/// in-process map of every roster entry, an untimed warm-up pass, then
/// timed roster passes until `seconds` of them and [`MIN_JOBS`] untraced
/// jobs are done. In a traced run every other pass is traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = serve(seed, seconds, trace, &mut report) {
        report.check(false, || format!("serve-cli: {e}"));
    }
    report
}

fn serve(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let dir = PathBuf::from(".qbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut running = None;
    for rep in 0..SETUP_REPS {
        let socket = dir.join(format!("serve-{}-{rep}.sock", std::process::id()));
        let start = Instant::now();
        let qasm = roster(seed);
        let daemon = service::daemon::spawn(DaemonConfig::at(&socket))
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        report.push("setup_s", start.elapsed().as_secs_f64());
        stats(&socket)?;
        if let Some((daemon, socket, _)) = running.replace((daemon, socket, qasm)) {
            stop(daemon, &socket)?;
        }
    }
    let (daemon, socket, qasm) = running.expect("at least one set-up");

    let device = backends::aspen16();
    let dist = device.shared_distances();
    let mapper = QlosureMapper::default();
    let mut expected = Vec::with_capacity(qasm.len());
    for (i, text) in qasm.iter().enumerate() {
        let program = qasm::parse(text).map_err(|e| format!("roster entry {i}: {e}"))?;
        let circuit = Circuit::from_qasm(&program).map_err(|e| format!("roster entry {i}: {e}"))?;
        let (result, _) = map_staged(
            &mut Tracer::new(false, Instant::now()),
            Strategy::Flat,
            &circuit,
            &device,
            &dist,
        );
        let product = qlosure::run_mapper_timed(&mapper, &circuit, &device);
        report.check(
            result_fingerprint(&product.result) == result_fingerprint(&result),
            || format!("serve-cli entry {i}: staged composition differs from run_mapper_timed"),
        );
        expected.push(Expected {
            swaps: result.swaps as u64,
            depth: result.depth() as u64,
            fingerprint: format!("{:016x}", result_fingerprint(&result)),
        });
    }
    report.push("swaps", expected.iter().map(|e| e.swaps as f64).sum());
    report.push("depth", expected.iter().map(|e| e.depth as f64).sum());

    let origin = Instant::now();
    let (warmup, _) = roster_pass(&socket, &qasm, false, origin, 0);
    record(report, &warmup, &expected, None);

    let (mut timed_s, mut timed_jobs, mut pass) = (0.0, 0, 1u64);
    while timed_s < seconds || timed_jobs < MIN_JOBS {
        let traced = trace && pass % 2 == 0;
        let start = Instant::now();
        let (samples, t) = roster_pass(&socket, &qasm, traced, origin, pass * ROSTER as u64);
        let wall = start.elapsed().as_secs_f64();
        if traced {
            record(report, &samples, &expected, Some("traced_"));
            report.push("traced_map_s", wall);
            for s in t.spans().iter().filter(|s| s.name != "job") {
                report.push(&format!("{}_ms", s.name), s.ns() as f64 / 1e6);
            }
            report.keep_spans(t.spans());
        } else {
            record(report, &samples, &expected, Some(""));
            report.push("map_s", wall);
            timed_jobs += samples.len();
        }
        timed_s += wall;
        report
            .fingerprints
            .push(fold_fingerprints(samples.iter().filter_map(|s| {
                let summary = s.outcome.as_ref().ok()?;
                u64::from_str_radix(&summary.fingerprint, 16).ok()
            })));
        pass += 1;
    }

    let stats = stats(&socket)?;
    report.push("daemon_workers", stats.workers as f64);
    report.push(
        "topology.distance_hit_ratio",
        hit_ratio(stats.distance_hits, stats.distance_misses),
    );
    report.push(
        "presburger.closure_hit_ratio",
        hit_ratio(stats.closure_hits, stats.closure_misses),
    );
    report.push(
        "hier.plan_hit_ratio",
        hit_ratio(
            stats.plan_exact_hits + stats.plan_canonical_hits + stats.plan_disk_hits,
            stats.subroute_misses,
        ),
    );
    if let Some(mib) = crate::host::peak_rss_mib() {
        report.push("peak_rss_mb", mib);
    }
    stop(daemon, &socket)
}
