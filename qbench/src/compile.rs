//! The `compile` workload: one cold roster pass per process — the
//! QASMBench suite through flat Qlosure, then a QUEKO batch through
//! `HierMapper` — composed stage by stage from the same passes the
//! mappers' pipelines run, with a span around every layer call. Set-up
//! and jobs are timed with the process CPU clock, the pass also with the
//! wall clock (the spans' clock).

use crate::host::cpu_seconds;
use crate::report::{fold_fingerprints, Report};
use crate::spans::{totals_by_name, Tracer};
use crate::stats::hit_ratio;
use affine::{DependenceAnalysis, WeightPath};
use circuit::{verify_routing, Circuit};
use hier::{HierConfig, HierLayoutPass, HierMapper, HierRoutingPass, RegionAnalysisPass};
use qlosure::{
    AnalysisPass, Artifacts, InitialMapping, LayoutPass, Mapper, MappingResult, PassContext,
    QlosureMapper, QlosureRoutingPass, RoutingPass, RoutingState,
};
use queko::QuekoSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use service::result_fingerprint;
use std::sync::Arc;
use std::time::Instant;
use topology::{backends, CouplingGraph, DistanceMatrix};

/// Which mapper maps a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Flat Qlosure (`QlosureMapper::default()`).
    Flat,
    /// Hierarchical Qlosure (`HierMapper::default()`).
    Hier,
}

/// A job's input, as the program receives it.
pub enum Input {
    /// OpenQASM text: parsed and emitted inside the timed pass.
    Qasm(String),
    /// A generated circuit.
    Circuit(Circuit),
}

/// One roster entry: an input, the index of its device and its mapper.
pub struct Job {
    /// Index into [`Roster::devices`].
    pub device: usize,
    /// What the program is handed.
    pub input: Input,
    /// The mapper that maps it.
    pub strategy: Strategy,
}

/// The `compile` roster: generated inputs and the devices they map onto.
pub struct Roster {
    /// Devices with their (cold-built, then cached) distance matrices.
    pub devices: Vec<(CouplingGraph, Arc<DistanceMatrix>)>,
    /// Jobs in pass order.
    pub jobs: Vec<Job>,
}

fn device(t: &mut Tracer, name: &str) -> (CouplingGraph, Arc<DistanceMatrix>) {
    let device = backends::by_name(name).expect("built-in back-end name");
    let dist = t.span("topology.distances", |_| device.shared_distances());
    (device, dist)
}

/// `items` in an order drawn from `seed`.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    items.shuffle(&mut StdRng::seed_from_u64(seed));
    items
}

/// Builds the `compile` workload's inputs from `seed`: devices, their
/// cold distance matrices and the jobs. This is what `setup_s` times.
///
/// First the 41-circuit QASMBench suite as QASM text, on Sherbrooke then
/// Ankaa-3 (paper Tables V/VI), in suite order: peak memory and
/// per-circuit latency depend on which circuit first pays for each shared
/// closure, and seed-drawn orders moved peak memory over 60–73 MB. Then
/// ten QUEKO instances on each of three large devices for `HierMapper`,
/// in a seed-drawn order on each device. The seed never changes which
/// circuits the roster holds: swaps and depth are roster totals, and
/// across QUEKO instance seeds they vary by more than any bound worth
/// having (QUEKO seeds 1–5 of one 1024-qubit grid circuit gave
/// 14041–14949 swaps and depth 88–98).
pub fn setup(seed: u64, t: &mut Tracer) -> Roster {
    let texts: Vec<String> = qasmbench::suite()
        .iter()
        .map(|e| qasm::emit(&e.build().to_qasm()))
        .collect();
    let mut devices = Vec::new();
    let mut jobs = Vec::new();
    for name in ["sherbrooke", "ankaa3"] {
        devices.push(device(t, name));
        jobs.extend(texts.iter().map(|text| Job {
            device: devices.len() - 1,
            input: Input::Qasm(text.clone()),
            strategy: Strategy::Flat,
        }));
    }
    for (name, depth) in [("grid:32x32", 16), ("heavy-hex:15", 16), ("grid:32x64", 8)] {
        devices.push(device(t, name));
        let dev = &devices[devices.len() - 1].0;
        for instance in shuffled((1..=10).collect(), seed) {
            let bench = QuekoSpec::new(dev, depth)
                .density_2q(0.2)
                .seed(instance)
                .generate();
            jobs.push(Job {
                device: devices.len() - 1,
                input: Input::Circuit(bench.circuit),
                strategy: Strategy::Hier,
            });
        }
    }
    Roster { devices, jobs }
}

/// Maps `circuit` through the same passes, in the same order, as the
/// strategy's `Mapper::pipeline` — with a span around each — and returns
/// the result and the analysis path taken.
pub fn map_staged(
    t: &mut Tracer,
    strategy: Strategy,
    circuit: &Circuit,
    device: &CouplingGraph,
    dist: &DistanceMatrix,
) -> (MappingResult, WeightPath) {
    let ctx = PassContext {
        circuit,
        device,
        dist,
    };
    let mut artifacts = Artifacts::default();
    match strategy {
        Strategy::Flat => {
            let config = QlosureMapper::default().config;
            assert!(
                matches!(config.initial, InitialMapping::Identity),
                "the staged flat composition assumes the identity layout"
            );
            let analysis = t.span("affine.analysis", |_| {
                DependenceAnalysis::new(circuit, config.weight_mode)
            });
            let path = analysis.path();
            artifacts.insert(analysis);
            let layout = t.span("core.layout", |_| {
                qlosure::IdentityLayoutPass.run(&ctx, &artifacts)
            });
            let result = t.span("core.routing", |_| {
                let mut state = RoutingState::new(circuit, device, dist, layout);
                QlosureRoutingPass::new(config).run(&mut state, &artifacts);
                state.into_result()
            });
            (result, path)
        }
        Strategy::Hier => {
            let config = HierConfig::default();
            let analysis = t.span("affine.analysis", |_| {
                DependenceAnalysis::new(circuit, config.subroute.weight_mode)
            });
            let path = analysis.path();
            artifacts.insert(analysis);
            t.span("hier.regions", |_| {
                RegionAnalysisPass::new(config.clone()).run(&ctx, &mut artifacts)
            });
            let layout = t.span("hier.layout", |_| {
                HierLayoutPass::new(config.clone()).run(&ctx, &artifacts)
            });
            let result = t.span("hier.route", |_| {
                let mut state = RoutingState::new(circuit, device, dist, layout);
                HierRoutingPass::new(config).run(&mut state, &artifacts);
                state.into_result()
            });
            (result, path)
        }
    }
}

fn mapper(strategy: Strategy) -> Box<dyn Mapper> {
    match strategy {
        Strategy::Flat => Box::new(QlosureMapper::default()),
        Strategy::Hier => Box::new(HierMapper::default()),
    }
}

/// What one job produced.
struct Outcome {
    /// The circuit parsed from a QASM job's text.
    parsed: Option<Circuit>,
    result: MappingResult,
    path: WeightPath,
}

/// The circuit a job mapped: its own, or the one parsed from its QASM.
fn mapped_circuit<'a>(job: &'a Job, parsed: Option<&'a Circuit>) -> &'a Circuit {
    match &job.input {
        Input::Circuit(c) => c,
        Input::Qasm(_) => parsed.expect("a QASM job keeps its parsed circuit"),
    }
}

/// One job as a user runs it: (parse), map, verify, (emit).
fn run_job(t: &mut Tracer, roster: &Roster, job: &Job) -> Result<Outcome, String> {
    let (device, dist) = &roster.devices[job.device];
    let parsed = match &job.input {
        Input::Qasm(text) => Some(t.span("qasm.parse", |_| {
            qasm::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|p| Circuit::from_qasm(&p).map_err(|e| e.to_string()))
        })?),
        Input::Circuit(_) => None,
    };
    let circuit = mapped_circuit(job, parsed.as_ref());
    let (result, path) = map_staged(t, job.strategy, circuit, device, dist);
    t.span("circuit.verify", |_| {
        verify_routing(
            circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
    })
    .map_err(|e| format!("routing failed verification: {e}"))?;
    if matches!(job.input, Input::Qasm(_)) {
        let text = t.span("qasm.emit", |_| qasm::emit(&result.routed.to_qasm()));
        if !text.contains("OPENQASM") {
            return Err("emitted program has no OPENQASM header".to_string());
        }
    }
    Ok(Outcome {
        parsed,
        result,
        path,
    })
}

/// Stage spans whose times, with `map.unattributed`, make up a pass.
const STAGES: [&str; 9] = [
    "qasm.parse",
    "affine.analysis",
    "core.layout",
    "core.routing",
    "hier.regions",
    "hier.layout",
    "hier.route",
    "circuit.verify",
    "qasm.emit",
];

/// One process's work for the `compile` workload: set up, run one cold
/// roster pass (traced or not), and — when `check` — compare every job's
/// staged result with `qlosure::run_mapper_timed` on the same input,
/// outside the timed pass.
pub fn run(seed: u64, trace: bool, check: bool) -> Report {
    let origin = Instant::now();
    let mut t = Tracer::new(trace, origin);
    let mut report = Report::default();

    let setup_cpu = cpu_seconds();
    let roster = t.span("setup", |t| setup(seed, t));
    report.push("setup_s", cpu_seconds() - setup_cpu);

    let closure0 = presburger::closure_memo_stats();
    let plan0 = hier::plan_store_stats();
    let dist0 = topology::shared_distance_stats();
    let mut outcomes = Vec::with_capacity(roster.jobs.len());
    let pass_start = Instant::now();
    t.span("pass", |t| {
        for (i, job) in roster.jobs.iter().enumerate() {
            let job_cpu = cpu_seconds();
            let outcome = t.job(i as u64, "job", |t| run_job(t, &roster, job));
            let job_cpu_ms = (cpu_seconds() - job_cpu) * 1e3;
            report.push(
                if trace {
                    "traced_job_cpu_ms"
                } else {
                    "job_cpu_ms"
                },
                job_cpu_ms,
            );
            outcomes.push(outcome);
        }
    });
    let pass_s = pass_start.elapsed().as_secs_f64();
    report.push(if trace { "traced_pass_s" } else { "pass_s" }, pass_s);
    report.push("roster_jobs", roster.jobs.len() as f64);

    let (closure1, plan1, dist1) = (
        presburger::closure_memo_stats(),
        hier::plan_store_stats(),
        topology::shared_distance_stats(),
    );
    let (closure_hits, closure_misses) = (closure1.0 - closure0.0, closure1.1 - closure0.1);
    let plan_hits = (plan1.exact_hits - plan0.exact_hits)
        + (plan1.canonical_hits - plan0.canonical_hits)
        + (plan1.disk_hits - plan0.disk_hits);
    let plan_misses = plan1.misses - plan0.misses;
    report.push("presburger.closure_hits", closure_hits as f64);
    report.push("presburger.closure_misses", closure_misses as f64);
    report.push(
        "presburger.closure_hit_ratio",
        hit_ratio(closure_hits, closure_misses),
    );
    report.push(
        "hier.plan_exact_hits",
        (plan1.exact_hits - plan0.exact_hits) as f64,
    );
    report.push(
        "hier.plan_canonical_hits",
        (plan1.canonical_hits - plan0.canonical_hits) as f64,
    );
    report.push("hier.plan_misses", plan_misses as f64);
    report.push("hier.plan_hit_ratio", hit_ratio(plan_hits, plan_misses));
    report.push(
        "topology.distance_hit_ratio",
        hit_ratio(dist1.0 - dist0.0, dist1.1 - dist0.1),
    );

    let (mut swaps, mut depth) = (0usize, 0usize);
    let mut paths = [0u32; 3];
    let mut fingerprints = Vec::with_capacity(outcomes.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        report.check(outcome.is_ok(), || {
            format!(
                "compile job {i}: {}",
                outcome.as_ref().err().expect("failed job")
            )
        });
        if let Ok(o) = outcome {
            swaps += o.result.swaps;
            depth += o.result.depth();
            paths[match o.path {
                WeightPath::AffineExact => 0,
                WeightPath::AffineOverApproximate => 1,
                WeightPath::Graph => 2,
            }] += 1;
            fingerprints.push(result_fingerprint(&o.result));
        }
    }
    report.push("swaps", swaps as f64);
    report.push("depth", depth as f64);
    report.push("affine.path_exact", f64::from(paths[0]));
    report.push("affine.path_overapprox", f64::from(paths[1]));
    report.push("affine.path_graph", f64::from(paths[2]));
    report.fingerprints.push(fold_fingerprints(fingerprints));

    if trace {
        let totals = totals_by_name(t.spans());
        let ns = |name: &str| totals.get(name).map_or(0, |&(total, _)| total);
        let own = |name: &str| totals.get(name).map_or(0, |&(_, own)| own);
        let unattributed = own("pass") + own("job");
        let staged: u64 = STAGES.iter().map(|s| ns(s)).sum();
        report.check(staged + unattributed == ns("pass"), || {
            format!(
                "compile: stage spans ({staged} ns) + unattributed ({unattributed} ns) \
                 != pass ({} ns)",
                ns("pass")
            )
        });
        for stage in STAGES {
            report.push(&format!("{stage}_s"), ns(stage) as f64 / 1e9);
        }
        report.push("map.unattributed_s", unattributed as f64 / 1e9);
        report.push(
            "map.accounted_ratio",
            (staged + unattributed) as f64 / 1e9 / pass_s,
        );
        report.push(
            "topology.distances_s",
            ns("topology.distances") as f64 / 1e9,
        );
        report.keep_spans(t.spans());
    }

    if let Some(mib) = crate::host::peak_rss_mib() {
        report.push("peak_rss_mb", mib);
    }
    if check {
        check_equivalence(&mut report, &roster, &outcomes);
    }
    report
}

/// One process's cold set-up and nothing else, for `setup_s`.
pub fn run_setup(seed: u64) -> Report {
    let mut report = Report::default();
    let start = cpu_seconds();
    let roster = setup(seed, &mut Tracer::new(false, Instant::now()));
    report.push("setup_s", cpu_seconds() - start);
    report.check(!roster.jobs.is_empty(), || {
        "compile: set-up built no jobs".to_string()
    });
    report
}

/// Compares every job's staged result with `qlosure::run_mapper_timed`
/// on the same input.
fn check_equivalence(report: &mut Report, roster: &Roster, outcomes: &[Result<Outcome, String>]) {
    for (i, (outcome, job)) in outcomes.iter().zip(&roster.jobs).enumerate() {
        let Ok(o) = outcome else { continue };
        let circuit = mapped_circuit(job, o.parsed.as_ref());
        let device = &roster.devices[job.device].0;
        let product = qlosure::run_mapper_timed(mapper(job.strategy).as_ref(), circuit, device);
        report.check(
            result_fingerprint(&product.result) == result_fingerprint(&o.result),
            || format!("compile job {i}: staged composition differs from run_mapper_timed"),
        );
    }
}
