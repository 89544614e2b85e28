//! Golden wire frames: the byte-exact encoding of one instance of every
//! `Request` and `Response` variant, plus the full scraper text of one
//! `MetricsBody`. Every number in the instances is distinct, so a
//! swapped key, a reordered member or a renamed metric shows up as a
//! diff against the frozen text. Each frame must also parse back to the
//! instance it came from.

use service::proto::{
    encode_request, encode_response, parse_request, parse_response, EventBody, EventsBody,
    HistoryBody, MetricsBody, RatesBody, SampleBody, SeriesBody, SpanNode,
};
use service::{ErrorCode, Priority, Request, Response, StatsBody, Strategy, Summary};

fn stats() -> StatsBody {
    StatsBody {
        protocol: service::PROTOCOL_VERSION,
        workers: 2,
        queue_depth: 3,
        submitted: 104,
        completed: 95,
        rejected: 6,
        failed: 7,
        distance_hits: 808,
        distance_misses: 9,
        closure_hits: 110,
        closure_misses: 11,
        weighted_hits: 212,
        weighted_misses: 13,
        subroute_hits: 314,
        subroute_misses: 15,
        plan_exact_hits: 416,
        plan_canonical_hits: 17,
        plan_disk_hits: 18,
        plan_disk_writes: 19,
    }
}

fn metrics() -> MetricsBody {
    MetricsBody {
        stats: stats(),
        queue_p50: 0.0009765625,
        queue_p90: 0.015625,
        queue_p99: 0.25,
        queue_max: 0.75,
        queue_samples: 91,
        passes: vec![
            ("analysis:weights".to_string(), 92, 0.125),
            ("routing:qlosure".to_string(), 93, 2.5),
        ],
        uptime_seconds: 3600.5,
        jobs_inflight: 4,
        events_dropped: 21,
        trace_drops: 22,
    }
}

fn sample(index: u64, base: u64) -> SampleBody {
    SampleBody {
        index,
        uptime_seconds: 100.5 + index as f64,
        submitted: base + 1,
        completed: base + 2,
        failed: base + 3,
        rejected: base + 4,
        queue_depth: base + 5,
        jobs_inflight: base + 6,
        queue_p99: 0.375,
        distance_hits: base + 7,
        distance_misses: base + 8,
        plan_exact_hits: base + 9,
        plan_canonical_hits: base + 10,
        plan_disk_hits: base + 11,
        subroute_hits: base + 12,
        subroute_misses: base + 13,
        events_dropped: base + 14,
        trace_drops: base + 15,
    }
}

fn history() -> HistoryBody {
    HistoryBody {
        sample_seconds: 10.0,
        series: vec![SeriesBody {
            shard: 1,
            samples: vec![sample(40, 100), sample(41, 200)],
            rates: RatesBody {
                window_seconds: 9.5,
                jobs_per_second: 1.25,
                cache_hit_rate: 0.875,
                queue_depth_trend: -2.0,
            },
        }],
    }
}

fn span_tree() -> SpanNode {
    SpanNode {
        name: "job".to_string(),
        start_ns: 0,
        end_ns: 2_000_000,
        notes: vec![("mapper".to_string(), "qlosure".to_string())],
        children: vec![SpanNode {
            name: "hier:fragment".to_string(),
            start_ns: 600_000,
            end_ns: 900_000,
            notes: vec![("plan_tier".to_string(), "canonical".to_string())],
            children: Vec::new(),
        }],
    }
}

fn summary() -> Summary {
    Summary {
        swaps: 12,
        depth: 140,
        qops: 512,
        initial_layout: vec![3, 1, 2, 0],
        final_layout: vec![0, 1, 2, 3],
        fingerprint: "00ff13de00ff13de".to_string(),
        pipeline: "weights → identity → qlosure".to_string(),
        pass_seconds: vec![
            ("analysis:weights".to_string(), 0.125),
            ("routing:qlosure".to_string(), 0.5),
        ],
        seconds: 0.625,
        queue_seconds: 0.0625,
        seq: 8,
        verified: true,
        success_ppm: Some(912_345),
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Submit {
                backend: "aspen16".to_string(),
                mapper: "qlosure".to_string(),
                qasm: "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[2];\n".to_string(),
                priority: Priority::Interactive,
                fidelity: true,
                strategy: Strategy::Hier,
                trace: true,
            },
            r#"{"v":1,"op":"submit","backend":"aspen16","mapper":"qlosure","qasm":"OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[2];\n","priority":"interactive","fidelity":true,"strategy":"hier","trace":true}"#,
        ),
        (Request::Poll { id: 31 }, r#"{"v":1,"op":"poll","id":31}"#),
        (Request::Trace { id: 32 }, r#"{"v":1,"op":"trace","id":32}"#),
        (Request::Stats, r#"{"v":1,"op":"stats"}"#),
        (Request::Metrics, r#"{"v":1,"op":"metrics"}"#),
        (Request::MetricsHistory, r#"{"v":1,"op":"metrics-history"}"#),
        (
            Request::Events {
                min_level: obs::Level::Warn,
                after_seq: 512,
            },
            r#"{"v":1,"op":"events","min_level":"warn","after_seq":512}"#,
        ),
        (Request::Shutdown, r#"{"v":1,"op":"shutdown"}"#),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Submitted { id: 33 },
            r#"{"v":1,"op":"submitted","id":33}"#,
        ),
        (
            Response::Pending {
                id: 34,
                running: true,
            },
            r#"{"v":1,"op":"pending","id":34,"running":true}"#,
        ),
        (
            Response::Done {
                id: 35,
                summary: summary(),
            },
            r#"{"v":1,"op":"done","id":35,"summary":{"swaps":12,"depth":140,"qops":512,"initial_layout":[3,1,2,0],"final_layout":[0,1,2,3],"fingerprint":"00ff13de00ff13de","pipeline":"weights → identity → qlosure","pass_seconds":{"analysis:weights":0.125,"routing:qlosure":0.5},"seconds":0.625,"queue_seconds":0.0625,"seq":8,"verified":true,"success_ppm":912345}}"#,
        ),
        (
            Response::Failed {
                id: 36,
                message: "router exceeded the swap bound".to_string(),
            },
            r#"{"v":1,"op":"failed","id":36,"message":"router exceeded the swap bound"}"#,
        ),
        (
            Response::Stats(stats()),
            r#"{"v":1,"op":"stats","protocol":1,"workers":2,"queue_depth":3,"submitted":104,"completed":95,"rejected":6,"failed":7,"distance_hits":808,"distance_misses":9,"closure_hits":110,"closure_misses":11,"weighted_hits":212,"weighted_misses":13,"subroute_hits":314,"subroute_misses":15,"plan_exact_hits":416,"plan_canonical_hits":17,"plan_disk_hits":18,"plan_disk_writes":19}"#,
        ),
        (
            Response::Metrics(metrics()),
            r#"{"v":1,"op":"metrics","stats":{"protocol":1,"workers":2,"queue_depth":3,"submitted":104,"completed":95,"rejected":6,"failed":7,"distance_hits":808,"distance_misses":9,"closure_hits":110,"closure_misses":11,"weighted_hits":212,"weighted_misses":13,"subroute_hits":314,"subroute_misses":15,"plan_exact_hits":416,"plan_canonical_hits":17,"plan_disk_hits":18,"plan_disk_writes":19},"queue_p50":0.0009765625,"queue_p90":0.015625,"queue_p99":0.25,"queue_max":0.75,"queue_samples":91,"uptime_seconds":3600.5,"jobs_inflight":4,"events_dropped":21,"trace_drops":22,"passes":{"analysis:weights":[92,0.125],"routing:qlosure":[93,2.5]}}"#,
        ),
        (
            Response::MetricsHistory(history()),
            r#"{"v":1,"op":"metrics-history","sample_seconds":10,"series":[{"shard":1,"samples":[{"index":40,"uptime_seconds":140.5,"submitted":101,"completed":102,"failed":103,"rejected":104,"queue_depth":105,"jobs_inflight":106,"queue_p99":0.375,"distance_hits":107,"distance_misses":108,"plan_exact_hits":109,"plan_canonical_hits":110,"plan_disk_hits":111,"subroute_hits":112,"subroute_misses":113,"events_dropped":114,"trace_drops":115},{"index":41,"uptime_seconds":141.5,"submitted":201,"completed":202,"failed":203,"rejected":204,"queue_depth":205,"jobs_inflight":206,"queue_p99":0.375,"distance_hits":207,"distance_misses":208,"plan_exact_hits":209,"plan_canonical_hits":210,"plan_disk_hits":211,"subroute_hits":212,"subroute_misses":213,"events_dropped":214,"trace_drops":215}],"rates":{"window_seconds":9.5,"jobs_per_second":1.25,"cache_hit_rate":0.875,"queue_depth_trend":-2}}]}"#,
        ),
        (
            Response::Events(EventsBody {
                dropped: 37,
                events: vec![EventBody {
                    seq: 41,
                    age_seconds: 12.5,
                    level: obs::Level::Warn,
                    subsystem: "plan-store".to_string(),
                    message: "corrupt record".to_string(),
                    fields: vec![("offset".to_string(), "4096".to_string())],
                }],
            }),
            r#"{"v":1,"op":"events","dropped":37,"events":[{"seq":41,"age_seconds":12.5,"level":"warn","subsystem":"plan-store","message":"corrupt record","fields":{"offset":"4096"}}]}"#,
        ),
        (
            Response::Trace {
                id: 38,
                trace_id: "00ff13de00ff13de".to_string(),
                root: span_tree(),
            },
            r#"{"v":1,"op":"trace","id":38,"trace_id":"00ff13de00ff13de","root":{"name":"job","start_ns":0,"end_ns":2000000,"notes":{"mapper":"qlosure"},"children":[{"name":"hier:fragment","start_ns":600000,"end_ns":900000,"notes":{"plan_tier":"canonical"}}]}}"#,
        ),
        (
            Response::ShuttingDown { pending: 39 },
            r#"{"v":1,"op":"shutting-down","pending":39}"#,
        ),
        (
            Response::Error {
                code: ErrorCode::ShardUnavailable,
                message: "shard 1 is unreachable".to_string(),
            },
            r#"{"v":1,"op":"error","code":"shard-unavailable","message":"shard 1 is unreachable"}"#,
        ),
    ]
}

const RENDER: &str = r#"# HELP qlosure_protocol_version Wire protocol version this daemon speaks.
# TYPE qlosure_protocol_version gauge
qlosure_protocol_version 1
# HELP qlosure_workers Mapping worker threads.
# TYPE qlosure_workers gauge
qlosure_workers 2
# HELP qlosure_queue_depth Jobs waiting in the admission queue.
# TYPE qlosure_queue_depth gauge
qlosure_queue_depth 3
# HELP qlosure_jobs_submitted_total Jobs accepted since startup.
# TYPE qlosure_jobs_submitted_total counter
qlosure_jobs_submitted_total 104
# HELP qlosure_jobs_completed_total Jobs completed successfully since startup.
# TYPE qlosure_jobs_completed_total counter
qlosure_jobs_completed_total 95
# HELP qlosure_jobs_rejected_total Jobs rejected at admission since startup.
# TYPE qlosure_jobs_rejected_total counter
qlosure_jobs_rejected_total 6
# HELP qlosure_jobs_failed_total Jobs that failed while mapping since startup.
# TYPE qlosure_jobs_failed_total counter
qlosure_jobs_failed_total 7
# HELP qlosure_uptime_seconds Seconds since the service started.
# TYPE qlosure_uptime_seconds gauge
qlosure_uptime_seconds 3600.5
# HELP qlosure_jobs_inflight Jobs admitted but not yet finished.
# TYPE qlosure_jobs_inflight gauge
qlosure_jobs_inflight 4
# HELP qlosure_events_dropped_total Journal events evicted from the bounded event ring.
# TYPE qlosure_events_dropped_total counter
qlosure_events_dropped_total 21
# HELP qlosure_trace_drops_total Spans dropped by full per-job trace sinks.
# TYPE qlosure_trace_drops_total counter
qlosure_trace_drops_total 22
# HELP qlosure_cache_hits_total Shared per-device cache hits, by cache.
# TYPE qlosure_cache_hits_total counter
# HELP qlosure_cache_misses_total Shared per-device cache misses, by cache.
# TYPE qlosure_cache_misses_total counter
qlosure_cache_hits_total{cache="distance"} 808
qlosure_cache_misses_total{cache="distance"} 9
qlosure_cache_hits_total{cache="closure"} 110
qlosure_cache_misses_total{cache="closure"} 11
qlosure_cache_hits_total{cache="weighted"} 212
qlosure_cache_misses_total{cache="weighted"} 13
qlosure_cache_hits_total{cache="subroute"} 314
qlosure_cache_misses_total{cache="subroute"} 15
# HELP qlosure_plan_hits_total Fragment plan-store hits, by tier.
# TYPE qlosure_plan_hits_total counter
qlosure_plan_hits_total{tier="exact"} 416
qlosure_plan_hits_total{tier="canonical"} 17
qlosure_plan_hits_total{tier="disk"} 18
# HELP qlosure_plan_disk_writes_total Plans persisted to the disk tier after a fresh compute.
# TYPE qlosure_plan_disk_writes_total counter
qlosure_plan_disk_writes_total 19
# HELP qlosure_queue_seconds Seconds between admission and worker pickup.
# TYPE qlosure_queue_seconds summary
qlosure_queue_seconds{quantile="0.5"} 0.0009765625
qlosure_queue_seconds{quantile="0.9"} 0.015625
qlosure_queue_seconds{quantile="0.99"} 0.25
# HELP qlosure_queue_seconds_max Worst queue delay in the sample window.
# TYPE qlosure_queue_seconds_max gauge
qlosure_queue_seconds_max 0.75
# HELP qlosure_queue_seconds_count Completed jobs the queue percentiles cover.
# TYPE qlosure_queue_seconds_count counter
qlosure_queue_seconds_count 91
# HELP qlosure_pass_runs_total Pipeline pass executions, by pass label.
# TYPE qlosure_pass_runs_total counter
# HELP qlosure_pass_seconds_total Cumulative pipeline pass wall-clock seconds, by pass label.
# TYPE qlosure_pass_seconds_total counter
qlosure_pass_runs_total{pass="analysis:weights"} 92
qlosure_pass_seconds_total{pass="analysis:weights"} 0.125
qlosure_pass_runs_total{pass="routing:qlosure"} 93
qlosure_pass_seconds_total{pass="routing:qlosure"} 2.5
"#;

#[test]
fn every_request_variant_encodes_to_its_golden_frame() {
    for (request, golden) in requests() {
        assert_eq!(encode_request(&request).unwrap(), golden);
        assert_eq!(parse_request(golden).unwrap(), request, "{golden}");
    }
}

#[test]
fn every_response_variant_encodes_to_its_golden_frame() {
    for (response, golden) in responses() {
        assert_eq!(encode_response(&response).unwrap(), golden);
        assert_eq!(parse_response(golden).unwrap(), response, "{golden}");
    }
}

#[test]
fn metrics_render_matches_its_golden_text() {
    let text = metrics().render();
    for (line, (got, want)) in text.lines().zip(RENDER.lines()).enumerate() {
        assert_eq!(got, want, "render line {}", line + 1);
    }
    assert_eq!(text, RENDER);
    // With no passes recorded the pass families still announce
    // themselves, so a scraper sees them from the first scrape.
    let idle = MetricsBody {
        passes: Vec::new(),
        ..metrics()
    }
    .render();
    let cut = RENDER.find("qlosure_pass_runs_total{").unwrap();
    assert_eq!(idle, RENDER[..cut]);
}
