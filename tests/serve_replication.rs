//! Hot-row replication on the serving path, end to end through
//! `ml::serve::run_serve`: skewed traffic promotes a bounded set of rows and
//! evens out server load, uniform traffic promotes nothing, and the whole
//! mechanism keeps runs deterministic and tracing-neutral.

use ps2::ml::serve::{run_serve, serve_spec, ServeSpec, ServeSummary};
use ps2::simnet::{SimBuilder, SimReport, SimTime, TraceEvent};

/// `serve-kdd12`'s shape (table, fleet, population, skew) over a shorter
/// generation window.
fn kdd12(duration_ms: u64) -> ServeSpec {
    let mut spec = serve_spec("serve-kdd12").expect("serve-kdd12 is a preset");
    spec.duration = SimTime::from_millis(duration_ms);
    spec
}

/// Per-server `ps.server.p{id}.served` counters, in fleet order.
fn served(report: &SimReport, spec: &ServeSpec) -> Vec<u64> {
    (0..spec.servers)
        .map(|i| {
            let id = report
                .procs
                .iter()
                .position(|p| p.name == format!("ps-server-{i}"))
                .expect("server proc");
            report.metrics.counter(&format!("ps.server.p{id}.served"))
        })
        .collect()
}

#[test]
fn uniform_traffic_promotes_nothing() {
    let mut spec = kdd12(20);
    spec.zipf_fraction = 0.0;
    let (summary, report) = run_serve(SimBuilder::new().seed(3), &spec);
    assert_eq!(summary.completed, summary.issued);
    assert_eq!(summary.promoted, 0);
    assert_eq!(summary.replica_reads, 0);
    assert_eq!(summary.first_promotion_ns, None);
    // No install traffic: one CREATE round trip per server, then exactly
    // one request and one reply per pull.
    let creates = 2 * spec.servers as u64;
    assert_eq!(report.total_msgs, creates + 2 * summary.issued);
}

#[test]
fn skewed_traffic_promotes_at_most_n_rows_per_server_and_evens_load() {
    let spec = kdd12(40);
    let n = spec.servers;
    let (summary, report) = run_serve(SimBuilder::new().seed(1).trace(true), &spec);
    assert_eq!(summary.completed, summary.issued);
    assert_eq!(summary.replica_misses, 0);
    assert!(summary.promoted >= 1, "the Zipf head must be promoted");
    // Count promotions per server from the timeline marks.
    let label = report
        .labels
        .iter()
        .position(|l| *l == "ps.server.replica.promote")
        .expect("promotion marks");
    let mut per_proc = vec![0u64; report.procs.len()];
    for e in &report.trace {
        if let TraceEvent::Mark { proc, label: l, .. } = e {
            if l.0 as usize == label {
                per_proc[proc.0] += 1;
            }
        }
    }
    assert_eq!(per_proc.iter().sum::<u64>(), summary.promoted);
    assert!(
        per_proc.iter().all(|&c| c <= n as u64),
        "a server promoted more than n rows: {per_proc:?}"
    );
    let load = served(&report, &spec);
    let mean = load.iter().sum::<u64>() as f64 / n as f64;
    let max = *load.iter().max().unwrap() as f64;
    assert!(
        max / mean <= 1.15,
        "served load max/mean {:.3}: {load:?}",
        max / mean
    );
    let first = summary.first_promotion_ns.expect("promoted");
    assert!(
        first <= 500_000,
        "first promotion {first} ns after the first pull"
    );
}

/// Small and skewed, so replication is exercised within a few thousand
/// pulls.
fn small_skewed(builder: SimBuilder) -> (ServeSummary, SimReport) {
    let mut spec = kdd12(20);
    spec.rows = 2_000;
    spec.servers = 4;
    spec.agents = 2;
    spec.users_per_agent = 200;
    spec.user_period = SimTime::from_millis(1);
    run_serve(builder, &spec)
}

fn assert_same_run(a: &SimReport, b: &SimReport) {
    assert_eq!(a.virtual_time, b.virtual_time);
    assert_eq!(a.total_msgs, b.total_msgs);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.procs, b.procs);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn replicated_serving_is_deterministic_and_tracing_neutral() {
    let (summary, plain) = small_skewed(SimBuilder::new().seed(5));
    assert!(summary.promoted > 0 && summary.replica_reads > 0);
    let (_, again) = small_skewed(SimBuilder::new().seed(5));
    assert_same_run(&plain, &again);
    let (_, traced) = small_skewed(
        SimBuilder::new()
            .seed(5)
            .trace(true)
            .reqtrace(true)
            .timeseries(SimTime::from_millis(1)),
    );
    assert_same_run(&plain, &traced);
}
