//! Per-layer numbers, read from a finished run's `SimReport`: the metrics
//! registry, the retained causal DAG and the host profile. Every name is
//! emitted for every workload (zero where a layer is bypassed), so the
//! traced output always has the same shape.

use ps2::simnet::metrics::MetricsSnapshot;
use ps2::simnet::{CausalAnalysis, HostProfile, SimReport};

use crate::stats::hist_quantile_ns;
use crate::Metric;

/// Registry-derived numbers of the dataflow, PS client, PS server and
/// consistency layers.
pub fn registry(m: &MetricsSnapshot, out: &mut Vec<Metric>) {
    let us = |name: &str, q: f64| hist_quantile_ns(m.hist(name), q) / 1e3;
    let c = |name: &str| m.counter(name) as f64;

    // dataflow: zero on the Spark-free workloads (the bypass case).
    out.push(Metric::sim(
        "dataflow.tasks",
        c("spark.tasks_dispatched"),
        "count",
    ));
    out.push(Metric::sim("dataflow.jobs", c("spark.jobs"), "count"));
    out.push(Metric::sim(
        "dataflow.envelopes",
        c("spark.fabric.envelopes"),
        "count",
    ));
    out.push(Metric::sim(
        "dataflow.retries",
        c("spark.task_retries") + c("spark.task_redispatches"),
        "count",
    ));
    out.push(Metric::sim(
        "dataflow.task_p50_us",
        us("spark.task.latency", 0.5),
        "us",
    ));
    out.push(Metric::sim(
        "dataflow.task_p99_us",
        us("spark.task.latency", 0.99),
        "us",
    ));
    out.push(Metric::sim(
        "dataflow.job_p50_us",
        us("spark.job.latency", 0.5),
        "us",
    ));

    // PS client and fabric.
    for op in ["pull", "push"] {
        let key = |s: &str| format!("ps.client.op.{op}.{s}");
        out.push(Metric::sim(
            &format!("ps.client.{op}.count"),
            c(&key("count")),
            "count",
        ));
        out.push(Metric::sim(
            &format!("ps.client.{op}.reqs"),
            c(&key("reqs")),
            "count",
        ));
        out.push(Metric::sim(
            &format!("ps.client.{op}.bytes"),
            c(&key("bytes")),
            "bytes",
        ));
        out.push(Metric::sim(
            &format!("ps.client.{op}.p50_us"),
            us(&key("latency"), 0.5),
            "us",
        ));
        out.push(Metric::sim(
            &format!("ps.client.{op}.p999_us"),
            us(&key("latency"), 0.999),
            "us",
        ));
    }
    out.push(Metric::sim(
        "ps.client.envelope.count",
        c("ps.client.op.envelope.count"),
        "count",
    ));
    out.push(Metric::sim(
        "ps.client.envelope.p999_us",
        us("ps.client.op.envelope.latency", 0.999),
        "us",
    ));
    out.push(Metric::sim(
        "ps.client.push_async.p50_us",
        us("ps.client.op.push_async.latency", 0.5),
        "us",
    ));
    out.push(Metric::sim(
        "ps.client.timeouts",
        c("ps.client.timeouts"),
        "count",
    ));
    out.push(Metric::sim(
        "ps.client.retries",
        c("ps.client.retries"),
        "count",
    ));
    out.push(Metric::sim(
        "ps.client.reresolutions",
        c("ps.client.reresolutions"),
        "count",
    ));

    // PS server.
    for op in ["pull", "push"] {
        out.push(Metric::sim(
            &format!("ps.server.{op}.queue_p99_us"),
            us(&format!("ps.server.{op}.queue"), 0.99),
            "us",
        ));
        out.push(Metric::sim(
            &format!("ps.server.{op}.service_p50_us"),
            us(&format!("ps.server.{op}.service"), 0.5),
            "us",
        ));
    }
    out.push(Metric::sim(
        "ps.server.envelope.service_p50_us",
        us("ps.server.envelope.service", 0.5),
        "us",
    ));
    out.push(Metric::sim(
        "ps.server.load_max_over_mean",
        load_max_over_mean(m),
        "ratio",
    ));

    // Consistency layer: zero unless the ParamCache and clock service run.
    let hits = c("ps.cache.hit");
    let reads = hits + c("ps.cache.miss");
    out.push(Metric::sim(
        "ps.cache.hit_ratio",
        if reads > 0.0 { hits / reads } else { 0.0 },
        "ratio",
    ));
    out.push(Metric::sim(
        "ps.clock.envelopes",
        c("ps.clock.envelopes"),
        "count",
    ));
    out.push(Metric::sim(
        "ps.clock.wait_p50_us",
        us("ps.clock.op.wait.latency", 0.5),
        "us",
    ));
    out.push(Metric::sim(
        "ps.clock.wait_p99_us",
        us("ps.clock.op.wait.latency", 0.99),
        "us",
    ));
}

/// Requests served by the busiest PS server over the mean across servers,
/// from the per-server `ps.server.p<id>.served` counters.
fn load_max_over_mean(m: &MetricsSnapshot) -> f64 {
    let served: Vec<f64> = m
        .counters()
        .filter(|(k, _)| k.starts_with("ps.server.p") && k.ends_with(".served"))
        .map(|(_, v)| v as f64)
        .collect();
    if served.is_empty() {
        return 0.0;
    }
    let mean = served.iter().sum::<f64>() / served.len() as f64;
    let max = served.iter().cloned().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Critical-path shares of the makespan from the retained causal DAG
/// (needs a run built with `trace(true)`).
pub fn path(report: &SimReport, out: &mut Vec<Metric>) {
    let shares = match CausalAnalysis::from_report(report) {
        Ok(a) => {
            let total = a.category_total_ns().max(1) as f64;
            a.categories().map(|(name, ns)| (name, ns as f64 / total))
        }
        Err(_) => ["compute", "network", "queue", "idle"].map(|n| (n, 0.0)),
    };
    for (name, share) in shares {
        out.push(Metric::sim(
            &format!("simnet.path.{name}_share"),
            share,
            "share",
        ));
    }
}

/// Host time per scope from `simnet::hostprof` (self time, so nested scopes
/// are not double counted).
pub fn hostprof(profile: Option<&HostProfile>, out: &mut Vec<Metric>) {
    let scope = |name: &str| {
        profile
            .and_then(|p| p.scopes.iter().find(|s| s.name == name))
            .cloned()
    };
    let self_ms = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| scope(n))
            .map(|s| s.self_ns as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    };
    let (allocs, alloc_bytes) = profile.map_or((0, 0), |p| {
        p.scopes
            .iter()
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes))
    });
    out.push(Metric::host(
        "simnet.host.dispatch_ms",
        self_ms(&["sched.dispatch"]),
        "ms",
    ));
    out.push(Metric::host(
        "simnet.host.park_calls",
        scope("sched.park").map_or(0.0, |s| s.calls as f64),
        "count",
    ));
    out.push(Metric::host(
        "simnet.host.send_self_ms",
        self_ms(&["sched.send"]),
        "ms",
    ));
    out.push(Metric::host(
        "simnet.host.recv_self_ms",
        self_ms(&["sched.recv"]),
        "ms",
    ));
    out.push(Metric::host(
        "simnet.host.step_ms",
        self_ms(&["sched.step"]),
        "ms",
    ));
    out.push(Metric::host(
        "simnet.host.codec_ms",
        self_ms(&["codec.encode", "codec.decode"]),
        "ms",
    ));
    out.push(Metric::host(
        "simnet.host.metrics_ms",
        self_ms(&["metrics.record"]),
        "ms",
    ));
    out.push(Metric::host("simnet.host.allocs", allocs as f64, "count"));
    out.push(Metric::host(
        "simnet.host.alloc_mb",
        alloc_bytes as f64 / (1 << 20) as f64,
        "MB",
    ));
}
