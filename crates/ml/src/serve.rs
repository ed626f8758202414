//! # Serving scenarios — heavy pull traffic against a trained PS fleet
//!
//! The paper motivates PS2 with *serving* scale ("millions of users" of
//! Tencent's production models, §1) as much as with training. This module is
//! that workload: a pre-trained model table lives row-partitioned across a
//! PS fleet of steppable server agents, and a population of **tens of
//! thousands of simulated endpoints** — aggregate open-loop
//! [`ServeClientAgent`]s, each standing in for a thousand users — drives
//! pull traffic with NuPS-style Zipf row skew. The scenario reports pull
//! tail latency (p99/p999 from the run's log2 histograms) and plugs into the
//! same SLO/watchdog stack as training presets.
//!
//! None of the serving procs holds an OS thread (the one thread proc is the
//! coordinator that loads the model and spawns the population), which is
//! what lets a default dev machine step 10k+ endpoints.

use std::sync::Arc;

use ps2_ps::{
    create_serve_table, InitKind, MatrixId, PartitionPlan, Partitioning, PsServerAgent,
    ServeClientAgent, ServeClientConfig,
};
use ps2_simnet::{SimBuilder, SimReport, SimTime};

/// Geometry and load of one serving scenario.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Rows in the served table (embedding-style: one vector per entity).
    pub rows: u32,
    /// Columns per row (the pulled vector's width).
    pub dim: u64,
    pub servers: usize,
    /// Aggregate client agents; endpoints = `agents × users_per_agent`.
    pub agents: usize,
    pub users_per_agent: u32,
    /// Per-user think time: each user pulls once per `user_period`.
    pub user_period: SimTime,
    /// Generation window; agents then drain outstanding pulls and finish.
    pub duration: SimTime,
    /// Probability a pull is Zipf-skewed (vs uniform) and the exponent.
    pub zipf_fraction: f64,
    pub zipf_exponent: f64,
}

impl ServeSpec {
    pub fn endpoints(&self) -> u64 {
        self.agents as u64 * self.users_per_agent as u64
    }

    /// Aggregate offered load in pulls per virtual second.
    pub fn offered_rate(&self) -> f64 {
        self.endpoints() as f64 / self.user_period.as_secs_f64()
    }
}

/// Names accepted by `--preset serve-*`, in the order usage text lists them.
pub const SERVE_PRESETS: &[&str] = &["serve-kddb", "serve-kdd12"];

/// The serving counterpart of the training presets: same model family names,
/// serving-shaped tables. `serve-kddb` is a 10k-endpoint moderate-skew
/// scenario; `serve-kdd12` is wider (20k endpoints) with heavier skew, the
/// NuPS-style stress case.
pub fn serve_spec(preset: &str) -> Option<ServeSpec> {
    match preset {
        "serve-kddb" => Some(ServeSpec {
            name: "serve-kddb",
            rows: 100_000,
            dim: 64,
            servers: 8,
            agents: 10,
            users_per_agent: 1000,
            user_period: SimTime::from_millis(20),
            duration: SimTime::from_millis(400),
            zipf_fraction: 0.5,
            zipf_exponent: 1.0,
        }),
        "serve-kdd12" => Some(ServeSpec {
            name: "serve-kdd12",
            rows: 200_000,
            dim: 32,
            servers: 8,
            agents: 20,
            users_per_agent: 1000,
            user_period: SimTime::from_millis(25),
            duration: SimTime::from_millis(400),
            zipf_fraction: 0.8,
            zipf_exponent: 1.2,
        }),
        _ => None,
    }
}

/// What a serving run measured, distilled from the run report's metrics.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    pub endpoints: u64,
    /// Pulls issued (requests on the wire) and completed (replies gathered).
    pub issued: u64,
    pub completed: u64,
    pub virtual_ns: u64,
    /// Pull-latency tail, nanoseconds of virtual time.
    pub p99_ns: u64,
    pub p999_ns: u64,
    /// Hot rows the servers promoted to every-server replicas.
    pub promoted: u64,
    /// Pulls the clients routed to a replica instead of the owner, and
    /// those a replica answered with a miss (re-sent to the owner).
    pub replica_reads: u64,
    pub replica_misses: u64,
    /// Virtual time from the first scheduled pull to the first promotion.
    pub first_promotion_ns: Option<u64>,
}

/// Run one serving scenario: spawn the fleet as steppable daemon agents,
/// load the "trained" table (a deterministic [`InitKind::Uniform`] snapshot
/// standing in for a training checkpoint), then release the client
/// population. Returns the distilled summary plus the full report for SLO
/// evaluation and trace export.
pub fn run_serve(builder: SimBuilder, spec: &ServeSpec) -> (ServeSummary, SimReport) {
    let mut sim = builder.build();
    let servers: Vec<_> = (0..spec.servers)
        .map(|i| sim.spawn_agent_daemon(&format!("ps-server-{i}"), PsServerAgent::new()))
        .collect();
    let plan = Arc::new(PartitionPlan::new(
        spec.dim,
        spec.rows,
        spec.servers,
        Partitioning::Row,
    ));
    let matrix = MatrixId(1);
    let spec_c = spec.clone();
    // The coordinator returns the clock it released the population at:
    // every agent's arrival 0 is scheduled at that instant.
    let release = sim.spawn_collect("serve-coordinator", move |ctx| {
        // "Load the trained model": one idempotent CREATE per server with a
        // deterministic snapshot, the checkpoint stand-in.
        let init = InitKind::Uniform {
            lo: -0.5,
            hi: 0.5,
            seed: 42,
        };
        create_serve_table(ctx, &servers, matrix, &plan, init);
        // Release the population at the coordinator's post-load clock so the
        // open-loop schedules start only once the table is servable.
        for a in 0..spec_c.agents {
            let cfg = ServeClientConfig {
                servers: servers.clone(),
                matrix,
                plan: Arc::clone(&plan),
                users: spec_c.users_per_agent,
                user_period: spec_c.user_period,
                duration: spec_c.duration,
                zipf_fraction: spec_c.zipf_fraction,
                zipf_exponent: spec_c.zipf_exponent,
                value_bytes: 8,
            };
            ctx.spawn_agent(&format!("serve-clients-{a}"), ServeClientAgent::new(cfg));
        }
        ctx.now()
    });
    let report = sim.run().expect("serve simulation failed");
    let release = release.take();
    let issued = report.metrics.counter("ps.client.envelopes");
    let completed = report.metrics.counter("ps.client.op.pull.count");
    let (p99_ns, p999_ns) = report
        .metrics
        .hist("ps.client.op.pull.latency")
        .map(|h| (h.quantile_ns(0.99), h.quantile_ns(0.999)))
        .unwrap_or((0, 0));
    let summary = ServeSummary {
        endpoints: spec.endpoints(),
        issued,
        completed,
        virtual_ns: report.virtual_time.as_nanos(),
        p99_ns,
        p999_ns,
        promoted: report.metrics.counter("ps.server.replica.promoted"),
        replica_reads: report.metrics.counter("ps.client.replica_reads"),
        replica_misses: report.metrics.counter("ps.client.replica_misses"),
        first_promotion_ns: report
            .metrics
            .hist("ps.server.replica.promote_at")
            .map(|h| h.min_ns().saturating_sub(release.as_nanos())),
    };
    (summary, report)
}
