//! # Serving-workload agents — aggregate open-loop pull clients
//!
//! The paper's premise is a parameter server absorbing traffic from
//! *millions of users*; a thread-per-proc simulation tops out at hundreds of
//! endpoints. This module models serving scale the way real load generators
//! do: one steppable [`ServeClientAgent`] (no OS thread, stepped inline by
//! the scheduler) stands in for **thousands of users**, each with its own
//! per-user issue/completion state and an exact open-loop schedule.
//!
//! *Open loop* means arrival times are fixed by the configured rate, not by
//! reply progress — a slow fleet faces a growing backlog instead of a
//! conveniently self-throttling one, which is what makes tail latency under
//! load honest. User `u` of `users` issues its `k`-th pull at exactly
//! `(u·period)/users + k·period`, so the aggregate stream is a uniform
//! interleaving at `users/period` requests per second and every user's
//! interarrival is exactly `period`.
//!
//! Row selection models NuPS-style skew: with probability
//! [`ServeClientConfig::zipf_fraction`] the row is drawn from a Zipf
//! distribution over all rows (rank-`r` mass ∝ `1/r^s`), otherwise
//! uniformly. Metrics land under the same `ps.client.*` names the training
//! fabric uses (`ps.client.op.pull.latency` etc.), so the existing SLO
//! objectives, watchdog burn-rate alerts, and report tables work unchanged.
//!
//! **Replica routing.** The servers replicate read-hot rows to every peer
//! ([`crate::replica`]) and flag the owner's pull replies for those rows
//! `Replicated`. An agent remembers flagged rows and sends later reads of
//! them to `servers[(owner + h) % n]`, where `h` hashes (agent id, arrival
//! index): every agent shares one schedule phase, so routing by arrival
//! index alone would aim the whole population's synchronized bursts at one
//! server. A replica that lacks the row answers a miss; the agent re-sends
//! to the owner, forgets the hint and counts `ps.client.replica_misses`.
//! The re-send is the same logical pull: it bumps neither
//! `ps.client.envelopes` nor the pull count, and carries no request-trace
//! token (the trace closes at the miss reply).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ps2_simnet::{Envelope, Proc, ProcId, SimCtx, SimTime, StepCtx};
use rand::rngs::StdRng;
use rand::Rng;

use crate::plan::{MatrixId, PartitionPlan, PlanKind};
use crate::protocol::{tags, ColsSel, CreateReq, InitKind, PullReq, ReplicaFlag, RowPullReply};
use crate::server::mix64;

/// Request-header wire bytes, matching the training client's accounting.
const HDR: u64 = 48;

/// Everything one aggregate client agent needs to drive its users.
#[derive(Clone)]
pub struct ServeClientConfig {
    /// The PS fleet, indexed by slot (`plan.row_owner` routes into this).
    pub servers: Vec<ProcId>,
    /// The served (pre-trained) model table.
    pub matrix: MatrixId,
    pub plan: Arc<PartitionPlan>,
    /// Simulated users this one agent stands in for.
    pub users: u32,
    /// Per-user think time: each user issues one pull every `user_period`.
    pub user_period: SimTime,
    /// How long the generator issues new arrivals; the agent then drains
    /// outstanding replies and finishes.
    pub duration: SimTime,
    /// Probability in `[0, 1]` that a pull targets a Zipf-skewed row.
    pub zipf_fraction: f64,
    /// Zipf exponent `s` (rank-`r` mass ∝ `1/r^s`).
    pub zipf_exponent: f64,
    /// Bytes per value on the wire (8, or 4 with compression).
    pub value_bytes: u64,
}

impl ServeClientConfig {
    /// Total arrivals this agent will issue: every `i` with
    /// `(i·period)/users < duration` — exactly `users · duration/period`
    /// when `duration` is a whole number of periods.
    pub fn total_arrivals(&self) -> u64 {
        self.duration.as_nanos() * self.users as u64 / self.user_period.as_nanos()
    }
}

/// Per-user serving state (the "closed bookkeeping" of an open-loop user:
/// issues are scheduled, completions are counted).
struct UserState {
    issued: u32,
    completed: u32,
}

/// One in-flight pull, keyed by correlation id.
struct InFlight {
    user: u32,
    row: u32,
    /// The arrival's scheduled time: latency includes any generator delay.
    issued_at: SimTime,
    req_bytes: u64,
}

/// An aggregate open-loop client: one steppable agent modeling
/// [`ServeClientConfig::users`] users. Spawn with
/// [`ps2_simnet::SimCtx::spawn_agent`] (non-daemon: the agent finishes —
/// and lets the simulation end — once the duration has elapsed and every
/// outstanding reply drained).
pub struct ServeClientAgent {
    cfg: ServeClientConfig,
    /// Cumulative Zipf mass per rank; binary-searched per skewed pull.
    zipf_cdf: Vec<f64>,
    users: Vec<UserState>,
    /// Spawn clock, the origin of the arrival schedule (set in `on_start`).
    start: SimTime,
    /// Next arrival index `i` (time `(i·period)/users`, user `i % users`).
    next_arrival: u64,
    total_arrivals: u64,
    outstanding: HashMap<u64, InFlight>,
    completed: u64,
    /// Rows the owner flagged `Replicated`: readable on every server.
    hinted: HashSet<u32>,
    /// This agent's routing salt (a hash of its proc id, set in `on_start`).
    salt: u64,
}

impl ServeClientAgent {
    pub fn new(cfg: ServeClientConfig) -> ServeClientAgent {
        assert!(
            matches!(cfg.plan.kind, PlanKind::Row { .. }),
            "serving pulls whole rows; build the table with Partitioning::Row"
        );
        assert!((0.0..=1.0).contains(&cfg.zipf_fraction));
        assert!(cfg.users > 0, "an aggregate client needs at least one user");
        let rows = cfg.plan.rows as usize;
        let mut zipf_cdf = Vec::with_capacity(rows);
        let mut acc = 0.0f64;
        for r in 0..rows {
            acc += 1.0 / ((r + 1) as f64).powf(cfg.zipf_exponent);
            zipf_cdf.push(acc);
        }
        let users = (0..cfg.users)
            .map(|_| UserState {
                issued: 0,
                completed: 0,
            })
            .collect();
        let total_arrivals = cfg.total_arrivals();
        ServeClientAgent {
            cfg,
            zipf_cdf,
            users,
            start: SimTime::ZERO,
            next_arrival: 0,
            total_arrivals,
            outstanding: HashMap::new(),
            completed: 0,
            hinted: HashSet::new(),
            salt: 0,
        }
    }

    /// Virtual time of arrival `i`, relative to the agent's spawn clock.
    fn arrival_offset(&self, i: u64) -> SimTime {
        SimTime(i * self.cfg.user_period.as_nanos() / self.cfg.users as u64)
    }

    fn pick_row(&self, rng: &mut StdRng) -> u32 {
        let rows = self.cfg.plan.rows;
        if rng.gen::<f64>() < self.cfg.zipf_fraction {
            let total = *self.zipf_cdf.last().expect("at least one row");
            let x = rng.gen::<f64>() * total;
            self.zipf_cdf
                .partition_point(|&c| c < x)
                .min(rows as usize - 1) as u32
        } else {
            rng.gen_range(0..rows)
        }
    }

    fn pull_req(&self, row: u32) -> PullReq {
        PullReq {
            id: self.cfg.matrix,
            row,
            cols: ColsSel::All,
            value_bytes: self.cfg.value_bytes,
        }
    }

    /// Server slot for arrival `i` reading `row`: the owner, or — for a
    /// row the owner flagged replicated — `(owner + h) % n` with `h` a hash
    /// of (agent, arrival). The row RNG is left untouched, so the rows a
    /// run reads do not depend on routing.
    fn route(&self, row: u32, i: u64) -> usize {
        let owner = self.cfg.plan.row_owner(row);
        if !self.hinted.contains(&row) {
            return owner;
        }
        let n = self.cfg.servers.len();
        (owner + (mix64(self.salt ^ i) % n as u64) as usize) % n
    }

    fn issue_due(&mut self, ctx: &mut StepCtx<'_>) {
        let now = ctx.now();
        while self.next_arrival < self.total_arrivals
            && self.start + self.arrival_offset(self.next_arrival) <= now
        {
            let i = self.next_arrival;
            self.next_arrival += 1;
            let user = (i % self.cfg.users as u64) as u32;
            let row = self.pick_row(ctx.rng());
            let slot = self.route(row, i);
            if slot != self.cfg.plan.row_owner(row) {
                ctx.metric_add("ps.client.replica_reads", 1);
            }
            let token = ctx.req_begin_batch("pull", 1).first().copied();
            ctx.metric_add("ps.client.envelopes", 1);
            let req = self.pull_req(row);
            let corr = ctx.send_request_traced(self.cfg.servers[slot], tags::PULL, req, HDR, token);
            self.users[user as usize].issued += 1;
            self.outstanding.insert(
                corr,
                InFlight {
                    user,
                    row,
                    issued_at: self.start + self.arrival_offset(i),
                    req_bytes: HDR,
                },
            );
        }
        if self.next_arrival < self.total_arrivals {
            // Measured from the clock after this step's sends (each costs
            // the per-message overhead), so the timer fires exactly at the
            // next arrival's scheduled time.
            let next_at = self.start + self.arrival_offset(self.next_arrival);
            ctx.set_timer(next_at.saturating_sub(ctx.now()));
        }
    }

    fn maybe_finish(&mut self, ctx: &mut StepCtx<'_>) {
        if self.next_arrival >= self.total_arrivals && self.outstanding.is_empty() {
            debug_assert_eq!(self.completed, self.total_arrivals);
            ctx.finish();
        }
    }
}

impl Proc for ServeClientAgent {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        // Remember our spawn clock as the schedule origin by anchoring
        // arrival 0 now; all offsets are relative to this instant.
        self.start = ctx.now();
        self.salt = mix64(ctx.id().0 as u64);
        if self.total_arrivals == 0 {
            ctx.finish();
            return;
        }
        self.issue_due(ctx);
        self.maybe_finish(ctx);
    }

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        self.issue_due(ctx);
        self.maybe_finish(ctx);
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if !env.is_reply() {
            return;
        }
        let Some(mut inf) = self.outstanding.remove(&env.corr) else {
            return;
        };
        match env.downcast_ref::<RowPullReply>().flag {
            ReplicaFlag::Miss => {
                // The replica does not hold the row: ask the owner, which
                // always does. Same logical pull, so no envelope or pull
                // count and no new trace token.
                self.hinted.remove(&inf.row);
                ctx.metric_add("ps.client.replica_misses", 1);
                inf.req_bytes += env.bytes + HDR;
                let owner = self.cfg.servers[self.cfg.plan.row_owner(inf.row)];
                let req = self.pull_req(inf.row);
                let corr = ctx.send_request_traced(owner, tags::PULL, req, HDR, None);
                self.outstanding.insert(corr, inf);
                return;
            }
            ReplicaFlag::Replicated => {
                self.hinted.insert(inf.row);
            }
            ReplicaFlag::Owned => {}
        }
        self.completed += 1;
        self.users[inf.user as usize].completed += 1;
        ctx.metric_add("ps.client.op.pull.count", 1);
        ctx.metric_add("ps.client.op.pull.reqs", 1);
        ctx.metric_add("ps.client.op.pull.bytes", inf.req_bytes + env.bytes);
        ctx.metric_add("ps.client.op.pull.rows", 1);
        ctx.metric_observe("ps.client.op.pull.latency", ctx.now() - inf.issued_at);
        self.maybe_finish(ctx);
    }
}

/// Load the served model into the PS fleet: one idempotent CREATE per
/// server, issued from a thread proc (the serve coordinator). `init` is the
/// checkpoint stand-in — [`InitKind::Uniform`] gives a deterministic
/// "trained" table without running a training job first.
pub fn create_serve_table(
    ctx: &mut SimCtx,
    servers: &[ProcId],
    id: MatrixId,
    plan: &Arc<PartitionPlan>,
    init: InitKind,
) {
    let fleet = Arc::new(servers.to_vec());
    for (slot, &server) in servers.iter().enumerate() {
        let req = CreateReq {
            id,
            plan: Arc::clone(plan),
            init: init.clone(),
            slot,
            fleet: Arc::clone(&fleet),
        };
        ctx.call(server, tags::CREATE, req, 96);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::server::PsServerAgent;
    use ps2_simnet::{NetConfig, SimBuilder, TraceEvent};

    fn run_serve_window(users: u32, period_ms: u64, duration_ms: u64) -> ps2_simnet::SimReport {
        let mut sim = SimBuilder::new().seed(7).build();
        let servers: Vec<_> = (0..4)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-{i}"), PsServerAgent::new()))
            .collect();
        let plan = Arc::new(PartitionPlan::new(16, 512, 4, Partitioning::Row));
        let id = MatrixId(9);
        sim.spawn("coord", move |ctx| {
            create_serve_table(ctx, &servers, id, &plan, InitKind::Zero);
            let cfg = ServeClientConfig {
                servers,
                matrix: id,
                plan,
                users,
                user_period: SimTime::from_millis(period_ms),
                duration: SimTime::from_millis(duration_ms),
                zipf_fraction: 0.5,
                zipf_exponent: 1.0,
                value_bytes: 8,
            };
            ctx.spawn_agent("clients", ServeClientAgent::new(cfg));
        });
        sim.run().expect("serve test sim failed")
    }

    /// One aggregate agent with N=1000 users at 1 pull / 10 ms / user over a
    /// 100 ms window issues *exactly* the configured open-loop rate:
    /// 1000 × 10 = 10,000 pulls — no more, no fewer — and drains them all.
    #[test]
    fn aggregate_agent_issues_exact_open_loop_rate() {
        let report = run_serve_window(1000, 10, 100);
        assert_eq!(report.metrics.counter("ps.client.envelopes"), 10_000);
        assert_eq!(report.metrics.counter("ps.client.op.pull.count"), 10_000);
        let lat = report
            .metrics
            .hist("ps.client.op.pull.latency")
            .expect("pull latency histogram");
        assert_eq!(lat.count(), 10_000);
    }

    /// A window that is not a whole number of periods floors: 1000 users at
    /// 10 ms over 25 ms → arrivals strictly before 25 ms → 2500 pulls.
    #[test]
    fn partial_window_floors_arrival_count() {
        let report = run_serve_window(1000, 10, 25);
        assert_eq!(report.metrics.counter("ps.client.envelopes"), 2_500);
        assert_eq!(report.metrics.counter("ps.client.op.pull.count"), 2_500);
    }

    /// Open-loop honesty: arrival `i` goes on the wire at exactly
    /// `start + arrival_offset(i)` — the timer for the next arrival must not
    /// inherit the per-message overhead of the sends before it.
    #[test]
    fn every_arrival_is_issued_on_schedule() {
        let (users, period_ms, duration_ms) = (100u32, 1u64, 5u64);
        let mut sim = SimBuilder::new().seed(7).trace(true).build();
        let servers: Vec<_> = (0..4)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-{i}"), PsServerAgent::new()))
            .collect();
        let plan = Arc::new(PartitionPlan::new(16, 512, 4, Partitioning::Row));
        let id = MatrixId(9);
        sim.spawn("coord", move |ctx| {
            create_serve_table(ctx, &servers, id, &plan, InitKind::Zero);
            let cfg = ServeClientConfig {
                servers,
                matrix: id,
                plan,
                users,
                user_period: SimTime::from_millis(period_ms),
                duration: SimTime::from_millis(duration_ms),
                zipf_fraction: 0.5,
                zipf_exponent: 1.0,
                value_bytes: 8,
            };
            ctx.spawn_agent("clients", ServeClientAgent::new(cfg));
        });
        let report = sim.run().unwrap();
        let client = report
            .procs
            .iter()
            .position(|p| p.name == "clients")
            .expect("client agent");
        let overhead = NetConfig::default().per_msg_overhead;
        // A send's trace time is after its own overhead.
        let issued: Vec<SimTime> = report
            .trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send { at, src, tag, .. } if src.0 == client && tag == tags::PULL => {
                    Some(at - overhead)
                }
                _ => None,
            })
            .collect();
        let arrivals = users as u64 * duration_ms / period_ms;
        assert_eq!(issued.len() as u64, arrivals);
        let start = issued[0];
        let gap_ns = period_ms * 1_000_000 / users as u64;
        for (i, &t) in issued.iter().enumerate() {
            assert_eq!(
                t,
                start + SimTime(i as u64 * gap_ns),
                "arrival {i} issued late"
            );
        }
    }

    /// A server that acks replica installs without keeping them: every
    /// read a hinted client routes to it misses.
    struct ForgetfulServer(PsServerAgent);

    impl Proc for ForgetfulServer {
        fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
            if env.tag == tags::REPLICA && !env.is_reply() {
                ctx.reply(&env, (), 8);
                return;
            }
            self.0.on_message(ctx, env);
        }
    }

    /// Replica misses fall back to the owner: every scheduled pull still
    /// completes exactly once, and the re-sends count neither as issued
    /// envelopes nor as extra pulls.
    #[test]
    fn replica_miss_falls_back_to_the_owner() {
        let mut sim = SimBuilder::new().seed(7).build();
        let mut servers: Vec<_> = (0..3)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-{i}"), PsServerAgent::new()))
            .collect();
        servers.push(sim.spawn_agent_daemon("ps-3", ForgetfulServer(PsServerAgent::new())));
        let plan = Arc::new(PartitionPlan::new(16, 512, 4, Partitioning::Row));
        let id = MatrixId(9);
        let cfg = ServeClientConfig {
            servers: servers.clone(),
            matrix: id,
            plan: Arc::clone(&plan),
            users: 1000,
            user_period: SimTime::from_millis(10),
            duration: SimTime::from_millis(50),
            zipf_fraction: 0.9,
            zipf_exponent: 1.2,
            value_bytes: 8,
        };
        let scheduled = cfg.total_arrivals();
        sim.spawn("coord", move |ctx| {
            create_serve_table(ctx, &servers, id, &plan, InitKind::Zero);
            ctx.spawn_agent("clients", ServeClientAgent::new(cfg));
        });
        let report = sim.run().unwrap();
        let m = &report.metrics;
        assert!(m.counter("ps.server.replica.promoted") > 0);
        assert!(
            m.counter("ps.client.replica_misses") > 0,
            "no read hit the forgetful server"
        );
        assert_eq!(m.counter("ps.client.envelopes"), scheduled);
        assert_eq!(m.counter("ps.client.op.pull.count"), scheduled);
        assert_eq!(
            m.hist("ps.client.op.pull.latency").unwrap().count(),
            scheduled
        );
    }
}
