//! The three workloads, each driven through the library's public entry
//! points: what one run does, its set-up, and the [sim] numbers it yields.

use std::sync::Arc;
use std::time::Instant;

use ps2::data::presets;
use ps2::ml::hyper::LrHyper;
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::modes::{run_mode_with, ModeAlgo, ModeConfig};
use ps2::ml::optim::Optimizer;
use ps2::ml::serve::{run_serve, serve_spec, ServeSpec};
use ps2::ps::{ConsistencyMode, MatrixId, PartitionPlan, Partitioning, ServeClientConfig};
use ps2::simnet::{hostprof, ProcId, TimeSeries};
use ps2::{run_ps2_with, ClusterSpec, SimBuilder, SimReport, SimTime, TrainingTrace};

use crate::host::{self, Cost};
use crate::stats::{hist_quantile_ns, quantile};
use crate::{layers, Check, Metric};

/// Executors (train-bsp) or mode workers (train-ssp), and PS servers.
const WORKERS: usize = 8;
const SERVERS: usize = 8;
/// Fixed iteration count of both training workloads: enough that the
/// iteration-time p90 has ten samples above it.
const TRAIN_ITERS: usize = 100;
/// Adam step size for train-bsp. 0.01 converges (loss ~0.5 at 100
/// iterations); the paper's 0.618 and even 0.05 diverge on this preset.
const BSP_LEARNING_RATE: f64 = 0.01;
const SSP_BOUND: u32 = 2;
/// Extra compute per iteration on mode worker 0.
const STRAGGLER: SimTime = SimTime(2_000_000);

const SERVE_PRESET: &str = "serve-kdd12";
/// A serve rung `k` runs `k × RUNG_USERS` users per client agent, so each
/// rung adds 0.2× the preset's nominal load (160k pulls/s). The preset's
/// 1000 users per agent is rung 5.
const RUNG_USERS: u32 = 200;
const NOMINAL_RUNG: u32 = 5;
/// 2.4× nominal: 1.92M pulls/s.
const LOADED_RUNG: u32 = 12;
/// The ladder stops climbing at 5× nominal.
const TOP_RUNG: u32 = 25;
/// The `serve-kdd12.pull.p999` objective of `bench::preset_slos`.
const P999_OBJECTIVE_NS: f64 = 500_000.0;
/// Telemetry window used to check the open-loop schedule from outside.
const SERVE_WINDOW: SimTime = SimTime(1_000_000);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainBsp,
    TrainSsp,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TrainBsp, Workload::TrainSsp, Workload::ServeZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainBsp => "train-bsp",
            Workload::TrainSsp => "train-ssp",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One set-up: generate the workload's data, deploy its cluster and
    /// create/load its tables, with no training or serving after it.
    pub fn setup(self, seed: u64) -> Setup {
        let t0 = Instant::now();
        if self == Workload::ServeZipf {
            let spec = ServeSpec {
                duration: SimTime::ZERO,
                ..serve_spec(SERVE_PRESET).expect("serve preset exists")
            };
            let gen_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            run_serve(SimBuilder::new().seed(seed), &spec);
            return Setup {
                gen_s,
                deploy_s: t1.elapsed().as_secs_f64(),
            };
        }
        let gen = presets::kddb(WORKERS, seed).gen;
        for p in 0..gen.partitions {
            std::hint::black_box(gen.partition(p));
        }
        let gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        match self {
            Workload::TrainBsp => run_bsp(gen, 0, SimBuilder::new().seed(seed)),
            _ => run_ssp(gen, seed, 0, SimBuilder::new()),
        };
        Setup {
            gen_s,
            deploy_s: t1.elapsed().as_secs_f64(),
        }
    }

    /// The fixed unit of measured work: one training run, or the serve
    /// nominal and loaded rungs. `traced` turns on hostprof (timers and
    /// allocation counting), the event trace behind the causal DAG, and
    /// request tracing; none of them may change a [sim] number.
    pub fn unit(self, seed: u64, traced: bool) -> Unit {
        match self {
            Workload::TrainBsp | Workload::TrainSsp => self.train_unit(seed, traced),
            Workload::ServeZipf => serve_unit(seed, traced),
        }
    }

    fn train_unit(self, seed: u64, traced: bool) -> Unit {
        let gen = presets::kddb(WORKERS, seed).gen;
        let rows = gen.rows;
        let run_gen = gen.clone();
        let builder = SimBuilder::new().seed(seed).trace(traced).reqtrace(traced);
        let ((trace, report), cost) = host::measure(|| {
            with_hostprof(traced, || match self {
                Workload::TrainBsp => run_bsp(run_gen, TRAIN_ITERS, builder),
                _ => run_ssp(run_gen, seed, TRAIN_ITERS as u32, builder),
            })
        });
        let m = &report.metrics;
        let (batch, iter_counter) = match self {
            // The algorithm's own expected batch (its gradient normalizer):
            // each partition is Bernoulli-sampled at this fraction.
            Workload::TrainBsp => (rows as f64 * LrHyper::default().mini_batch_fraction, 1),
            _ => (
                (WORKERS * ssp_config(gen.clone(), seed, 0).mini_batch) as f64,
                WORKERS,
            ),
        };
        let points = &trace.points;
        let iters = points.len();
        let iter_ms: Vec<f64> = points
            .iter()
            .scan(0.0, |prev, &(t, _)| {
                let dt = t - *prev;
                *prev = t;
                Some(dt * 1e3)
            })
            .collect();
        let tail = (iters / 10).max(1).min(iters);
        let loss = if iters == 0 {
            f64::NAN
        } else {
            points[iters - tail..].iter().map(|p| p.1).sum::<f64>() / tail as f64
        };
        let sim_s = points.last().map_or(0.0, |p| p.0);
        let samples = batch * iters as f64;

        let e2e = vec![
            Metric::sim(
                "train_samples_per_s",
                if sim_s > 0.0 { samples / sim_s } else { 0.0 },
                "1/s",
            ),
            Metric::sim("train_iter_p50_ms", quantile(&iter_ms, 0.5), "ms").samples(iters),
            Metric::sim("train_iter_p90_ms", quantile(&iter_ms, 0.9), "ms").samples(iters),
            Metric::sim("train_loss", loss, "loss").samples(tail),
        ];
        let counted = m.counter("ml.iterations");
        let want = (TRAIN_ITERS * iter_counter) as u64;
        let checks = vec![
            Check::new(
                "train.iterations",
                iters == TRAIN_ITERS && counted == want,
                format!("{iters} trace points (want {TRAIN_ITERS}), ml.iterations {counted} (want {want})"),
            ),
            Check::new(
                "train.loss_below_ln2",
                loss.is_finite() && loss < std::f64::consts::LN_2,
                format!("mean loss of the last {tail} iterations {loss}"),
            ),
        ];

        let attempted = m.counter("spark.tasks_dispatched")
            + ["pull", "push", "push_async", "envelope"]
                .iter()
                .map(|op| m.counter(&format!("ps.client.op.{op}.count")))
                .sum::<u64>()
            + m.counter("ps.clock.op.wait.count")
            + m.counter("ps.clock.op.report.count");
        let failed = m.counter("ps.client.timeouts")
            + m.counter("ps.clock.timeouts")
            + m.counter("spark.task_retries")
            + m.counter("executor.task_failures")
            + want.saturating_sub(counted);

        let sim = fingerprint(
            &report,
            points.iter().enumerate().flat_map(|(i, &(t, l))| {
                [(format!("point{i}.time"), t), (format!("point{i}.loss"), l)]
            }),
        );

        let mut layer = Vec::new();
        layers::registry(m, &mut layer);
        layer.push(Metric::sim("ml.iterations", counted as f64, "count"));
        layer.push(Metric::sim("ml.samples", samples, "count"));
        layer.push(Metric::sim("ml.loss", loss, "loss"));
        serve_layer(None, &mut layer);
        if traced {
            layers::path(&report, &mut layer);
            layers::hostprof(report.host.as_ref(), &mut layer);
        }
        Unit {
            sim,
            e2e,
            layer,
            checks,
            attempted,
            failed,
            cost,
            msgs: report.total_msgs,
            bytes: report.total_bytes,
            rungs: Vec::new(),
        }
    }
}

/// Timing of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Calls into `data::presets` and the generators.
    pub gen_s: f64,
    /// A zero-length run: cluster deploy plus table create/load.
    pub deploy_s: f64,
}

/// One measured unit of work and everything read from it.
pub struct Unit {
    /// Every [sim] number of the unit: repeats exactly for a seed, with or
    /// without tracing.
    pub sim: Vec<(String, f64)>,
    /// The workload's end-to-end [sim] metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer numbers (path and hostprof ones only when traced).
    pub layer: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub cost: Cost,
    pub msgs: u64,
    pub bytes: u64,
    /// Serve rungs the unit ran (nominal, loaded).
    pub rungs: Vec<Rung>,
}

fn with_hostprof<T>(on: bool, f: impl FnOnce() -> T) -> T {
    hostprof::set_enabled(on);
    hostprof::set_alloc_counting(on);
    let out = f();
    hostprof::set_enabled(false);
    hostprof::set_alloc_counting(false);
    out
}

/// A run's [sim] numbers: makespan, message and byte totals, every registry
/// counter, and the caller's own measurements.
fn fingerprint(
    report: &SimReport,
    measured: impl IntoIterator<Item = (String, f64)>,
) -> Vec<(String, f64)> {
    let mut sim = vec![
        (
            "virtual_ns".to_string(),
            report.virtual_time.as_nanos() as f64,
        ),
        ("msgs".to_string(), report.total_msgs as f64),
        ("bytes".to_string(), report.total_bytes as f64),
    ];
    sim.extend(measured);
    sim.extend(
        report
            .metrics
            .counters()
            .map(|(k, v)| (format!("counter.{k}"), v as f64)),
    );
    sim
}

/// train-bsp: PS2-backend LR with Adam on the kddb preset, 8 executors and
/// 8 PS servers under the dataflow engine's BSP job loop.
fn run_bsp(
    gen: ps2::data::SparseDatasetGen,
    iters: usize,
    builder: SimBuilder,
) -> (TrainingTrace, SimReport) {
    let spec = ClusterSpec {
        workers: WORKERS,
        servers: SERVERS,
        ..ClusterSpec::default()
    };
    run_ps2_with(builder, spec, move |ctx, ps2| {
        let h = LrHyper::default();
        let adam = Optimizer::Adam {
            beta1: h.beta1,
            beta2: h.beta2,
            epsilon: h.epsilon,
        };
        let mut cfg = LrConfig::new(gen, adam, iters);
        cfg.hyper.learning_rate = BSP_LEARNING_RATE;
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
    })
}

/// train-ssp: LR through the Spark-free mode engine under SSP(2), 8 workers
/// and 8 servers, worker 0 straggling; the engine's default step size and
/// mini-batch.
fn ssp_config(gen: ps2::data::SparseDatasetGen, seed: u64, iters: u32) -> ModeConfig {
    let mut cfg = ModeConfig::new(
        gen,
        WORKERS,
        SERVERS,
        ConsistencyMode::Ssp { bound: SSP_BOUND },
    );
    cfg.iterations = iters;
    cfg.straggler_slowdown = STRAGGLER;
    cfg.seed = seed;
    cfg
}

fn run_ssp(
    gen: ps2::data::SparseDatasetGen,
    seed: u64,
    iters: u32,
    builder: SimBuilder,
) -> (TrainingTrace, SimReport) {
    run_mode_with(builder, &ssp_config(gen, seed, iters), ModeAlgo::Lr)
}

// ---- serve-zipf -------------------------------------------------------------

/// What one serve rung measured.
#[derive(Clone, Debug)]
pub struct Rung {
    pub k: u32,
    /// Offered load, pulls per simulated second.
    pub rate: f64,
    /// Arrivals the open-loop schedule holds (`total_arrivals` per agent).
    pub scheduled: u64,
    /// Pulls put on the wire and replies gathered.
    pub issued: u64,
    pub completed: u64,
    pub timeouts: u64,
    pub p50_ns: f64,
    pub p999_ns: f64,
    /// Telemetry windows in which the generator issued fewer pulls than
    /// the schedule holds, or issued after the generation window.
    pub gen_behind: u64,
    /// Outstanding pulls at the end of the generation window.
    pub backlog_end: i64,
    /// Backlog growth over the second half of the generation window, and
    /// the most it may grow: the pulls offered in one objective's time.
    pub backlog_growth: i64,
    pub growth_limit: f64,
    pub msgs: u64,
    pub bytes: u64,
    /// Every [sim] number of the rung.
    pub sim: Vec<(String, f64)>,
}

impl Rung {
    fn counts_ok(&self) -> bool {
        self.completed == self.issued && self.issued == self.scheduled && self.timeouts == 0
    }

    fn load_ok(&self) -> bool {
        self.p999_ns <= P999_OBJECTIVE_NS
            && self.gen_behind == 0
            && self.backlog_growth as f64 <= self.growth_limit
    }

    pub fn passes(&self) -> bool {
        self.counts_ok() && self.load_ok()
    }

    fn failed_pulls(&self) -> u64 {
        self.scheduled.saturating_sub(self.completed) + self.timeouts
    }

    pub fn describe(&self) -> String {
        format!(
            "rung {} ({:.0} pulls/s): scheduled {} issued {} completed {} timeouts {} \
             p50 {:.1} us p999 {:.1} us gen_behind {} backlog_end {} growth {} (limit {:.0}) -> {}",
            self.k,
            self.rate,
            self.scheduled,
            self.issued,
            self.completed,
            self.timeouts,
            self.p50_ns / 1e3,
            self.p999_ns / 1e3,
            self.gen_behind,
            self.backlog_end,
            self.backlog_growth,
            self.growth_limit,
            if self.passes() { "pass" } else { "fail" }
        )
    }
}

fn rung_spec(k: u32) -> ServeSpec {
    let mut spec = serve_spec(SERVE_PRESET).expect("serve preset exists");
    spec.users_per_agent = k * RUNG_USERS;
    spec
}

/// Arrivals the whole population is scheduled to issue, by the clients'
/// own `ServeClientConfig::total_arrivals` formula.
fn scheduled_arrivals(spec: &ServeSpec) -> u64 {
    let cfg = ServeClientConfig {
        servers: (0..spec.servers).map(ProcId).collect(),
        matrix: MatrixId(1),
        plan: Arc::new(PartitionPlan::new(
            spec.dim,
            spec.rows,
            spec.servers,
            Partitioning::Row,
        )),
        users: spec.users_per_agent,
        user_period: spec.user_period,
        duration: spec.duration,
        zipf_fraction: spec.zipf_fraction,
        zipf_exponent: spec.zipf_exponent,
        value_bytes: 8,
    };
    cfg.total_arrivals() * spec.agents as u64
}

/// Run serve rung `k` and measure it; returns the report for per-layer
/// reading.
fn run_rung(seed: u64, k: u32, traced: bool) -> (Rung, SimReport, Cost) {
    let spec = rung_spec(k);
    let builder = SimBuilder::new()
        .seed(seed)
        .timeseries(SERVE_WINDOW)
        .trace(traced)
        .reqtrace(traced);
    let ((_, report), cost) = host::measure(|| with_hostprof(traced, || run_serve(builder, &spec)));
    let m = &report.metrics;
    let pull = m.hist("ps.client.op.pull.latency");
    let rate = spec.offered_rate();
    let (gen_behind, backlog_end, backlog_mid) = report
        .timeseries
        .as_ref()
        .map_or((u64::MAX, 0, 0), |ts| open_loop(ts, &spec));
    let mut rung = Rung {
        k,
        rate,
        scheduled: scheduled_arrivals(&spec),
        issued: m.counter("ps.client.envelopes"),
        completed: m.counter("ps.client.op.pull.count"),
        timeouts: m.counter("ps.client.timeouts"),
        p50_ns: hist_quantile_ns(pull, 0.5),
        p999_ns: hist_quantile_ns(pull, 0.999),
        gen_behind,
        backlog_end,
        backlog_growth: backlog_end - backlog_mid,
        growth_limit: rate * P999_OBJECTIVE_NS * 1e-9,
        msgs: report.total_msgs,
        bytes: report.total_bytes,
        sim: Vec::new(),
    };
    rung.sim = fingerprint(
        &report,
        [
            ("p50_ns", rung.p50_ns),
            ("p999_ns", rung.p999_ns),
            ("gen_behind", rung.gen_behind as f64),
            ("backlog_end", rung.backlog_end as f64),
            ("backlog_growth", rung.backlog_growth as f64),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    (rung, report, cost)
}

/// Check the open-loop schedule from the telemetry windows, since the
/// clients stamp every overdue arrival with the time they finally issue
/// it. Returns `(windows behind, backlog at the end of generation, backlog
/// at its middle)`.
///
/// The schedule starts inside the first window with an issued pull, so the
/// `G - 1` windows after it lie wholly inside the `G`-window generation
/// interval; each must see its full share of arrivals. Any issue after
/// window `first + G` is late by definition.
fn open_loop(ts: &TimeSeries, spec: &ServeSpec) -> (u64, i64, i64) {
    let w = ts.window_ns;
    let g = spec.duration.as_nanos() / w;
    let issued = |idx: u64| {
        ts.windows
            .iter()
            .find(|x| x.index == idx)
            .map_or(0, |x| x.counter("ps.client.envelopes"))
    };
    let Some(first) = ts
        .windows
        .iter()
        .find(|x| x.counter("ps.client.envelopes") > 0)
        .map(|x| x.index)
    else {
        return (g, 0, 0);
    };
    let per_window = spec.agents as u64 * spec.users_per_agent as u64 * w;
    let period = spec.user_period.as_nanos();
    let (due, tolerance) = if per_window.is_multiple_of(period) {
        (per_window / period, 0)
    } else {
        (per_window / period, spec.agents as u64)
    };
    let mut behind = (1..g)
        .filter(|&j| issued(first + j) + tolerance < due)
        .count() as u64;
    behind += ts
        .windows
        .iter()
        .filter(|x| x.index > first + g && x.counter("ps.client.envelopes") > 0)
        .count() as u64;
    let backlog_at = |idx: u64| {
        ts.windows
            .iter()
            .filter(|x| x.index <= idx)
            .map(|x| {
                x.counter("ps.client.envelopes") as i64
                    - x.counter("ps.client.op.pull.count") as i64
            })
            .sum::<i64>()
    };
    (behind, backlog_at(first + g - 1), backlog_at(first + g / 2))
}

fn serve_unit(seed: u64, traced: bool) -> Unit {
    let (nominal, _, c1) = run_rung(seed, NOMINAL_RUNG, traced);
    let (loaded, report, c2) = run_rung(seed, LOADED_RUNG, traced);
    let mut cost = c1;
    cost.add(&c2);
    let e2e = vec![
        Metric::sim("serve_p50_us", nominal.p50_ns / 1e3, "us").samples(nominal.completed as usize),
        Metric::sim("serve_p999_us", nominal.p999_ns / 1e3, "us")
            .samples(nominal.completed as usize),
        Metric::sim("serve_loaded_p999_us", loaded.p999_ns / 1e3, "us")
            .samples(loaded.completed as usize),
    ];
    let checks = vec![
        Check::new(
            "serve.nominal.counts",
            nominal.counts_ok(),
            nominal.describe(),
        ),
        Check::new(
            "serve.nominal.no_timeouts",
            nominal.timeouts == 0,
            format!("{} timeouts", nominal.timeouts),
        ),
    ];
    let mut sim: Vec<(String, f64)> = Vec::new();
    for (tag, r) in [("nominal", &nominal), ("loaded", &loaded)] {
        sim.extend(r.sim.iter().map(|(k, v)| (format!("{tag}.{k}"), *v)));
    }
    let mut layer = Vec::new();
    layers::registry(&report.metrics, &mut layer);
    layer.push(Metric::sim("ml.iterations", 0.0, "count"));
    layer.push(Metric::sim("ml.samples", 0.0, "count"));
    layer.push(Metric::sim("ml.loss", 0.0, "loss"));
    serve_layer(Some(&loaded), &mut layer);
    if traced {
        layers::path(&report, &mut layer);
        layers::hostprof(report.host.as_ref(), &mut layer);
    }
    Unit {
        sim,
        e2e,
        layer,
        checks,
        attempted: nominal.scheduled + loaded.scheduled,
        failed: nominal.failed_pulls() + loaded.failed_pulls(),
        cost,
        msgs: nominal.msgs + loaded.msgs,
        bytes: nominal.bytes + loaded.bytes,
        rungs: vec![nominal, loaded],
    }
}

/// The `serve.*` layer numbers (of the loaded rung; zero for training).
fn serve_layer(rung: Option<&Rung>, out: &mut Vec<Metric>) {
    let v = |f: fn(&Rung) -> f64| rung.map_or(0.0, f);
    out.push(Metric::sim(
        "serve.scheduled",
        v(|r| r.scheduled as f64),
        "count",
    ));
    out.push(Metric::sim("serve.issued", v(|r| r.issued as f64), "count"));
    out.push(Metric::sim(
        "serve.completed",
        v(|r| r.completed as f64),
        "count",
    ));
    out.push(Metric::sim(
        "serve.backlog_end",
        v(|r| r.backlog_end as f64),
        "count",
    ));
    out.push(Metric::sim(
        "serve.gen_behind_windows",
        v(|r| r.gen_behind as f64),
        "count",
    ));
}

/// Result of the capacity ladder.
pub struct Ladder {
    /// Highest passing rung's offered load (0 when none passes).
    pub capacity_rps: f64,
    /// Rungs run beyond the unit's nominal and loaded ones.
    pub extra: Vec<Rung>,
    pub checks: Vec<Check>,
}

/// Bracket the knee in 0.2×-nominal steps, starting from the unit's loaded
/// rung: climb while rungs pass, or descend until one does. Assumes a rung
/// above a failing rung fails too.
pub fn ladder(seed: u64, unit: &Unit) -> Ladder {
    let nominal = &unit.rungs[0];
    let loaded = &unit.rungs[1];
    let mut extra = Vec::new();
    let mut best = None;
    if loaded.passes() {
        best = Some(loaded.k);
        for k in LOADED_RUNG + 1..=TOP_RUNG {
            let (r, _, _) = run_rung(seed, k, false);
            let pass = r.passes();
            extra.push(r);
            if !pass {
                break;
            }
            best = Some(k);
        }
    } else {
        for k in (1..LOADED_RUNG).rev() {
            let pass = if k == NOMINAL_RUNG {
                nominal.passes()
            } else {
                let (r, _, _) = run_rung(seed, k, false);
                let pass = r.passes();
                extra.push(r);
                pass
            };
            if pass {
                best = Some(k);
                break;
            }
        }
    }
    let mut checks = vec![Check::new(
        "serve.capacity_found",
        best.is_some(),
        format!("highest passing rung {best:?}"),
    )];
    for r in unit.rungs.iter().chain(&extra) {
        // A rung that meets the latency and open-loop tests must also have
        // answered exactly its schedule.
        if r.load_ok() && !r.counts_ok() {
            checks.push(Check::new(
                &format!("serve.rung{}.counts", r.k),
                false,
                r.describe(),
            ));
        }
    }
    Ladder {
        capacity_rps: best.map_or(0.0, |k| rung_spec(k).offered_rate()),
        extra,
        checks,
    }
}

impl Ladder {
    pub fn attempted(&self) -> u64 {
        self.extra.iter().map(|r| r.scheduled).sum()
    }

    pub fn failed(&self) -> u64 {
        self.extra.iter().map(Rung::failed_pulls).sum()
    }
}
