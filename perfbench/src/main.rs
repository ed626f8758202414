//! `ps2-perfbench` — the repository benchmark.
//!
//! ```text
//! ps2-perfbench --workload <train-bsp|train-ssp|serve-zipf> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, one simulation at a time, against the
//! library's public entry points. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it pairs every untraced run with a traced one
//! (hostprof, causal DAG, request tracing) and prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/NOTES.md` for the workloads, every metric and the
//! predictions later changes are held to.

mod host;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;
use workloads::{Unit, Workload};

/// Set-ups per invocation; `setup_s` is their median. A fixed count, so the
/// memory the set-ups leave behind does not depend on machine speed.
const SETUP_REPS: usize = 15;

/// One named number with its unit; `host` marks machine-measured values
/// (everything else comes from the virtual clock and repeats per seed).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub host: bool,
    /// Sample count behind a quantile or mean, printed beside it.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn sim(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            host: false,
            samples: None,
        }
    }

    pub fn host(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            host: true,
            ..Metric::sim(name, value, unit)
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    fn print(&self) {
        let n = self.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!(
            "metric {:<36} {:>18} {:<6} [{}]{n}",
            self.name,
            self.value,
            self.unit,
            if self.host { "host" } else { "sim" }
        );
    }
}

/// A named correctness check; a failed one counts as a failed op.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (want {})", names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds '{value}'"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0|1)")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Checks, op counts and metrics gathered over one invocation.
#[derive(Default)]
struct Outcome {
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn absorb(&mut self, unit: &Unit) {
        self.checks.extend(unit.checks.iter().cloned());
        self.attempted += unit.attempted;
        self.failed += unit.failed;
    }

    /// Later units must reproduce the first one's [sim] numbers exactly.
    fn check_same(&mut self, name: &str, first: &Unit, again: &Unit) {
        let diff = first
            .sim
            .iter()
            .zip(&again.sim)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{} {} vs {} {}", a.0, a.1, b.0, b.1));
        let diff = diff.or_else(|| {
            (first.sim.len() != again.sim.len())
                .then(|| format!("{} vs {} numbers", first.sim.len(), again.sim.len()))
        });
        self.checks.push(Check::new(
            name,
            diff.is_none(),
            diff.unwrap_or_else(|| format!("{} numbers identical", first.sim.len())),
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ps2-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} seed {} seconds {} trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let setups: Vec<workloads::Setup> = (0..SETUP_REPS).map(|_| wl.setup(args.seed)).collect();
    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.gen_s + s.deploy_s)
            .collect::<Vec<_>>(),
    );
    let measure_start = Instant::now();

    let mut out = Outcome::default();
    if !args.trace {
        let first = wl.unit(args.seed, false);
        // Peak memory of the set-ups plus one unit: later repeats (and the
        // serve ladder) would let allocator fragmentation, and so the
        // number of repeats the time budget allows, leak into it.
        let rss = host::peak_rss_mb();
        out.absorb(&first);
        let mut cpu = vec![first.cost.cpu_s];
        let mut sim_metrics = first.e2e.clone();
        if wl == Workload::ServeZipf {
            let ladder = workloads::ladder(args.seed, &first);
            for r in first.rungs.iter().chain(&ladder.extra) {
                println!("serve {}", r.describe());
            }
            out.checks.extend(ladder.checks.iter().cloned());
            out.attempted += ladder.attempted();
            out.failed += ladder.failed();
            sim_metrics.push(Metric::sim(
                "serve_capacity_rps",
                ladder.capacity_rps,
                "1/s",
            ));
        }
        while measure_start.elapsed() < budget {
            let again = wl.unit(args.seed, false);
            out.absorb(&again);
            out.check_same("sim.repeatable", &first, &again);
            cpu.push(again.cost.cpu_s);
        }
        println!("host_cpu_s per unit {cpu:.3?}");

        let host_cpu_s = median(&cpu);
        let mut m = vec![
            Metric::host("setup_s", setup_s, "s").samples(setups.len()),
            Metric::host("host_cpu_s", host_cpu_s, "s").samples(cpu.len()),
            Metric::host("peak_rss_mb", rss, "MB"),
        ];
        m.extend(sim_metrics);
        out.metrics = m;
    } else {
        let mut cpu = Vec::new();
        let mut wall = Vec::new();
        let mut ctx = Vec::new();
        let mut overhead = Vec::new();
        let mut first: Option<(Unit, Unit)> = None;
        while first.is_none() || measure_start.elapsed() < budget {
            let plain = wl.unit(args.seed, false);
            let traced = wl.unit(args.seed, true);
            out.absorb(&plain);
            out.absorb(&traced);
            out.check_same("trace.sim_equal", &plain, &traced);
            cpu.push(plain.cost.cpu_s);
            wall.push(plain.cost.wall_s);
            ctx.push(plain.cost.ctx_switches as f64);
            overhead.push(traced.cost.cpu_s - plain.cost.cpu_s);
            match &first {
                None => first = Some((plain, traced)),
                Some((f, _)) => out.check_same("sim.repeatable", f, &plain),
            }
        }
        let (plain, traced) = first.expect("at least one pair ran");
        let msgs = plain.msgs.max(1) as f64;
        let mut m = vec![
            Metric::sim("simnet.msgs", plain.msgs as f64, "count"),
            Metric::sim("simnet.bytes", plain.bytes as f64, "bytes"),
            Metric::host("host_cpu_s", median(&cpu), "s").samples(cpu.len()),
            Metric::host("simnet.host_us_per_msg", median(&cpu) / msgs * 1e6, "us"),
            Metric::host("simnet.ctx_switches", median(&ctx), "count"),
            Metric::host("simnet.host_wall_s", median(&wall), "s"),
            Metric::host("simnet.trace_overhead_s", median(&overhead), "s").samples(overhead.len()),
            Metric::host(
                "data.gen_s",
                median(&setups.iter().map(|s| s.gen_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::host(
                "ps.deploy_s",
                median(&setups.iter().map(|s| s.deploy_s).collect::<Vec<_>>()),
                "s",
            ),
        ];
        m.extend(traced.layer.iter().cloned());
        out.metrics = m;
    }

    for c in &out.checks {
        if !c.ok {
            println!("check FAILED {}: {}", c.name, c.detail);
        }
    }
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    let mut names: Vec<&str> = out.checks.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "checks {} run, {} failed: {}",
        out.checks.len(),
        failed_checks,
        names.join(" ")
    );
    let failed = out.failed + failed_checks;
    let attempted = out.attempted + out.checks.len() as u64;
    out.metrics.push(Metric::sim(
        "ops_failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    ));
    println!("ops_attempted {attempted} ops_failed {failed}");
    for m in &out.metrics {
        m.print();
    }
    println!("process peak_rss_mb {}", host::peak_rss_mb());
    println!("elapsed_s {}", start.elapsed().as_secs_f64());
    let reported = if args.trace {
        out.metrics
    } else {
        gated(wl, &out.metrics)
    };
    println!(
        "{}",
        result_json(failed_checks == 0, attempted, failed, &reported)
    );
    ExitCode::SUCCESS
}

/// The end-to-end metrics `BENCHMARK.json` gates. Every workload must
/// report every one of them, and none may be zero, so the workload-specific
/// [sim] metrics go out under workload-neutral names: the throughput, the
/// typical latency and the tail latency of the workload's nominal operating
/// point (see NOTES.md for the mapping). `host_cpu_s` is printed but not
/// gated: on the shared reference machine it drifts too far between runs.
fn gated(wl: Workload, metrics: &[Metric]) -> Vec<Metric> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (rate, p50_ms, tail_ms) = match wl {
        Workload::ServeZipf => (
            get("serve_capacity_rps"),
            get("serve_p50_us") / 1e3,
            get("serve_p999_us") / 1e3,
        ),
        _ => (
            get("train_samples_per_s"),
            get("train_iter_p50_ms"),
            get("train_iter_p90_ms"),
        ),
    };
    vec![
        Metric::host("setup_s", get("setup_s"), "s"),
        Metric::host("peak_rss_mb", get("peak_rss_mb"), "MB"),
        Metric::sim("sim_throughput_per_s", rate, "1/s"),
        Metric::sim("sim_p50_ms", p50_ms, "ms"),
        Metric::sim("sim_tail_ms", tail_ms, "ms"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
