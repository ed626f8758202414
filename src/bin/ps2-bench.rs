//! `ps2-bench` — sweep the {preset × algorithm × seed} grid and gate CI on
//! regressions against a committed baseline.
//!
//! ```text
//! ps2-bench sweep [--out PATH] [--host-out PATH] [--slo-out PATH]
//!                 [--seeds a,b,c] [--workers N] [--servers N] [--iters N]
//!     run the small case grid, print the summary table, optionally write
//!     the JSON report (this is how BENCH_pr5.json is generated);
//!     --host-out additionally runs with the host profiler on and writes a
//!     wall-clock sidecar (this is how HOST_pr7.json is generated — the
//!     virtual-time report stays byte-identical either way);
//!     --slo-out re-runs each case with request tracing on (non-yielding,
//!     same virtual times), prints per-op p999 + burn-alert headlines, and
//!     writes the combined ps2-slo-sweep-v1 sidecar
//!
//! ps2-bench diff <BASE> <CAND> [--tolerance FRAC] [--gate]
//!     compare two report files of the same sweep kind (training, modes or
//!     serving; a mismatch exits 2); with --gate, exit 1 when any median
//!     regressed beyond FRAC (default 0.05 = 5%)
//!
//! ps2-bench --gate <BASE> [--tolerance FRAC] [--out PATH] [flags as sweep]
//!     sweep fresh, compare against the committed baseline, exit 1 on
//!     regression — the CI entry point
//!
//! ps2-bench modes [--out PATH] [--seeds a,b] [--workers N] [--servers N]
//!                 [--iters N] [--gate BASE] [--tolerance FRAC]
//!     run the consistency-mode grid ({kddb,kdd12} × {lr,svm} ×
//!     {bsp,ssp:2,async}) emitting convergence-vs-virtual-time curves
//!     (this is how BENCH_pr6.json is generated); with --gate, compare
//!     against the committed baseline and exit 1 on regression
//!
//! ps2-bench serve [--out PATH] [--seeds a,b] [--presets p,q]
//!                 [--gate BASE] [--tolerance FRAC]
//!     run the serving sweep (serve-kddb, serve-kdd12: steppable PS fleets
//!     under open-loop pull traffic from 10k–20k endpoints) emitting pull
//!     p99/p999 tail latency per case (this is how BENCH_pr9.json is
//!     generated); with --gate, compare against the committed baseline and
//!     exit 1 on regression
//! ```
//!
//! Every sweep kind writes, reads and gates through the one report engine
//! in `ps2::bench`. All numbers in the main reports are virtual-time
//! integers from the simulator, so they are byte-identical across runs and
//! hosts; the gate detects modeled-cost changes, never host noise. The
//! exceptions are the strippable per-case `wall_seconds` line (soft 4×
//! gate) and the `--host-out` sidecar, which gets its own soft gate
//! (`ps2-trace host diff`) with a deliberately loose tolerance.

use std::process::exit;

use ps2::bench::{
    compare, mode_cases, slo_sweep, small_cases, sweep, sweep_with_host, Report, SweepCase,
    DEFAULT_SEEDS, MODE_SEEDS, SERVE_SEEDS,
};
use ps2::ml::serve::SERVE_PRESETS;

fn die(msg: &str) -> ! {
    eprintln!("ps2-bench: {msg}");
    exit(2)
}

fn usage() -> ! {
    eprintln!(
        "usage: ps2-bench sweep [--out PATH] [--host-out PATH] [--slo-out PATH] [--seeds a,b,c] [--workers N] [--servers N] [--iters N]\n\
        \x20      ps2-bench diff <BASE> <CAND> [--tolerance FRAC] [--gate]\n\
        \x20      ps2-bench --gate <BASE> [--tolerance FRAC] [--out PATH] [--host-out PATH] [sweep flags]\n\
        \x20      ps2-bench modes [--out PATH] [--seeds a,b] [--workers N] [--servers N] [--iters N] [--gate BASE] [--tolerance FRAC]\n\
        \x20      ps2-bench serve [--out PATH] [--seeds a,b] [--presets p,q] [--gate BASE] [--tolerance FRAC]"
    );
    exit(2)
}

struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(argv: &[String]) -> Flags {
        let mut out = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(name) = argv[i].strip_prefix("--") else {
                die(&format!("unexpected argument '{}'", argv[i]));
            };
            if name == "gate" {
                // Bare flag in diff mode; carries a baseline path in the
                // modes and serve sweeps. Disambiguate by whether the next
                // token is a flag.
                match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(v) => {
                        out.push((name.to_string(), v.clone()));
                        i += 2;
                    }
                    None => {
                        out.push((name.to_string(), String::new()));
                        i += 1;
                    }
                }
                continue;
            }
            let value = argv
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| die(&format!("flag --{name} needs a value")));
            out.push((name.to_string(), value));
            i += 2;
        }
        Flags(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{name}: '{v}'"))),
        }
    }
}

fn tolerance_milli(flags: &Flags) -> u64 {
    let frac: f64 = flags.get_num("tolerance", 0.05f64);
    if !(frac.is_finite() && frac >= 0.0) {
        die("--tolerance must be a non-negative fraction, e.g. 0.05");
    }
    (frac * 1000.0).round() as u64
}

/// Read a report of any sweep kind.
fn load(path: &str) -> Report {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    Report::from_json(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// `--seeds a,b,c`, or the sweep kind's default seeds.
fn seeds(flags: &Flags, default: &[u64]) -> Vec<u64> {
    match flags.get("seeds") {
        None => default.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad seed '{s}' in --seeds")))
            })
            .collect(),
    }
}

/// Sweep `cases` under `seeds` through the shared engine.
fn run<C: SweepCase>(cases: &[C], seeds: &[u64]) -> Report {
    eprintln!("sweeping {} cases x {} seeds...", cases.len(), seeds.len());
    sweep(cases, seeds).unwrap_or_else(|e| die(&e))
}

/// Write a file named by a flag, if the flag is present.
fn write_flag(flags: &Flags, name: &str, what: &str, text: &str) {
    if let Some(path) = flags.get(name) {
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("{what} written to {path}");
    }
}

/// Compare against a baseline. Regressions print one line each and, when
/// `hard`, exit 1; a schema mismatch always exits 2.
fn gate(base: &Report, cand: &Report, flags: &Flags, hard: bool) {
    let tol = tolerance_milli(flags);
    let violations = compare(base, cand, tol).unwrap_or_else(|e| die(&e));
    if violations.is_empty() {
        println!("gate passed ({:.1}% tolerance)", tol as f64 / 10.0);
        return;
    }
    for v in &violations {
        eprintln!("REGRESSION {v}");
    }
    if hard {
        exit(1);
    }
}

/// The training sweep plus its sidecars. With `--host-out` the sweep runs
/// with the host profiler (and counting allocator) on and also writes the
/// wall-clock sidecar — the virtual-time report is byte-identical either
/// way, which CI verifies by `cmp`-ing it against the baseline. With
/// `--slo-out` every case re-runs under the first seed with request tracing
/// on (non-yielding, so the virtual times are the sweep's), prints its
/// per-op p999 headline, and the combined `ps2-slo-sweep-v1` document is
/// written.
fn train_sweep(flags: &Flags, seeds: &[u64]) -> Report {
    let cases = small_cases(
        flags.get_num("workers", 4usize),
        flags.get_num("servers", 4usize),
        flags.get_num("iters", 4usize),
    );
    let report = if flags.get("host-out").is_some() {
        eprintln!(
            "sweeping {} cases x {} seeds under the host profiler...",
            cases.len(),
            seeds.len()
        );
        let (report, host) = sweep_with_host(&cases, seeds).unwrap_or_else(|e| die(&e));
        write_flag(flags, "host-out", "host sidecar", &host.to_json());
        print!("{}", host.render());
        report
    } else {
        run(&cases, seeds)
    };
    if flags.get("slo-out").is_some() {
        let (runs, doc) = slo_sweep(&cases, seeds[0]).unwrap_or_else(|e| die(&e));
        for r in &runs {
            let ops: Vec<String> = r
                .p999_by_op
                .iter()
                .map(|(op, ns)| format!("{op} p999 {}.{:03}us", ns / 1_000, ns % 1_000))
                .collect();
            println!(
                "slo {} seed {}: {}  burn alerts {}",
                r.name,
                r.seed,
                ops.join("  "),
                r.burn_alerts
            );
        }
        write_flag(flags, "slo-out", "slo sidecar", &doc);
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage();
    };
    if cmd == "diff" {
        let [base_path, cand_path, rest @ ..] = rest else {
            usage();
        };
        let flags = Flags::parse(rest);
        let (base, cand) = (load(base_path), load(cand_path));
        println!("baseline:  {base_path}\ncandidate: {cand_path}");
        print!("{}", cand.render());
        gate(&base, &cand, &flags, flags.get("gate").is_some());
        return;
    }
    // `ps2-bench --gate BASE [flags]` is the training sweep with a
    // positional baseline; the other sweeps take `--gate BASE` as a flag.
    let (cmd, base_path, rest) = match (cmd.as_str(), rest) {
        ("--gate", [base, rest @ ..]) => ("sweep", Some(base.as_str()), rest),
        ("--gate", []) => usage(),
        (cmd, rest) => (cmd, None, rest),
    };
    let flags = Flags::parse(rest);
    // Load the baseline first, so a bad path fails before the sweep.
    let base = base_path
        .or(flags.get("gate").filter(|p| !p.is_empty()))
        .map(load);
    let cand = match cmd {
        "sweep" => train_sweep(&flags, &seeds(&flags, DEFAULT_SEEDS)),
        "modes" => {
            let cases = mode_cases(
                flags.get_num("workers", 4usize),
                flags.get_num("servers", 3usize),
                flags.get_num("iters", 6u32),
            );
            run(&cases, &seeds(&flags, MODE_SEEDS))
        }
        "serve" => {
            let presets: Vec<&str> = match flags.get("presets") {
                None => SERVE_PRESETS.to_vec(),
                Some(list) => list.split(',').map(str::trim).collect(),
            };
            run(&presets, &seeds(&flags, SERVE_SEEDS))
        }
        _ => usage(),
    };
    print!("{}", cand.render());
    write_flag(&flags, "out", "report", &cand.to_json());
    if let Some(base) = base {
        gate(&base, &cand, &flags, true);
    }
}
