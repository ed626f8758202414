//! `ps2-bench` — deterministic sweep harnesses with a regression gate.
//!
//! A *sweep* runs every case of a grid under every seed and writes one
//! [`Report`]: per case, its attributes, one row of integer measurements per
//! seeded run, and a min/median/max summary across seeds. The JSON is
//! hand-rolled and integers-only, so it is byte-identical across runs and
//! hosts — the same property the flight-recorder report relies on. The
//! *gate* ([`compare`]) holds a fresh report (or a second file) to a
//! committed baseline: a baseline case missing from the candidate, a
//! summary median that grew beyond a relative tolerance, or an exact field
//! that changed at all is a violation, and CI turns any violation into a
//! failing job.
//!
//! The three sweep kinds share that one engine. What differs between them
//! is data, held by a [`Schema`]: the case's string and integer attributes,
//! the per-run fields, which of them are summarized and gated, and which
//! must not change at all. Each kind is a small [`SweepCase`] adapter that
//! turns one simulation into named fields:
//!
//! * [`BenchCase`] ([`TRAIN`]) — {preset × algorithm} training makespans
//!   split into setup and training phases.
//! * [`ModeCase`] ([`MODES`]) — consistency-mode convergence: every run
//!   carries its loss curve, and the final loss is gated beside the time.
//! * serving presets ([`SERVE`]) — open-loop pull tails; the pull count
//!   is gated on exact equality.
//!
//! All times are virtual nanoseconds from the simulator, so the gate is
//! immune to host speed: a regression means the *modeled* cost changed, not
//! that the runner was busy. The one exception is a run's host wall time,
//! written alone on a strippable `"wall_seconds"` line and gated only
//! against a >4× blowup.
//!
//! Committed baselines and the CI job that consumes each (the README's
//! "Committed baselines" table is the user-facing copy of this list):
//!
//! * `BENCH_pr4.json` — one `ps2-run lr --optimizer adam` report; the
//!   `metrics-smoke` job byte-compares it and checks envelope coalescing.
//! * `BENCH_pr5.json` — `sweep --out`; the `bench-gate` job runs the median
//!   regression gate plus byte-identity (`wall_seconds` stripped).
//! * `BENCH_pr6.json` — `modes --out`; `bench-gate` gates the consistency-
//!   mode sweep including final loss, plus byte-identity.
//! * `HOST_pr7.json` — `sweep --host-out`; `bench-gate` applies the
//!   wall-seconds soft gate via `ps2-trace host diff` (default +300%).
//! * `BENCH_pr9.json` — `serve --out`; the `serve-smoke` job gates the
//!   serving sweep plus byte-identity (`wall_seconds` stripped).

use std::fmt::Write as _;
use std::time::Instant;

use crate::data::presets;
use crate::data::SparseDatasetGen;
use crate::ml::lbfgs::{train_lbfgs, LbfgsConfig};
use crate::ml::lr::{train_lr, LrBackend, LrConfig};
use crate::ml::modes::{run_mode, ModeAlgo, ModeConfig};
use crate::ml::optim::Optimizer;
use crate::ml::serve::{run_serve, serve_spec, SERVE_PRESETS};
use crate::ml::svm::{train_svm, SvmConfig};
use crate::ps::ConsistencyMode;
use crate::simnet::hostprof::{self, HostProfile};
use crate::simnet::{slo_json, SloObjective, Watchdog};
use crate::tracefile::{parse_json, render_json_string, JsonValue};
use crate::{run_ps2_with, ClusterSpec, SimBuilder, SimTime};

// ---- the report engine -------------------------------------------------------

/// The layout of one sweep kind's report. The writer, reader, table and
/// gate read everything kind-specific from here.
#[derive(Debug, PartialEq, Eq)]
pub struct Schema {
    /// The document's `"schema"` tag.
    pub id: &'static str,
    /// String attributes of a case. The first is the case key: the gate
    /// joins baseline and candidate on it.
    pub strings: &'static [&'static str],
    /// Integer attributes of a case.
    pub ints: &'static [&'static str],
    /// Integer measurements of one run, in row order after `"seed"`.
    pub fields: &'static [&'static str],
    /// The fields aggregated across seeds and gated on their median.
    pub summary: &'static [&'static str],
    /// Summary fields whose aggregate must not change at all.
    pub exact: &'static [&'static str],
}

impl Schema {
    /// Index of run field `name` in [`Run::values`].
    pub fn field(&self, name: &str) -> usize {
        self.fields
            .iter()
            .position(|f| *f == name)
            .unwrap_or_else(|| panic!("{}: no run field {name:?}", self.id))
    }
}

/// The training sweep — what `BENCH_pr5.json` holds.
pub const TRAIN: Schema = Schema {
    id: "ps2-bench-v1",
    strings: &["name", "preset", "algorithm"],
    ints: &["workers", "servers", "iters"],
    fields: &[
        "virtual_ns",
        "setup_ns",
        "train_ns",
        "iterations",
        "total_msgs",
        "total_bytes",
    ],
    summary: &[
        "virtual_ns",
        "setup_ns",
        "train_ns",
        "total_msgs",
        "total_bytes",
    ],
    exact: &[],
};

/// The consistency-mode sweep — what `BENCH_pr6.json` holds. The final
/// loss is gated beside the makespan: a candidate that got faster by
/// converging worse is exactly what a staleness bug looks like.
pub const MODES: Schema = Schema {
    id: "ps2-bench-modes-v1",
    strings: &["name", "preset", "algorithm", "mode"],
    ints: &["workers", "servers", "iters"],
    fields: &[
        "virtual_ns",
        "final_loss_micro",
        "iterations",
        "total_msgs",
        "total_bytes",
    ],
    summary: &[
        "virtual_ns",
        "final_loss_micro",
        "total_msgs",
        "total_bytes",
    ],
    exact: &[],
};

/// The serving sweep — what `BENCH_pr9.json` holds. The open-loop schedule
/// fixes the pull count, so a different count means the generator itself
/// changed: it must match exactly.
pub const SERVE: Schema = Schema {
    id: "ps2-bench-serve-v1",
    strings: &["preset"],
    ints: &["endpoints"],
    fields: &[
        "virtual_ns",
        "pulls",
        "p99_ns",
        "p999_ns",
        "total_msgs",
        "total_bytes",
    ],
    summary: &[
        "virtual_ns",
        "pulls",
        "p99_ns",
        "p999_ns",
        "total_msgs",
        "total_bytes",
    ],
    exact: &["pulls"],
};

/// Every schema [`Report::from_json`] reads.
const SCHEMAS: [&Schema; 3] = [&TRAIN, &MODES, &SERVE];

/// min/median/max of one measurement across seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    pub min: u64,
    pub median: u64,
    pub max: u64,
}

impl Stat {
    /// Aggregate a non-empty sample; an even count takes the mean of the
    /// two central values (integer division — stays deterministic).
    pub fn of(mut vals: Vec<u64>) -> Stat {
        assert!(!vals.is_empty(), "Stat::of needs at least one sample");
        vals.sort_unstable();
        let n = vals.len();
        let median = if n % 2 == 1 {
            vals[n / 2]
        } else {
            (vals[n / 2 - 1] + vals[n / 2]) / 2
        };
        Stat {
            min: vals[0],
            median,
            max: vals[n - 1],
        }
    }
}

/// Measurements from a single seeded run of a case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run {
    pub seed: u64,
    /// One value per [`Schema::fields`] entry, in order.
    pub values: Vec<i64>,
    /// Convergence curve, `(virtual ns, mean batch loss in micros)` per
    /// iteration; empty for sweeps that record none.
    pub curve: Vec<(u64, i64)>,
    /// Host wall-clock nanoseconds, `None` for sweeps that do not measure
    /// it. Unlike every other field this is *not* deterministic.
    pub wall_ns: Option<u64>,
}

impl Run {
    /// A run measured as `(field, value)` pairs, which must name `schema`'s
    /// run fields in order.
    pub fn named(schema: &Schema, seed: u64, fields: &[(&str, i64)]) -> Run {
        assert!(
            fields.iter().map(|f| f.0).eq(schema.fields.iter().copied()),
            "{}: run fields {fields:?} do not match the schema",
            schema.id
        );
        Run {
            seed,
            values: fields.iter().map(|f| f.1).collect(),
            curve: Vec::new(),
            wall_ns: None,
        }
    }
}

/// One case of a report: its attributes and its per-seed runs. Aggregates
/// are always computed from the runs, never stored, so a hand-edited
/// summary in a baseline file cannot loosen the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// One value per [`Schema::strings`] entry.
    pub strings: Vec<String>,
    /// One value per [`Schema::ints`] entry.
    pub ints: Vec<u64>,
    pub runs: Vec<Run>,
}

impl Case {
    /// The join key: the first string attribute.
    pub fn key(&self) -> &str {
        &self.strings[0]
    }

    /// Aggregate run field `i`, clamping values at 0 (losses are never
    /// negative, and `Stat` is unsigned).
    pub fn stat(&self, i: usize) -> Stat {
        Stat::of(
            self.runs
                .iter()
                .map(|r| r.values[i].max(0) as u64)
                .collect(),
        )
    }

    /// Aggregate host wall time, when every run measured it.
    pub fn wall(&self) -> Option<Stat> {
        let walls: Option<Vec<u64>> = self.runs.iter().map(|r| r.wall_ns).collect();
        walls.map(Stat::of)
    }
}

/// A full sweep result of one schema.
#[derive(Clone, Debug)]
pub struct Report {
    pub schema: &'static Schema,
    pub cases: Vec<Case>,
}

impl Report {
    /// An empty report of one schema.
    pub fn new(schema: &'static Schema) -> Report {
        Report {
            schema,
            cases: Vec::new(),
        }
    }

    /// Serialize deterministically: cases in sweep order, integers only.
    /// Two lines are optional. A case's `"wall_seconds"` line (seconds at µs
    /// precision) is written only when its runs measured wall time; it sits
    /// alone on one full line, so `grep -v '"wall_seconds"'` recovers the
    /// deterministic document byte for byte. A run's `"curve"` is written
    /// only when it has one.
    pub fn to_json(&self) -> String {
        let s = self.schema;
        // The separator before the `j`th item of a list.
        let sep = |j: usize, comma: &'static str| if j > 0 { comma } else { "" };
        let mut out = format!("{{\n  \"schema\": \"{}\",\n  \"cases\": [", s.id);
        for (i, c) in self.cases.iter().enumerate() {
            let _ = write!(out, "{}\n    {{\n      ", sep(i, ","));
            for (j, (name, v)) in s.strings.iter().zip(&c.strings).enumerate() {
                let _ = write!(out, "{}\"{name}\": ", sep(j, ", "));
                render_json_string(v, &mut out);
            }
            out.push_str(",\n      ");
            for (j, (name, v)) in s.ints.iter().zip(&c.ints).enumerate() {
                let _ = write!(out, "{}\"{name}\": {v}", sep(j, ", "));
            }
            out.push(',');
            if c.runs.iter().any(|r| r.wall_ns.is_some()) {
                out.push_str("\n      \"wall_seconds\": [");
                for (j, r) in c.runs.iter().enumerate() {
                    let secs = r.wall_ns.unwrap_or(0) as f64 / 1e9;
                    let _ = write!(out, "{}{secs:.6}", sep(j, ", "));
                }
                out.push_str("],");
            }
            out.push_str("\n      \"runs\": [");
            for (j, r) in c.runs.iter().enumerate() {
                let _ = write!(out, "{}\n        {{\"seed\": {}", sep(j, ","), r.seed);
                for (name, v) in s.fields.iter().zip(&r.values) {
                    let _ = write!(out, ", \"{name}\": {v}");
                }
                if !r.curve.is_empty() {
                    out.push_str(",\n         \"curve\": [");
                    for (k, (ns, loss)) in r.curve.iter().enumerate() {
                        let _ = write!(out, "{}[{ns}, {loss}]", sep(k, ", "));
                    }
                    out.push(']');
                }
                out.push('}');
            }
            out.push_str("\n      ],\n      \"summary\": {");
            for (j, name) in s.summary.iter().enumerate() {
                let st = c.stat(s.field(name));
                let _ = write!(
                    out,
                    "{}\n        \"{name}\": {{\"min\": {}, \"median\": {}, \"max\": {}}}",
                    sep(j, ","),
                    st.min,
                    st.median,
                    st.max
                );
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a report written by [`Report::to_json`] under [`TRAIN`],
    /// [`MODES`] or [`SERVE`] (via the same dependency-free parser
    /// `ps2-trace` uses).
    /// The `"summary"` block is not read back: aggregates are recomputed.
    pub fn from_json(text: &str) -> Result<Report, String> {
        /// `obj[key]` read by `as_`, or an error naming the key.
        fn get<'a, T>(
            obj: &'a JsonValue,
            key: &str,
            as_: impl FnOnce(&'a JsonValue) -> Option<T>,
        ) -> Result<T, String> {
            obj.get(key)
                .and_then(as_)
                .ok_or_else(|| format!("bench report: missing/invalid \"{key}\""))
        }
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let id = doc.get("schema").and_then(JsonValue::as_str);
        let schema = SCHEMAS
            .into_iter()
            .find(|s| Some(s.id) == id)
            .ok_or_else(|| format!("unsupported bench schema {id:?}"))?;
        let mut out = Report::new(schema);
        for c in get(&doc, "cases", JsonValue::as_arr)? {
            let strings = schema
                .strings
                .iter()
                .map(|k| get(c, k, JsonValue::as_str).map(str::to_string))
                .collect::<Result<Vec<_>, String>>()?;
            let ints = schema
                .ints
                .iter()
                .map(|k| get(c, k, JsonValue::as_u64))
                .collect::<Result<Vec<_>, String>>()?;
            // Reports written before the wall line existed, or stripped of
            // it, read as runs without a wall measurement.
            let walls: Vec<u64> = c
                .get("wall_seconds")
                .and_then(JsonValue::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|v| match v {
                    JsonValue::Num(n) => (n * 1e9).round() as u64,
                    _ => 0,
                })
                .collect();
            let mut runs = Vec::new();
            for (i, r) in get(c, "runs", JsonValue::as_arr)?.iter().enumerate() {
                let values = schema
                    .fields
                    .iter()
                    .map(|k| get(r, k, JsonValue::as_i64))
                    .collect::<Result<Vec<_>, String>>()?;
                let curve = match r.get("curve") {
                    None => Vec::new(),
                    Some(_) => get(r, "curve", |points| {
                        points
                            .as_arr()?
                            .iter()
                            .map(|p| match p.as_arr()? {
                                [t, l] => t.as_u64().zip(l.as_i64()),
                                _ => None,
                            })
                            .collect()
                    })?,
                };
                runs.push(Run {
                    seed: get(r, "seed", JsonValue::as_u64)?,
                    values,
                    curve,
                    wall_ns: walls.get(i).copied(),
                });
            }
            if runs.is_empty() {
                return Err(format!("bench report: case {} has no runs", strings[0]));
            }
            out.cases.push(Case {
                strings,
                ints,
                runs,
            });
        }
        Ok(out)
    }

    /// Human-readable table: per case, the median of every summary field.
    pub fn render(&self) -> String {
        let s = self.schema;
        let header = std::iter::once(s.strings[0]).chain(s.summary.iter().copied());
        let mut rows = vec![header.map(str::to_string).collect::<Vec<_>>()];
        for c in &self.cases {
            let medians = s
                .summary
                .iter()
                .map(|f| c.stat(s.field(f)).median.to_string());
            rows.push(
                std::iter::once(c.key().to_string())
                    .chain(medians)
                    .collect(),
            );
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|j| rows.iter().map(|r| r[j].len()).max().unwrap_or(0))
            .collect();
        let mut out = format!("{} (medians across seeds)\n", s.id);
        for r in &rows {
            let _ = write!(out, "{:<w$}", r[0], w = widths[0]);
            for (cell, w) in r.iter().zip(&widths).skip(1) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }
}

/// True when `cand` exceeds `base` by more than `tolerance_milli`
/// parts-per-thousand (integer arithmetic; a zero baseline tolerates
/// nothing).
fn exceeds(base: u64, cand: u64, tolerance_milli: u64) -> bool {
    let limit = base + base / 1000 * tolerance_milli + base % 1000 * tolerance_milli / 1000;
    cand > limit
}

/// The regression gate: compare a candidate report against a baseline of
/// the same schema (a schema mismatch is an error, never a pass). A
/// violation is (a) a baseline case missing from the candidate — coverage
/// must not silently shrink — (b) an exact field whose aggregate changed,
/// (c) any other summary median that grew beyond `tolerance_milli`
/// parts-per-thousand (50 = 5%), or (d) a median wall time that grew more
/// than 4×. Wall time is host noise, so only a blowup of that size — the
/// signature of an accidentally quadratic host-side path, not of a busy
/// machine — counts, and only when both sides measured it. Returns one line
/// per violation; empty means the gate passes. Improvements never fail the
/// gate (regenerate the baseline to bank them).
pub fn compare(base: &Report, cand: &Report, tolerance_milli: u64) -> Result<Vec<String>, String> {
    let s = base.schema;
    if s.id != cand.schema.id {
        return Err(format!(
            "schema mismatch: baseline is {}, candidate is {}",
            s.id, cand.schema.id
        ));
    }
    let mut out = Vec::new();
    for b in &base.cases {
        let key = b.key();
        let Some(c) = cand.cases.iter().find(|c| c.key() == key) else {
            out.push(format!("case {key} missing from candidate"));
            continue;
        };
        for name in s.summary {
            let (a, v) = (b.stat(s.field(name)), c.stat(s.field(name)));
            if s.exact.contains(name) {
                if a != v {
                    out.push(format!(
                        "{key} {name}: {} -> {} (must not change)",
                        a.median, v.median
                    ));
                }
            } else if exceeds(a.median, v.median, tolerance_milli) {
                let pct = if a.median == 0 {
                    f64::INFINITY
                } else {
                    100.0 * (v.median as f64 - a.median as f64) / a.median as f64
                };
                out.push(format!(
                    "{key} {name}: median {} -> {} (+{pct:.1}%, tolerance {:.1}%)",
                    a.median,
                    v.median,
                    tolerance_milli as f64 / 10.0
                ));
            }
        }
        if let (Some(a), Some(v)) = (b.wall(), c.wall()) {
            if a.median > 0 && v.median > a.median.saturating_mul(4) {
                out.push(format!(
                    "{key} wall_ns: median {} -> {} (more than 4x; host-side blowup)",
                    a.median, v.median
                ));
            }
        }
    }
    Ok(out)
}

/// One cell of a sweep grid: a small adapter from one simulation to the
/// named fields of its kind's [`Schema`].
pub trait SweepCase {
    const SCHEMA: &'static Schema;
    /// The case's string attributes, then its integer attributes, in
    /// schema order.
    fn attrs(&self) -> (Vec<String>, Vec<u64>);
    /// Run the case under one seed.
    fn run(&self, seed: u64) -> Result<Run, String>;
}

/// Run every case under every seed. Fails fast on an unknown preset,
/// algorithm or mode, so a typo cannot silently shrink coverage.
pub fn sweep<C: SweepCase>(cases: &[C], seeds: &[u64]) -> Result<Report, String> {
    sweep_by(cases, seeds, C::run)
}

/// [`sweep`] with a custom per-run function — the one sweep loop.
fn sweep_by<C: SweepCase>(
    cases: &[C],
    seeds: &[u64],
    mut run: impl FnMut(&C, u64) -> Result<Run, String>,
) -> Result<Report, String> {
    if seeds.is_empty() {
        return Err("a sweep needs at least one seed".to_string());
    }
    let mut report = Report::new(C::SCHEMA);
    for case in cases {
        let (strings, ints) = case.attrs();
        let runs = seeds
            .iter()
            .map(|&seed| run(case, seed))
            .collect::<Result<_, _>>()?;
        report.cases.push(Case {
            strings,
            ints,
            runs,
        });
    }
    Ok(report)
}

/// Run `f` and measure its host wall time in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// The data generator of a training preset.
fn preset_gen(preset: &str, workers: usize, seed: u64) -> Result<SparseDatasetGen, String> {
    match preset {
        "kddb" => Ok(presets::kddb(workers, seed).gen),
        "kdd12" => Ok(presets::kdd12(workers, seed).gen),
        "ctr" => Ok(presets::ctr(workers, seed).gen),
        other => Err(format!("unknown bench preset '{other}'")),
    }
}

// ---- the training sweep ------------------------------------------------------

/// One cell of the training grid: a dataset preset trained by one algorithm.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Stable identifier, e.g. `kddb-lr` — the gate joins baseline and
    /// candidate on this.
    pub name: String,
    pub preset: String,
    pub algorithm: String,
    pub workers: usize,
    pub servers: usize,
    pub iters: usize,
}

/// Seeds every training case is run under by default.
pub const DEFAULT_SEEDS: &[u64] = &[1, 2, 3];

/// The small grid CI sweeps: two sparse presets × three algorithms, sized
/// to finish in seconds per run. (CTR is deliberately absent — its 5.6M-nnz
/// generator is an interactive-scale dataset, not a gate-scale one.)
pub fn small_cases(workers: usize, servers: usize, iters: usize) -> Vec<BenchCase> {
    let case = |preset: &str, algorithm: &str| BenchCase {
        name: format!("{preset}-{algorithm}"),
        preset: preset.to_string(),
        algorithm: algorithm.to_string(),
        workers,
        servers,
        iters,
    };
    vec![
        case("kddb", "lr"),
        case("kddb", "svm"),
        case("kdd12", "lr"),
        case("kdd12", "lbfgs"),
    ]
}

impl SweepCase for BenchCase {
    const SCHEMA: &'static Schema = &TRAIN;

    fn attrs(&self) -> (Vec<String>, Vec<u64>) {
        (
            vec![
                self.name.clone(),
                self.preset.clone(),
                self.algorithm.clone(),
            ],
            vec![self.workers as u64, self.servers as u64, self.iters as u64],
        )
    }

    fn run(&self, seed: u64) -> Result<Run, String> {
        self.run_profiled(seed, false).map(|(run, _)| run)
    }
}

impl BenchCase {
    /// Run under one seed with an optional host-profile capture. With
    /// `host` true the builder also scrapes 1 ms telemetry windows, so the
    /// `scrape.roll` scope is represented in the host sidecar (the cases
    /// finish in a few virtual ms, hence the small window). Scraping is
    /// non-yielding, so the virtual numbers are identical either way — that
    /// is the profiler's contract. The caller owns the global
    /// [`hostprof::set_enabled`] switch (see [`sweep_with_host`]).
    fn run_profiled(&self, seed: u64, host: bool) -> Result<(Run, Option<HostProfile>), String> {
        let builder = SimBuilder::new().seed(seed);
        let builder = if host {
            builder.timeseries(SimTime::from_millis(1))
        } else {
            builder
        };
        let (report, wall_ns) = timed(|| self.simulate(seed, builder));
        let report = report?;
        let virtual_ns = report.virtual_time.as_nanos();
        // Time inside training iterations; the rest of the makespan is
        // setup: data generation, caching, DCV creation, scheduling tails.
        let train_ns = report
            .metrics
            .hist("ml.iteration")
            .map(|h| h.sum_ns())
            .unwrap_or(0);
        let mut run = Run::named(
            &TRAIN,
            seed,
            &[
                ("virtual_ns", virtual_ns as i64),
                ("setup_ns", virtual_ns.saturating_sub(train_ns) as i64),
                ("train_ns", train_ns as i64),
                ("iterations", report.metrics.counter("ml.iterations") as i64),
                ("total_msgs", report.total_msgs as i64),
                ("total_bytes", report.total_bytes as i64),
            ],
        );
        run.wall_ns = Some(wall_ns);
        Ok((run, report.host))
    }

    /// Run under one seed on the given builder and return the full
    /// [`crate::SimReport`] — shared by the sweep and [`run_case_slo`].
    fn simulate(&self, seed: u64, builder: SimBuilder) -> Result<crate::SimReport, String> {
        let spec = ClusterSpec {
            workers: self.workers,
            servers: self.servers,
            ..ClusterSpec::default()
        };
        let iters = self.iters;
        let gen = preset_gen(&self.preset, self.workers, seed)?;
        let (_, report) = match self.algorithm.as_str() {
            "lr" => run_ps2_with(builder, spec, move |ctx, ps2| {
                train_lr(
                    ctx,
                    ps2,
                    &LrConfig::new(gen, Optimizer::Sgd, iters),
                    LrBackend::Ps2Dcv,
                );
            }),
            "svm" => run_ps2_with(builder, spec, move |ctx, ps2| {
                train_svm(ctx, ps2, &SvmConfig::new(gen, iters));
            }),
            "lbfgs" => run_ps2_with(builder, spec, move |ctx, ps2| {
                let mut cfg = LbfgsConfig::new(gen, iters);
                // Full-batch gradients would dominate the sweep's wall time;
                // a fixed fraction keeps the case cheap and still exercises
                // the server-side two-loop recursion.
                cfg.batch_fraction = 0.25;
                train_lbfgs(ctx, ps2, &cfg);
            }),
            other => return Err(format!("unknown bench algorithm '{other}'")),
        };
        Ok(report)
    }
}

/// The service-level objectives a preset's PS traffic is held to, evaluated
/// by [`Watchdog::evaluate_slo`](crate::simnet::Watchdog::evaluate_slo) over
/// the run's telemetry windows.
///
/// Latency targets are calibrated from healthy seed-42 runs of each preset
/// at gate scale (4 workers / 4 servers): the target sits ~2× above the
/// observed p999, so a healthy run never burns budget while a straggling
/// server or a saturated NIC trips the multi-window burn alert. Unknown
/// presets (including ad-hoc `--rows/--dim` shapes) get the generic tier.
pub fn preset_slos(preset: Option<&str>) -> Vec<SloObjective> {
    // Serving presets gate the pull path only (serving issues no pushes) and
    // carry the preset name in the objective, so a watchdog burn alert says
    // *which* serving SLO is burning, not just "some pull somewhere".
    if let Some(p @ ("serve-kddb" | "serve-kdd12")) = preset {
        // ~2× above the healthy seed-1/2 pull p999 of each serve preset
        // (observed: serve-kddb 213 µs, serve-kdd12 221 µs).
        let pull_ns = match p {
            "serve-kddb" => 450_000,
            _ => 500_000,
        };
        return vec![
            SloObjective::latency_p999(
                &format!("{p}.pull.p999"),
                "ps.client.op.pull.latency",
                SimTime(pull_ns),
            ),
            SloObjective::error_rate(
                &format!("{p}.timeouts"),
                "ps.client.timeouts",
                "ps.client.envelopes",
                10,
            ),
        ];
    }
    // (pull p999 target, push p999 target), nanoseconds of virtual time.
    // Healthy p999s observed: kddb lr/svm 226–318 µs, kdd12 lr 214 µs.
    let (pull_ns, push_ns) = match preset {
        Some("kddb") => (1_000_000, 1_000_000),
        Some("kdd12") => (1_000_000, 1_000_000),
        // ctr / gender are interactive-scale presets; keep a roomy bound.
        Some("ctr") | Some("gender") => (2_000_000, 2_000_000),
        _ => (2_000_000, 2_000_000),
    };
    vec![
        SloObjective::latency_p999(
            "ps.pull.p999",
            "ps.client.op.pull.latency",
            SimTime(pull_ns),
        ),
        SloObjective::latency_p999(
            "ps.push.p999",
            "ps.client.op.push.latency",
            SimTime(push_ns),
        ),
        // At most 1% of fabric envelopes may time out.
        SloObjective::error_rate(
            "ps.timeouts",
            "ps.client.timeouts",
            "ps.client.envelopes",
            10,
        ),
    ]
}

/// Headline numbers from one SLO-traced run of a case.
#[derive(Clone, Debug)]
pub struct SloCaseRun {
    pub name: String,
    pub seed: u64,
    /// `(op, p999_ns)` per PS op, in op order.
    pub p999_by_op: Vec<(String, u64)>,
    /// SLO burn alerts the run fired.
    pub burn_alerts: usize,
    /// The full `ps2-slo-v1` sidecar for this run.
    pub sidecar: String,
}

/// Run one case with request tracing and 1 ms telemetry windows and hold it
/// to [`preset_slos`]. Request tracing is non-yielding, so the virtual-time
/// numbers match the plain sweep's exactly.
pub fn run_case_slo(case: &BenchCase, seed: u64) -> Result<SloCaseRun, String> {
    let builder = SimBuilder::new()
        .seed(seed)
        .reqtrace(true)
        .timeseries(SimTime::from_millis(1));
    let report = case.simulate(seed, builder)?;
    let objectives = preset_slos(Some(case.preset.as_str()));
    let alerts = Watchdog::default().evaluate_slo(&report, &objectives);
    let reqs = report.reqs.as_ref().expect("request tracing was enabled");
    Ok(SloCaseRun {
        name: case.name.clone(),
        seed,
        p999_by_op: reqs
            .ops
            .iter()
            .filter(|o| o.completed > 0)
            .map(|o| (o.op.clone(), o.hist.quantile_ns(0.999)))
            .collect(),
        burn_alerts: alerts.len(),
        sidecar: slo_json(reqs, &objectives, &alerts),
    })
}

/// Run every case's SLO pass (first seed only — the tail profile is
/// seed-stable enough for surfacing) and render the combined
/// `ps2-slo-sweep-v1` document: `{"schema", "cases": [{"name", "seed",
/// "slo": <ps2-slo-v1>}]}`. Each embedded sidecar is the same document
/// `ps2-trace slo` reads.
pub fn slo_sweep(cases: &[BenchCase], seed: u64) -> Result<(Vec<SloCaseRun>, String), String> {
    let runs: Vec<SloCaseRun> = cases
        .iter()
        .map(|c| run_case_slo(c, seed))
        .collect::<Result<_, _>>()?;
    let mut s = String::from("{\n  \"schema\": \"ps2-slo-sweep-v1\",\n  \"cases\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"name\": \"{}\", \"seed\": {}, \"slo\": {}}}",
            if i == 0 { "" } else { "," },
            r.name,
            r.seed,
            r.sidecar.trim_end()
        );
    }
    s.push_str("\n  ]\n}\n");
    Ok((runs, s))
}

// ---- the consistency-mode sweep ----------------------------------------------

/// One cell of the consistency-mode grid: preset × algorithm × mode. Unlike
/// [`BenchCase`] this sweep measures *convergence vs. virtual time*, not
/// makespan: every run carries its full loss curve.
#[derive(Clone, Debug)]
pub struct ModeCase {
    /// Stable identifier, e.g. `kddb-lr-ssp2`.
    pub name: String,
    pub preset: String,
    pub algorithm: String,
    /// CLI spelling of the mode (`bsp`, `ssp:2`, `async`), parsed at run
    /// time.
    pub mode: String,
    pub workers: usize,
    pub servers: usize,
    pub iters: u32,
}

/// Seeds for the mode sweep. Two, not three: each cell already runs 3 modes
/// × 2 algorithms × 2 presets, and the runs are deterministic anyway — the
/// seeds exist to keep one lucky dataset from hiding a regression.
pub const MODE_SEEDS: &[u64] = &[1, 2];

/// The grid CI sweeps: {kddb, kdd12} × {lr, svm} × {bsp, ssp:2, async}.
pub fn mode_cases(workers: usize, servers: usize, iters: u32) -> Vec<ModeCase> {
    let mut out = Vec::new();
    for preset in ["kddb", "kdd12"] {
        for algorithm in ["lr", "svm"] {
            for mode in ["bsp", "ssp:2", "async"] {
                let label = ConsistencyMode::parse(mode).expect("static mode").label();
                out.push(ModeCase {
                    name: format!("{preset}-{algorithm}-{label}"),
                    preset: preset.to_string(),
                    algorithm: algorithm.to_string(),
                    mode: mode.to_string(),
                    workers,
                    servers,
                    iters,
                });
            }
        }
    }
    out
}

impl SweepCase for ModeCase {
    const SCHEMA: &'static Schema = &MODES;

    fn attrs(&self) -> (Vec<String>, Vec<u64>) {
        (
            vec![
                self.name.clone(),
                self.preset.clone(),
                self.algorithm.clone(),
                self.mode.clone(),
            ],
            vec![self.workers as u64, self.servers as u64, self.iters as u64],
        )
    }

    /// Mode runs carry no wall measurement, so `BENCH_pr6.json` has no
    /// `wall_seconds` line and is compared with a plain `cmp`.
    fn run(&self, seed: u64) -> Result<Run, String> {
        let gen = preset_gen(&self.preset, self.workers, seed)?;
        let mode = ConsistencyMode::parse(&self.mode)?;
        let algo = ModeAlgo::parse(&self.algorithm)?;
        let mut cfg = ModeConfig::new(gen, self.workers, self.servers, mode);
        cfg.iterations = self.iters;
        cfg.learning_rate = 1.0;
        cfg.seed = seed;
        // A mild fixed straggler, so the three modes actually differ in pacing
        // and the curves show the tradeoff the sweep exists to watch.
        cfg.straggler_slowdown = SimTime::from_millis(20);
        let (trace, report) = run_mode(&cfg, algo);
        let curve: Vec<(u64, i64)> = trace
            .points
            .iter()
            .map(|&(s, l)| ((s * 1e9).round() as u64, (l * 1e6).round() as i64))
            .collect();
        let mut run = Run::named(
            &MODES,
            seed,
            &[
                ("virtual_ns", report.virtual_time.as_nanos() as i64),
                // Mean batch loss of the last iteration.
                ("final_loss_micro", curve.last().map_or(0, |&(_, l)| l)),
                ("iterations", report.metrics.counter("ml.iterations") as i64),
                ("total_msgs", report.total_msgs as i64),
                ("total_bytes", report.total_bytes as i64),
            ],
        );
        run.curve = curve;
        Ok(run)
    }
}

// ---- the serving sweep -------------------------------------------------------

/// Seeds for the serve sweep. Two: each serve case is already 10k–20k
/// endpoints and a few hundred thousand pulls, and the runs are
/// deterministic — the second seed exists so one lucky arrival interleaving
/// cannot hide a tail regression.
pub const SERVE_SEEDS: &[u64] = &[1, 2];

/// A serving case is a serving preset's name.
impl SweepCase for &str {
    const SCHEMA: &'static Schema = &SERVE;

    fn attrs(&self) -> (Vec<String>, Vec<u64>) {
        let endpoints = serve_spec(self).map_or(0, |s| s.endpoints());
        (vec![self.to_string()], vec![endpoints])
    }

    /// Fails on an unknown preset or an unhealthy run (unanswered pulls).
    fn run(&self, seed: u64) -> Result<Run, String> {
        let spec = serve_spec(self).ok_or_else(|| {
            format!(
                "unknown serve preset '{self}' (want {})",
                SERVE_PRESETS.join("|")
            )
        })?;
        let ((summary, report), wall_ns) = timed(|| run_serve(SimBuilder::new().seed(seed), &spec));
        if summary.completed != summary.issued {
            return Err(format!(
                "serve case {self} seed {seed}: {} of {} pulls unanswered",
                summary.issued - summary.completed,
                summary.issued
            ));
        }
        let mut run = Run::named(
            &SERVE,
            seed,
            &[
                // Model load + generation window + reply drain.
                ("virtual_ns", summary.virtual_ns as i64),
                ("pulls", summary.completed as i64),
                ("p99_ns", summary.p99_ns as i64),
                ("p999_ns", summary.p999_ns as i64),
                ("total_msgs", report.total_msgs as i64),
                ("total_bytes", report.total_bytes as i64),
            ],
        );
        run.wall_ns = Some(wall_ns);
        Ok(run)
    }
}

// ---- the host-side (wall-clock) sidecar -------------------------------------
//
// Everything above is virtual-time and byte-identical across hosts; this
// section is the deliberate exception. `sweep_with_host` runs the same
// cases with the hostprof timers (and counting allocator) on and collects
// real wall-seconds plus the per-scope cost table into a *sidecar* report
// (`HOST_pr7.json`) — sidecar, because wall time is host noise and must
// never contaminate the byte-compared BENCH files. Its gate
// (`compare_host`) is correspondingly soft: median wall only, generous
// multiplicative tolerance.

/// One scope row of a host report. Mirrors [`hostprof::ScopeStat`] but owns
/// its name, since parsed sidecar files outlive the static name table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostScopeRow {
    pub scope: String,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-case host cost: wall stats across seeds, scope table summed across
/// seeds (sorted by `self_ns` descending, name as tiebreak).
#[derive(Clone, Debug, PartialEq)]
pub struct HostCase {
    pub name: String,
    pub wall_ns: Stat,
    pub scopes: Vec<HostScopeRow>,
}

impl HostCase {
    /// Aggregate one case's per-seed profiles.
    pub fn of(name: String, profiles: &[HostProfile]) -> HostCase {
        assert!(!profiles.is_empty(), "HostCase::of needs at least one run");
        let wall_ns = Stat::of(profiles.iter().map(|p| p.wall_ns).collect());
        let mut scopes: Vec<HostScopeRow> = Vec::new();
        for p in profiles {
            for s in &p.scopes {
                match scopes.iter_mut().find(|r| r.scope == s.name) {
                    Some(r) => {
                        r.calls += s.calls;
                        r.total_ns += s.total_ns;
                        r.self_ns += s.self_ns;
                        r.allocs += s.allocs;
                        r.alloc_bytes += s.alloc_bytes;
                    }
                    None => scopes.push(HostScopeRow {
                        scope: s.name.to_string(),
                        calls: s.calls,
                        total_ns: s.total_ns,
                        self_ns: s.self_ns,
                        allocs: s.allocs,
                        alloc_bytes: s.alloc_bytes,
                    }),
                }
            }
        }
        scopes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.scope.cmp(&b.scope)));
        HostCase {
            name,
            wall_ns,
            scopes,
        }
    }

    /// Median wall time in seconds — the headline number per case.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns.median as f64 / 1e9
    }
}

/// A host-cost sidecar report — what `HOST_pr7.json` holds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostReport {
    /// Whether the counting allocator was on (alloc columns meaningful).
    pub alloc_counted: bool,
    pub cases: Vec<HostCase>,
}

/// How many scope rows the sidecar keeps per case. There are only
/// [`crate::simnet::hostprof::SCOPE_COUNT`] scopes today, so nothing is
/// dropped; the cap documents intent for a future richer taxonomy.
pub const HOST_TOP_N: usize = 16;

/// [`sweep`], but with the host profiler (timers + counting allocator) on:
/// returns the usual virtual-time report **plus** the host sidecar. The
/// virtual report is byte-identical to an unprofiled sweep's — CI compares
/// exactly that.
pub fn sweep_with_host(cases: &[BenchCase], seeds: &[u64]) -> Result<(Report, HostReport), String> {
    hostprof::set_enabled(true);
    hostprof::set_alloc_counting(true);
    let mut profiles = Vec::new();
    let bench = sweep_by(cases, seeds, |case, seed| {
        let (run, profile) = case.run_profiled(seed, true)?;
        profiles.push(profile.ok_or_else(|| {
            format!(
                "case {} seed {seed}: profiled run returned no host profile",
                case.name
            )
        })?);
        Ok(run)
    });
    hostprof::set_alloc_counting(false);
    hostprof::set_enabled(false);
    let bench = bench?;
    let host = HostReport {
        alloc_counted: true,
        cases: cases
            .iter()
            .zip(profiles.chunks(seeds.len()))
            .map(|(case, p)| {
                let mut hc = HostCase::of(case.name.clone(), p);
                hc.scopes.truncate(HOST_TOP_N);
                hc
            })
            .collect(),
    };
    Ok((bench, host))
}

impl HostReport {
    /// Wrap a single run's profile as a one-case report, so `ps2-run
    /// --host-prof-json` output and the bench sidecar share one schema (and
    /// one `ps2-trace host` reader).
    pub fn single(name: &str, profile: &HostProfile) -> HostReport {
        HostReport {
            alloc_counted: profile.alloc_counted,
            cases: vec![HostCase::of(
                name.to_string(),
                std::slice::from_ref(profile),
            )],
        }
    }

    /// Serialize. Deterministic *given the measurements* (fixed key order,
    /// fixed float formatting) — but the measurements are wall-clock, so
    /// two runs produce different bytes. Never byte-compare HOST files;
    /// that is what [`compare_host`]'s tolerance is for.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"ps2-hostprof-v1\",\n");
        let _ = write!(
            out,
            "  \"alloc_counted\": {},\n  \"cases\": [",
            self.alloc_counted
        );
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"name\": ");
            render_json_string(&c.name, &mut out);
            let _ = write!(
                out,
                ",\n      \"wall_seconds\": {:.6},\n      \"wall_ns\": {{\"min\": {}, \"median\": {}, \"max\": {}}},\n      \"scopes\": [",
                c.wall_seconds(),
                c.wall_ns.min,
                c.wall_ns.median,
                c.wall_ns.max
            );
            for (j, s) in c.scopes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"scope\": ");
                render_json_string(&s.scope, &mut out);
                let _ = write!(
                    out,
                    ", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                    s.calls, s.total_ns, s.self_ns, s.allocs, s.alloc_bytes
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a report written by [`HostReport::to_json`]. `wall_seconds` is
    /// derived from the median on render, so it is not read back.
    pub fn from_json(text: &str) -> Result<HostReport, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("ps2-hostprof-v1") => {}
            other => return Err(format!("unsupported hostprof schema {other:?}")),
        }
        let u64_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("host report: missing/invalid \"{key}\""))
        };
        let mut out = HostReport {
            alloc_counted: doc
                .get("alloc_counted")
                .and_then(JsonValue::as_bool)
                .ok_or("host report: missing \"alloc_counted\"")?,
            cases: Vec::new(),
        };
        for c in doc
            .get("cases")
            .and_then(JsonValue::as_arr)
            .ok_or("host report: missing \"cases\"")?
        {
            let name = c
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("host report: case missing \"name\"")?
                .to_string();
            let wall = c
                .get("wall_ns")
                .ok_or("host report: case missing \"wall_ns\"")?;
            let wall_ns = Stat {
                min: u64_field(wall, "min")?,
                median: u64_field(wall, "median")?,
                max: u64_field(wall, "max")?,
            };
            let scopes = c
                .get("scopes")
                .and_then(JsonValue::as_arr)
                .ok_or("host report: case missing \"scopes\"")?
                .iter()
                .map(|s| {
                    Ok(HostScopeRow {
                        scope: s
                            .get("scope")
                            .and_then(JsonValue::as_str)
                            .ok_or("host report: scope row missing \"scope\"")?
                            .to_string(),
                        calls: u64_field(s, "calls")?,
                        total_ns: u64_field(s, "total_ns")?,
                        self_ns: u64_field(s, "self_ns")?,
                        allocs: u64_field(s, "allocs")?,
                        alloc_bytes: u64_field(s, "alloc_bytes")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            out.cases.push(HostCase {
                name,
                wall_ns,
                scopes,
            });
        }
        Ok(out)
    }

    /// Human-readable report: per case, wall seconds and the top-cost
    /// scope table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host cost (wall-clock; alloc counting {})",
            if self.alloc_counted { "on" } else { "off" }
        );
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{}: wall {:.3}s median [{:.3}..{:.3}]",
                c.name,
                c.wall_seconds(),
                c.wall_ns.min as f64 / 1e9,
                c.wall_ns.max as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>12} {:>12} {:>12} {:>14}",
                "scope", "calls", "total_ms", "self_ms", "allocs", "alloc_bytes"
            );
            for s in &c.scopes {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>10} {:>12.3} {:>12.3} {:>12} {:>14}",
                    s.scope,
                    s.calls,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6,
                    s.allocs,
                    s.alloc_bytes
                );
            }
        }
        out
    }
}

/// The simulator-speed soft gate: flag a baseline case that is missing from
/// the candidate, or whose median wall time grew beyond `tolerance_milli`
/// parts-per-thousand (1000 = +100%, i.e. 2× — deliberately generous,
/// because CI wall time is noisy). Scope rows are reported by [`HostReport::render`]
/// but never gated: only the headline wall regression fails a build.
pub fn compare_host(base: &HostReport, cand: &HostReport, tolerance_milli: u64) -> Vec<String> {
    let mut out = Vec::new();
    for b in &base.cases {
        let Some(c) = cand.cases.iter().find(|c| c.name == b.name) else {
            out.push(format!("host case {} missing from candidate", b.name));
            continue;
        };
        if exceeds(b.wall_ns.median, c.wall_ns.median, tolerance_milli) {
            let pct = if b.wall_ns.median == 0 {
                f64::INFINITY
            } else {
                100.0 * (c.wall_ns.median as f64 - b.wall_ns.median as f64)
                    / b.wall_ns.median as f64
            };
            out.push(format!(
                "{} wall_ns: median {} -> {} (+{pct:.1}%, tolerance {:.1}%)",
                b.name,
                b.wall_ns.median,
                c.wall_ns.median,
                tolerance_milli as f64 / 10.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(schema: &'static Schema, cases: Vec<Case>) -> Report {
        Report { schema, cases }
    }

    fn summary(name: &str, virtual_ns: i64) -> Case {
        let mut run = Run::named(
            &TRAIN,
            1,
            &[
                ("virtual_ns", virtual_ns),
                ("setup_ns", virtual_ns / 4),
                ("train_ns", virtual_ns - virtual_ns / 4),
                ("iterations", 4),
                ("total_msgs", 100),
                ("total_bytes", 1_000),
            ],
        );
        // Whole microseconds, so the %.6f wall_seconds line round-trips.
        run.wall_ns = Some(42_000_000);
        Case {
            strings: vec![name.to_string(), "kddb".to_string(), "lr".to_string()],
            ints: vec![4, 4, 4],
            runs: vec![run],
        }
    }

    fn train(cases: Vec<Case>) -> Report {
        report(&TRAIN, cases)
    }

    #[test]
    fn stat_median_odd_and_even() {
        assert_eq!(
            Stat::of(vec![3, 1, 2]),
            Stat {
                min: 1,
                median: 2,
                max: 3
            }
        );
        assert_eq!(
            Stat::of(vec![4, 1, 2, 3]),
            Stat {
                min: 1,
                median: 2,
                max: 4
            }
        );
    }

    #[test]
    fn summary_stats_clamp_negative_values_at_zero() {
        let mut case = mode_summary("kddb-lr-bsp", "bsp", 1_000, -5);
        case.runs.push(mode_run(2, 1_000, 7));
        let loss = MODES.field("final_loss_micro");
        assert_eq!(
            case.stat(loss),
            Stat {
                min: 0,
                median: 3,
                max: 7
            }
        );
        // The run row itself keeps the signed value.
        let text = report(&MODES, vec![case]).to_json();
        assert!(text.contains("\"final_loss_micro\": -5,"), "{text}");
    }

    #[test]
    fn schemas_are_self_consistent_and_adapters_fill_them() {
        for (i, s) in SCHEMAS.iter().enumerate() {
            assert!(!s.strings.is_empty(), "{}: needs a case key", s.id);
            for f in s.summary {
                s.field(f);
            }
            for f in s.exact {
                assert!(s.summary.contains(f), "{}: exact {f} not summarized", s.id);
            }
            assert!(SCHEMAS[..i].iter().all(|o| o.id != s.id), "duplicate id");
        }
        let shape = |(strings, ints): (Vec<String>, Vec<u64>), s: &Schema| {
            assert_eq!((strings.len(), ints.len()), (s.strings.len(), s.ints.len()));
        };
        shape(small_cases(4, 4, 4)[0].attrs(), &TRAIN);
        shape(mode_cases(4, 3, 6)[0].attrs(), &MODES);
        shape(SERVE_PRESETS[0].attrs(), &SERVE);
        assert_eq!(SERVE_PRESETS[0].attrs().1, vec![10_000]);
    }

    /// Parse each committed baseline, render it again, and require the
    /// original bytes back (modulo the host-noise `wall_seconds` lines) —
    /// the determinism CI checks after full sweeps, minus the sweeps.
    #[test]
    fn committed_baselines_rerender_byte_for_byte() {
        let strip = |text: &str| -> String {
            text.lines()
                .filter(|l| !l.contains("\"wall_seconds\""))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let files = [
            ("BENCH_pr5.json", include_str!("../BENCH_pr5.json"), &TRAIN),
            ("BENCH_pr6.json", include_str!("../BENCH_pr6.json"), &MODES),
            ("BENCH_pr9.json", include_str!("../BENCH_pr9.json"), &SERVE),
        ];
        for (name, text, schema) in files {
            let parsed = Report::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed.schema, schema, "{name}");
            assert!(!parsed.cases.is_empty(), "{name}");
            assert_eq!(strip(&parsed.to_json()), strip(text), "{name} re-rendered");
            assert_eq!(compare(&parsed, &parsed, 0), Ok(vec![]), "{name} self-gate");
        }
        // The mode baseline has no wall line to strip: it is exact as is.
        let modes = include_str!("../BENCH_pr6.json");
        assert_eq!(Report::from_json(modes).unwrap().to_json(), modes);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = train(vec![summary("kddb-lr", 1_000_000)]);
        let ok = train(vec![summary("kddb-lr", 1_049_000)]);
        let bad = train(vec![summary("kddb-lr", 1_051_000)]);
        assert!(compare(&base, &ok, 50).unwrap().is_empty());
        let v = compare(&base, &bad, 50).unwrap();
        assert!(!v.is_empty(), "5.1% over a 5% gate must fail");
        assert!(v[0].contains("virtual_ns"), "got: {}", v[0]);
    }

    #[test]
    fn gate_flags_missing_cases_but_not_improvements() {
        let base = train(vec![
            summary("kddb-lr", 1_000_000),
            summary("kdd12-lr", 500_000),
        ]);
        let cand = train(vec![summary("kddb-lr", 900_000)]);
        let v = compare(&base, &cand, 50).unwrap();
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("kdd12-lr missing"), "got: {}", v[0]);
    }

    #[test]
    fn gate_rejects_a_schema_mismatch() {
        let base = train(vec![summary("kddb-lr", 1_000_000)]);
        let cand = report(&SERVE, vec![serve_summary("serve-kddb", 210_000, 200_000)]);
        let err = compare(&base, &cand, 50).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // Even two empty reports of different kinds never pass.
        assert!(compare(&report(&MODES, vec![]), &train(vec![]), 50).is_err());
    }

    #[test]
    fn json_round_trip_preserves_runs_and_aggregates() {
        let report = train(vec![
            summary("kddb-lr", 1_000_000),
            summary("kdd12-lbfgs", 123),
        ]);
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema, &TRAIN);
        assert_eq!(parsed.cases, report.cases);
        // Serialization itself is stable.
        assert_eq!(report.to_json(), parsed.to_json());
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(Report::from_json(r#"{"schema": "nope", "cases": []}"#).is_err());
        assert!(Report::from_json(r#"{"schema": "ps2-hostprof-v1", "cases": []}"#).is_err());
        assert!(Report::from_json("[]").is_err());
    }

    #[test]
    fn wall_seconds_lives_on_its_own_strippable_line() {
        let report = train(vec![summary("kddb-lr", 1_000_000)]);
        let text = report.to_json();
        let wall_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"wall_seconds\""))
            .collect();
        assert_eq!(wall_lines, ["      \"wall_seconds\": [0.042000],"]);
        // Stripping the line leaves valid JSON — the pre-wall document.
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("\"wall_seconds\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = Report::from_json(&stripped).unwrap();
        assert_eq!(
            parsed.cases[0].runs[0].wall_ns, None,
            "stripped wall reads as none"
        );
        assert_eq!(parsed.cases[0].wall(), None);
        assert_eq!(parsed.cases[0].stat(0), report.cases[0].stat(0));
        // ...and renders back without the line.
        assert_eq!(parsed.to_json(), stripped);
    }

    #[test]
    fn wall_gate_is_soft_until_4x() {
        let base = train(vec![summary("kddb-lr", 1_000_000)]);
        let mut slow = base.clone();
        // 3.9x the baseline wall: host noise, not a violation.
        slow.cases[0].runs[0].wall_ns = Some(42_000_000 * 39 / 10);
        assert!(compare(&base, &slow, 50).unwrap().is_empty());
        slow.cases[0].runs[0].wall_ns = Some(42_000_000 * 5);
        let v = compare(&base, &slow, 50).unwrap();
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("wall_ns"), "got: {}", v[0]);
        // A side without a wall measurement disables the check.
        slow.cases[0].runs[0].wall_ns = None;
        assert!(compare(&base, &slow, 50).unwrap().is_empty());
    }

    fn serve_summary(preset: &str, p99: i64, pulls: i64) -> Case {
        let mut run = Run::named(
            &SERVE,
            1,
            &[
                ("virtual_ns", 400_000_000),
                ("pulls", pulls),
                ("p99_ns", p99),
                ("p999_ns", p99 * 2),
                ("total_msgs", 2 * pulls),
                ("total_bytes", 600 * pulls),
            ],
        );
        run.wall_ns = Some(1_500_000_000);
        Case {
            strings: vec![preset.to_string()],
            ints: vec![10_000],
            runs: vec![run],
        }
    }

    #[test]
    fn serve_json_round_trip_preserves_runs() {
        let report = report(
            &SERVE,
            vec![
                serve_summary("serve-kddb", 210_000, 200_000),
                serve_summary("serve-kdd12", 220_000, 320_000),
            ],
        );
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema, &SERVE);
        assert_eq!(parsed.cases, report.cases);
        assert_eq!(report.to_json(), parsed.to_json());
    }

    #[test]
    fn serve_gate_flags_tail_regressions_and_pull_count_changes() {
        let serve = |case| report(&SERVE, vec![case]);
        let base = serve(serve_summary("serve-kddb", 210_000, 200_000));
        // Within tolerance: clean.
        let ok = serve(serve_summary("serve-kddb", 215_000, 200_000));
        assert!(compare(&base, &ok, 50).unwrap().is_empty());
        // p999 regression past tolerance: flagged.
        let slow = serve(serve_summary("serve-kddb", 260_000, 200_000));
        let v = compare(&base, &slow, 50).unwrap();
        assert!(v.iter().any(|l| l.contains("p99")), "got: {v:?}");
        // Any change in the open-loop pull count: flagged even if "better".
        let fewer = serve(serve_summary("serve-kddb", 210_000, 199_999));
        let v = compare(&base, &fewer, 50).unwrap();
        assert!(v.iter().any(|l| l.contains("pulls")), "got: {v:?}");
        // Missing case: coverage must not shrink.
        let v = compare(&base, &report(&SERVE, vec![]), 50).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }

    #[test]
    fn serve_presets_have_named_slos() {
        for preset in SERVE_PRESETS {
            let objectives = preset_slos(Some(preset));
            assert!(
                objectives.iter().any(|o| o.name.contains(preset)),
                "{preset}: objectives must carry the preset name"
            );
        }
    }

    fn mode_run(seed: u64, virtual_ns: i64, loss: i64) -> Run {
        let mut run = Run::named(
            &MODES,
            seed,
            &[
                ("virtual_ns", virtual_ns),
                ("final_loss_micro", loss),
                ("iterations", 24),
                ("total_msgs", 200),
                ("total_bytes", 4_000),
            ],
        );
        run.curve = vec![(virtual_ns as u64 / 2, loss * 2), (virtual_ns as u64, loss)];
        run
    }

    fn mode_summary(name: &str, mode: &str, virtual_ns: i64, loss: i64) -> Case {
        Case {
            strings: [name, "kddb", "lr", mode].map(str::to_string).to_vec(),
            ints: vec![4, 3, 6],
            runs: vec![mode_run(1, virtual_ns, loss)],
        }
    }

    #[test]
    fn mode_grid_covers_presets_algorithms_and_modes() {
        let cases = mode_cases(4, 3, 6);
        assert_eq!(cases.len(), 12);
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"kddb-lr-bsp"));
        assert!(names.contains(&"kddb-svm-ssp2"));
        assert!(names.contains(&"kdd12-svm-async"));
        // Every spelled mode parses.
        for c in &cases {
            ConsistencyMode::parse(&c.mode).unwrap();
        }
    }

    #[test]
    fn mode_json_round_trip_preserves_curves() {
        let report = report(
            &MODES,
            vec![
                mode_summary("kddb-lr-bsp", "bsp", 1_000_000, 650_000),
                mode_summary("kddb-lr-ssp2", "ssp:2", 700_000, 655_000),
            ],
        );
        let text = report.to_json();
        assert!(
            !text.contains("wall_seconds"),
            "mode runs carry no wall time"
        );
        let parsed = Report::from_json(&text).unwrap();
        assert_eq!(parsed.schema, &MODES);
        assert_eq!(parsed.cases, report.cases);
        assert_eq!(parsed.cases[1].runs[0].curve.len(), 2);
        assert_eq!(text, parsed.to_json());
    }

    #[test]
    fn mode_gate_flags_convergence_regressions() {
        let modes = |case| report(&MODES, vec![case]);
        let base = modes(mode_summary("kddb-lr-async", "async", 1_000_000, 600_000));
        // Faster but converging visibly worse: still a violation.
        let worse_loss = modes(mode_summary("kddb-lr-async", "async", 800_000, 700_000));
        let v = compare(&base, &worse_loss, 50).unwrap();
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("final_loss_micro"), "got: {}", v[0]);
        // Within tolerance on every axis: clean.
        let ok = modes(mode_summary("kddb-lr-async", "async", 1_020_000, 610_000));
        assert!(compare(&base, &ok, 50).unwrap().is_empty());
        // Missing case: coverage must not shrink.
        let v = compare(&base, &report(&MODES, vec![]), 50).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }

    fn host_case(name: &str, wall_median: u64) -> HostCase {
        HostCase {
            name: name.to_string(),
            wall_ns: Stat {
                min: wall_median / 2,
                median: wall_median,
                max: wall_median * 2,
            },
            scopes: vec![
                HostScopeRow {
                    scope: "sched.dispatch".to_string(),
                    calls: 100,
                    total_ns: 9_000_000,
                    self_ns: 4_000_000,
                    allocs: 12,
                    alloc_bytes: 4096,
                },
                HostScopeRow {
                    scope: "codec.encode".to_string(),
                    calls: 50,
                    total_ns: 2_000_000,
                    self_ns: 2_000_000,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn host_json_round_trip_preserves_scope_tables() {
        let report = HostReport {
            alloc_counted: true,
            cases: vec![
                host_case("lr-sgd \"quoted\"", 42_000_000),
                host_case("svm", 7),
            ],
        };
        let text = report.to_json();
        assert!(text.contains("\"schema\": \"ps2-hostprof-v1\""));
        // wall_seconds is the derived headline: median/1e9 at 6 decimals.
        assert!(text.contains("\"wall_seconds\": 0.042000"), "{text}");
        let parsed = HostReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
        // Render → parse → render is a fixed point.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn host_case_aggregates_profiles_across_seeds() {
        use crate::simnet::ScopeStat;
        let p1 = HostProfile {
            wall_ns: 10,
            alloc_counted: true,
            scopes: vec![ScopeStat {
                name: "codec.encode",
                calls: 1,
                total_ns: 5,
                self_ns: 5,
                allocs: 2,
                alloc_bytes: 64,
            }],
        };
        let p2 = HostProfile {
            wall_ns: 30,
            alloc_counted: true,
            scopes: vec![
                ScopeStat {
                    name: "codec.encode",
                    calls: 3,
                    total_ns: 10,
                    self_ns: 7,
                    allocs: 1,
                    alloc_bytes: 32,
                },
                ScopeStat {
                    name: "sched.dispatch",
                    calls: 9,
                    total_ns: 100,
                    self_ns: 90,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
        };
        let c = HostCase::of("x".to_string(), &[p1, p2]);
        assert_eq!(
            c.wall_ns,
            Stat {
                min: 10,
                median: 20,
                max: 30
            }
        );
        // Rows summed by scope name, sorted by self_ns descending.
        assert_eq!(c.scopes.len(), 2);
        assert_eq!(c.scopes[0].scope, "sched.dispatch");
        assert_eq!(c.scopes[1].scope, "codec.encode");
        assert_eq!(c.scopes[1].calls, 4);
        assert_eq!(c.scopes[1].total_ns, 15);
        assert_eq!(c.scopes[1].self_ns, 12);
        assert_eq!(c.scopes[1].allocs, 3);
        assert_eq!(c.scopes[1].alloc_bytes, 96);
    }

    #[test]
    fn host_gate_flags_wall_slowdowns_only() {
        let base = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 100_000_000)],
        };
        // 2x wall at 300% tolerance (the CI default): fine.
        let double = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 200_000_000)],
        };
        assert!(compare_host(&base, &double, 3000).is_empty());
        // 5x wall: flagged.
        let blowup = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 500_000_000)],
        };
        let v = compare_host(&base, &blowup, 3000);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("wall_ns"), "got: {}", v[0]);
        // Scope-table drift alone never gates.
        let mut shuffled = base.clone();
        shuffled.cases[0].scopes[0].self_ns *= 100;
        assert!(compare_host(&base, &shuffled, 3000).is_empty());
        // Missing case: coverage must not shrink.
        let v = compare_host(&base, &HostReport::default(), 3000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }
}
