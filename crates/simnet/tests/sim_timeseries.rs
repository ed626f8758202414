//! The windowed-telemetry invariant: scraping must not perturb the
//! simulation. A scraped run's `SimReport` — timing, trace, metrics, per-proc
//! stats — is byte-identical to an unscraped same-seed run's.

use ps2_simnet::{Envelope, Proc, ProcId, SimBuilder, SimReport, SimTime, StepCtx};

/// A small but busy workload: a server daemon answering calls, four clients
/// computing and calling in a loop, metrics of all three kinds recorded.
fn workload(scrape: Option<SimTime>) -> SimReport {
    let mut builder = SimBuilder::new().seed(11).trace(true);
    if let Some(window) = scrape {
        builder = builder.timeseries(window);
    }
    let mut sim = builder.build();
    let server = sim.spawn_daemon("server", |ctx| loop {
        let env = ctx.recv();
        ctx.metric_add("srv.reqs", 1);
        ctx.advance(SimTime::from_micros(50));
        ctx.reply(&env, 1u64, 64);
    });
    for c in 0..4 {
        sim.spawn(&format!("client-{c}"), move |ctx| {
            for i in 0..20i64 {
                let t0 = ctx.now();
                ctx.advance(SimTime::from_micros(100 + 37 * c));
                let _ = ctx.call(server, 1, i as u64, 256);
                ctx.metric_add("cli.calls", 1);
                ctx.metric_gauge_set("cli.last_iter", i);
                ctx.metric_observe("cli.rtt", ctx.now() - t0);
            }
        });
    }
    sim.run().unwrap()
}

#[test]
fn scraped_run_is_byte_identical_to_unscraped_run() {
    let plain = workload(None);
    let scraped = workload(Some(SimTime::from_millis(1)));

    assert!(plain.timeseries.is_none());
    assert!(scraped.timeseries.is_some());

    // Every observable of the run is unchanged by scraping.
    assert_eq!(plain.virtual_time, scraped.virtual_time);
    assert_eq!(plain.total_msgs, scraped.total_msgs);
    assert_eq!(plain.total_bytes, scraped.total_bytes);
    assert_eq!(plain.dropped_msgs, scraped.dropped_msgs);
    assert_eq!(plain.procs, scraped.procs);
    assert_eq!(plain.trace, scraped.trace);
    assert_eq!(plain.metrics, scraped.metrics);
    assert_eq!(plain.labels, scraped.labels);
}

#[test]
fn scraping_itself_is_deterministic() {
    let a = workload(Some(SimTime::from_millis(1)));
    let b = workload(Some(SimTime::from_millis(1)));
    assert_eq!(a.timeseries, b.timeseries);
    assert_eq!(
        a.timeseries.unwrap().to_json(),
        b.timeseries.unwrap().to_json()
    );
}

#[test]
fn window_deltas_sum_to_final_counters() {
    let report = workload(Some(SimTime::from_millis(1)));
    let ts = report.timeseries.as_ref().unwrap();
    assert!(ts.windows.len() > 1, "workload must span several windows");
    assert_eq!(ts.dropped_windows, 0);

    for name in ["cli.calls", "srv.reqs", "net.wire_ns"] {
        let windowed: u64 = ts.windows.iter().map(|w| w.counter(name)).sum();
        assert_eq!(windowed, report.metrics.counter(name), "{name}");
    }
    let rtts: u64 = ts
        .windows
        .iter()
        .filter_map(|w| w.hists.get("cli.rtt"))
        .map(|h| h.count)
        .sum();
    assert_eq!(rtts, report.metrics.hist("cli.rtt").unwrap().count());

    // Per-proc busy deltas add up the same way.
    for (i, p) in report.procs.iter().enumerate() {
        let windowed: u64 = ts
            .windows
            .iter()
            .filter_map(|w| w.procs.get(i))
            .map(|s| s.busy_ns)
            .sum();
        assert_eq!(windowed, p.busy.as_nanos(), "busy of proc {i} ({})", p.name);
    }

    // Complete windows end on boundaries; the tail ends at the run's end.
    for w in &ts.windows[..ts.windows.len() - 1] {
        assert_eq!(w.end_ns, (w.index + 1) * ts.window_ns);
    }
    let last = ts.windows.last().unwrap();
    assert!(last.end_ns <= report.virtual_time.as_nanos() + ts.window_ns);

    // The final gauge sample matches the registry.
    assert_eq!(
        last.gauge("cli.last_iter"),
        report.metrics.gauge("cli.last_iter")
    );
}

#[test]
fn ring_capacity_bounds_memory_and_counts_evictions() {
    let mut sim = SimBuilder::new()
        .seed(3)
        .timeseries_capacity(SimTime::from_micros(10), 8)
        .build();
    sim.spawn("lone", |ctx| {
        for _ in 0..50 {
            ctx.advance(SimTime::from_micros(10));
            ctx.metric_add("ticks", 1);
        }
    });
    let report = sim.run().unwrap();
    let ts = report.timeseries.unwrap();
    assert!(ts.windows.len() <= 8);
    assert!(ts.dropped_windows > 0);
    // Retained windows are contiguous and end at the newest.
    let first = ts.windows.first().unwrap().index;
    for (k, w) in ts.windows.iter().enumerate() {
        assert_eq!(w.index, first + k as u64);
    }
    assert_eq!(first, ts.dropped_windows);
}

#[test]
fn marks_on_dead_runs_do_not_panic_the_scraper() {
    // A killed proc mid-run: scraping must survive mailbox/process churn.
    let mut sim = SimBuilder::new()
        .seed(5)
        .timeseries(SimTime::from_micros(100))
        .build();
    let victim = sim.spawn_daemon("victim", |ctx| loop {
        let _ = ctx.recv();
    });
    sim.spawn("killer", move |ctx| {
        for _ in 0..5 {
            ctx.send(victim, 1, 0u64, 128);
            ctx.advance(SimTime::from_micros(120));
        }
        ctx.kill(victim);
        ctx.send(victim, 1, 0u64, 128);
        ctx.advance(SimTime::from_micros(500));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.dropped_msgs, 1);
    assert!(report.timeseries.unwrap().windows.len() >= 5);
}

/// Fires one timer at `at`; on it, optionally sends a one-way message to
/// `peer` (whose per-message overhead moves the agent's clock), then bumps
/// `counter` and finishes.
struct TimerAgent {
    at: SimTime,
    peer: Option<ProcId>,
    counter: &'static str,
}

impl Proc for TimerAgent {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        ctx.set_timer(self.at);
    }
    fn on_message(&mut self, _ctx: &mut StepCtx<'_>, _env: Envelope) {}
    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 1, (), 64);
        }
        ctx.metric_add(self.counter, 1);
        ctx.finish();
    }
}

#[test]
fn agent_step_telemetry_lands_in_the_step_start_window() {
    // Window boundary at 10 us. Agent `a` steps at 9 us and sends: the
    // 2 us send overhead carries its clock to 11 us before it records its
    // counter. Agent `b` steps at 9.5 us. Both events start before the
    // boundary, so both counters belong to window 0 — `a`'s post-send
    // metric must not close window 0 before `b` has run.
    let mut sim = SimBuilder::new()
        .seed(1)
        .timeseries(SimTime::from_micros(10))
        .build();
    let b = sim.spawn_agent(
        "b",
        TimerAgent {
            at: SimTime(9_500),
            peer: None,
            counter: "b.events",
        },
    );
    sim.spawn_agent(
        "a",
        TimerAgent {
            at: SimTime::from_micros(9),
            peer: Some(b),
            counter: "a.events",
        },
    );
    let report = sim.run().unwrap();
    let ts = report.timeseries.as_ref().unwrap();
    let w0 = ts.windows.iter().find(|w| w.index == 0).expect("window 0");
    assert_eq!(w0.end_ns, 10_000);
    assert_eq!(w0.counter("a.events"), 1, "a's step started at 9 us");
    assert_eq!(w0.counter("b.events"), 1, "b's step started at 9.5 us");
    let later: u64 = ts
        .windows
        .iter()
        .filter(|w| w.index > 0)
        .map(|w| w.counter("a.events") + w.counter("b.events"))
        .sum();
    assert_eq!(later, 0);
}
