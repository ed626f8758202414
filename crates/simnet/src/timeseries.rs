//! Windowed telemetry: a virtual-time scraper over the metrics registry.
//!
//! The flight recorder ([`crate::metrics`]) answers *how much* — whole-run
//! totals. This module answers *when*: the runtime snapshots the registry
//! every `window` of virtual time into per-metric series, so phase-local
//! pathologies (a hot-row flare-up in one training phase, a straggler that
//! only appears after fleet recovery, a convergence stall forty iterations
//! in) stop being averaged away.
//!
//! ## Determinism constraints (same invariant as the flight recorder)
//!
//! Scraping is **not** a scheduler yield point and spawns no process: it is
//! driven lazily from inside the runtime's existing lock, and no sampling
//! process is needed. A scraped run is **byte-identical** (same `SimReport`
//! statistics, same trace, same metrics) to an unscraped same-seed run;
//! `crates/simnet/tests/sim_timeseries.rs` asserts this.
//!
//! ## Window attribution
//!
//! The window ending at boundary `B` holds every registry mutation made by
//! an *event that started before `B`*:
//!
//! * **Agent steps** roll once, at the step's effective start time (the
//!   mail's arrival or the timer's fire time, clamped to the agent's
//!   clock). Everything the hook then records — including metrics recorded
//!   after `advance` or a send's per-message overhead carried the agent's
//!   clock past `B` — belongs to the step's start window. The scheduler
//!   steps events in start-time order, so no event that starts before `B`
//!   can run after `B` was rolled, and a window's counts are exactly the
//!   counts of the events scheduled inside it (the serve benchmark's
//!   per-window arrival check depends on this).
//! * **Thread procs** keep per-mutation attribution: they roll at their own
//!   clock before each clock advance, send and metric. Every clock move of
//!   a thread proc is a yield point, so this never closes a window early,
//!   but it attributes differently. *Known limit:* a thread proc's metric
//!   recorded after its reply's send overhead carried it past `B` lands in
//!   the window after `B`, where an agent doing the same work would count
//!   it in the window its step started in. A run mixing the two models can
//!   thus put the two halves of one request-handling event in different
//!   windows. Serving runs keep only the coordinator on threads, so their
//!   windows follow the agent rule.
//!
//! ## What a window records
//!
//! * **Counters** become per-window deltas (a rate once divided by the
//!   window length).
//! * **Gauges** are sampled: the value as of the window's end.
//! * **Histograms** become per-window `(count, sum_ns)` deltas.
//! * **Per process**: busy-time delta and mailbox depth at the window end —
//!   the inputs of the straggler and queue-growth detectors in
//!   [`crate::watchdog`].
//!
//! Windows live in a ring buffer of bounded `capacity`; when a run outlives
//! it, the oldest windows are dropped (and counted), never resized — memory
//! stays bounded and layout never depends on the data.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::metrics::{json_str, MetricsSnapshot};
use crate::time::SimTime;

/// Default ring capacity: enough for the benches' runs at millisecond
/// windows without unbounded growth on pathological configs.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Per-window delta of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistDelta {
    /// Observations recorded within the window.
    pub count: u64,
    /// Sum of the durations recorded within the window, in nanoseconds.
    pub sum_ns: u64,
    /// Sparse log-linear bucket deltas `(bucket index, count)` in index
    /// order — the window's own sample distribution, so per-window tail
    /// quantiles (p99/p999) are computable, which is what the watchdog's
    /// SLO burn-rate detector consumes.
    pub buckets: Vec<(u32, u64)>,
}

impl HistDelta {
    /// Quantile upper bound over this window's samples (log-linear bucket
    /// resolution: within `2^-SUB_BITS` ≈ 3.1% of the true value). Zero for
    /// an empty window.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        crate::metrics::sparse_quantile_ns(&self.buckets, self.count, q)
    }

    /// Samples in this window strictly above `target_ns`'s bucket — the
    /// "bad event" count of a latency SLO. Boundary samples inside the
    /// target's own bucket count as good (one-bucket blur, ≤ 3.1%).
    pub fn over_target(&self, target_ns: u64) -> u64 {
        let cut = crate::metrics::bucket_of(target_ns) as u32;
        self.buckets
            .iter()
            .filter(|&&(k, _)| k > cut)
            .map(|&(_, c)| c)
            .sum()
    }
}

/// Delta between two sparse bucket lists (both in index order; `cur` has
/// grown monotonically from `prev`).
fn sparse_delta(cur: &[(u32, u64)], prev: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let mut pi = 0usize;
    for &(k, c) in cur {
        while pi < prev.len() && prev[pi].0 < k {
            pi += 1;
        }
        let p = if pi < prev.len() && prev[pi].0 == k {
            prev[pi].1
        } else {
            0
        };
        if c > p {
            out.push((k, c - p));
        }
    }
    out
}

/// One process's sample inside a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcSample {
    /// Busy (compute) time charged within the window, in nanoseconds.
    pub busy_ns: u64,
    /// Mailbox depth as of the window's end.
    pub mailbox: u64,
}

/// One completed scrape window.
#[derive(Clone, Debug, PartialEq)]
pub struct TsWindow {
    /// Window index: the window covers virtual time
    /// `[index * window_ns, end_ns)`.
    pub index: u64,
    /// End of the window. `(index + 1) * window_ns` for complete windows;
    /// earlier for the final partial window flushed at run end.
    pub end_ns: u64,
    /// Counter deltas within the window (zero deltas omitted).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values as of the window's end (every gauge ever set).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram deltas within the window (empty deltas omitted).
    pub hists: BTreeMap<String, HistDelta>,
    /// Per-process samples, indexed like `SimReport::procs`. Processes
    /// spawned after this window closed are absent.
    pub procs: Vec<ProcSample>,
}

impl TsWindow {
    /// Counter delta, zero when the counter did not move in this window.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value at the window's end, if set by then.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Sum of counter deltas whose key starts with `prefix`.
    pub fn counter_sum_prefixed(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }
}

/// The scraped series of a finished run, carried on
/// [`SimReport::timeseries`](crate::SimReport::timeseries).
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Scrape interval in virtual nanoseconds.
    pub window_ns: u64,
    /// Windows in index order. The first retained window's index is
    /// `dropped_windows` when the ring overflowed.
    pub windows: Vec<TsWindow>,
    /// Oldest windows evicted by the ring buffer.
    pub dropped_windows: u64,
}

impl TimeSeries {
    /// The window covering virtual time `t`, if retained.
    pub fn window_at(&self, t: SimTime) -> Option<&TsWindow> {
        let idx = t.as_nanos() / self.window_ns.max(1);
        self.windows.iter().find(|w| w.index == idx)
    }

    /// Serialize to JSON in the workspace's hand-rolled style: integers and
    /// `BTreeMap` order only, byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"window_ns\": {},", self.window_ns);
        let _ = writeln!(s, "  \"dropped_windows\": {},", self.dropped_windows);
        s.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            let _ = write!(s, "    {{\"index\": {}, \"end_ns\": {}", w.index, w.end_ns);
            s.push_str(", \"counters\": {");
            for (j, (k, v)) in w.counters.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{}: {}",
                    if j == 0 { "" } else { ", " },
                    json_str(k),
                    v
                );
            }
            s.push_str("}, \"gauges\": {");
            for (j, (k, v)) in w.gauges.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{}: {}",
                    if j == 0 { "" } else { ", " },
                    json_str(k),
                    v
                );
            }
            s.push_str("}, \"hists\": {");
            for (j, (k, h)) in w.hists.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{}: {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [",
                    if j == 0 { "" } else { ", " },
                    json_str(k),
                    h.count,
                    h.sum_ns
                );
                for (bi, &(bk, bc)) in h.buckets.iter().enumerate() {
                    let _ = write!(s, "{}[{}, {}]", if bi == 0 { "" } else { ", " }, bk, bc);
                }
                s.push_str("]}");
            }
            s.push_str("}, \"procs\": [");
            for (j, p) in w.procs.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}[{}, {}]",
                    if j == 0 { "" } else { ", " },
                    p.busy_ns,
                    p.mailbox
                );
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.windows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The in-run recorder. Lives inside the runtime's shared state; the
/// runtime calls [`TsRecorder::due`] (one comparison) before every registry
/// or clock mutation and [`TsRecorder::roll`] only when a window boundary
/// has been crossed.
#[derive(Debug)]
pub(crate) struct TsRecorder {
    window_ns: u64,
    capacity: usize,
    /// Nanosecond timestamp of the next boundary to emit
    /// (`(completed + 1) * window_ns`).
    next_boundary: u64,
    /// Complete windows emitted so far (== index of the next one).
    completed: u64,
    /// Registry state as of the last emitted boundary.
    last: MetricsSnapshot,
    /// Per-proc busy as of the last emitted boundary.
    last_busy: Vec<u64>,
    windows: VecDeque<TsWindow>,
    dropped: u64,
}

impl TsRecorder {
    pub(crate) fn new(window: SimTime, capacity: usize) -> TsRecorder {
        let window_ns = window.as_nanos().max(1);
        TsRecorder {
            window_ns,
            capacity: capacity.max(1),
            next_boundary: window_ns,
            completed: 0,
            last: MetricsSnapshot::default(),
            last_busy: Vec::new(),
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Has virtual time `t` crossed the next window boundary?
    #[inline]
    pub(crate) fn due(&self, t: SimTime) -> bool {
        t.as_nanos() >= self.next_boundary
    }

    fn push(&mut self, w: TsWindow) {
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(w);
    }

    /// Build the delta window `[self.next_boundary - window_ns,
    /// self.next_boundary)` against `self.last`, then advance the baseline.
    fn emit(
        &mut self,
        end_ns: u64,
        metrics: &MetricsSnapshot,
        procs: &[(u64, u64)], // (busy_ns, mailbox)
    ) {
        let mut counters = BTreeMap::new();
        for (k, v) in metrics.counters() {
            let delta = v - self.last.counter(k);
            if delta > 0 {
                counters.insert(k.to_string(), delta);
            }
        }
        let gauges: BTreeMap<String, i64> =
            metrics.gauges().map(|(k, v)| (k.to_string(), v)).collect();
        let mut hists = BTreeMap::new();
        for (k, h) in metrics.hists() {
            let prev = self.last.hist(k);
            let (lc, ls) = prev.map(|p| (p.count(), p.sum_ns())).unwrap_or((0, 0));
            let count = h.count() - lc;
            if count > 0 {
                let prev_buckets = prev.map(|p| p.sparse_buckets()).unwrap_or_default();
                hists.insert(
                    k.to_string(),
                    HistDelta {
                        count,
                        sum_ns: h.sum_ns() - ls,
                        buckets: sparse_delta(&h.sparse_buckets(), &prev_buckets),
                    },
                );
            }
        }
        let samples: Vec<ProcSample> = procs
            .iter()
            .enumerate()
            .map(|(i, &(busy, mailbox))| ProcSample {
                busy_ns: busy - self.last_busy.get(i).copied().unwrap_or(0),
                mailbox,
            })
            .collect();
        self.push(TsWindow {
            index: self.completed,
            end_ns,
            counters,
            gauges,
            hists,
            procs: samples,
        });
        self.last = metrics.clone();
        self.last_busy = procs.iter().map(|&(b, _)| b).collect();
    }

    /// Emit every complete window up to virtual time `t`. The registry has
    /// not changed since the previous `roll`, so the first catch-up window
    /// carries the deltas and any further ones are empty repeats of the
    /// same state.
    pub(crate) fn roll(&mut self, t: SimTime, metrics: &MetricsSnapshot, procs: &[(u64, u64)]) {
        let mut first = true;
        while self.next_boundary <= t.as_nanos() {
            if first {
                self.emit(self.next_boundary, metrics, procs);
                first = false;
            } else {
                // Nothing moved between consecutive boundaries: an empty
                // delta window with the same sampled gauges/mailboxes.
                let gauges: BTreeMap<String, i64> =
                    metrics.gauges().map(|(k, v)| (k.to_string(), v)).collect();
                let samples: Vec<ProcSample> = procs
                    .iter()
                    .map(|&(_, mailbox)| ProcSample {
                        busy_ns: 0,
                        mailbox,
                    })
                    .collect();
                let w = TsWindow {
                    index: self.completed,
                    end_ns: self.next_boundary,
                    counters: BTreeMap::new(),
                    gauges,
                    hists: BTreeMap::new(),
                    procs: samples,
                };
                self.push(w);
            }
            self.completed += 1;
            self.next_boundary = (self.completed + 1) * self.window_ns;
        }
    }

    /// Run-end flush: emit the complete windows below `t`, then the final
    /// partial window `[completed * window_ns, t]`, and hand the series out.
    pub(crate) fn finish(
        mut self,
        t: SimTime,
        metrics: &MetricsSnapshot,
        procs: &[(u64, u64)],
    ) -> TimeSeries {
        self.roll(t, metrics, procs);
        // The trailing partial window, if anything happened after the last
        // boundary (or nothing ever crossed one).
        let start = self.completed * self.window_ns;
        if t.as_nanos() > start || self.completed == 0 {
            self.emit(t.as_nanos().max(start), metrics, procs);
        }
        TimeSeries {
            window_ns: self.window_ns,
            windows: self.windows.into_iter().collect(),
            dropped_windows: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for &(k, v) in pairs {
            m.add(k, v);
        }
        m
    }

    #[test]
    fn counters_become_windowed_deltas() {
        let mut r = TsRecorder::new(SimTime::from_millis(1), 64);
        let m1 = snap(&[("a", 3)]);
        assert!(!r.due(SimTime::from_micros(900)));
        assert!(r.due(SimTime::from_millis(1)));
        r.roll(SimTime::from_millis(1), &m1, &[(100, 0)]);
        let m2 = snap(&[("a", 8)]);
        let ts = r.finish(SimTime::from_micros(2_500), &m2, &[(250, 2)]);
        assert_eq!(ts.windows.len(), 3); // two complete + the partial tail
        assert_eq!(ts.windows[0].counter("a"), 3);
        assert_eq!(ts.windows[0].procs[0].busy_ns, 100);
        // Window 1 closes at 2 ms with the registry already at a=8.
        assert_eq!(ts.windows[1].counter("a"), 5);
        assert_eq!(ts.windows[1].procs[0].busy_ns, 150);
        assert_eq!(ts.windows[2].index, 2);
        assert_eq!(ts.windows[2].end_ns, 2_500_000);
        assert_eq!(ts.windows[2].counter("a"), 0);
        assert_eq!(ts.windows[2].procs[0].mailbox, 2);
    }

    #[test]
    fn idle_gaps_emit_empty_windows_and_ring_caps_them() {
        let mut r = TsRecorder::new(SimTime::from_millis(1), 4);
        let m = snap(&[("a", 1)]);
        // Jump 10 windows at once: ring keeps the newest 4.
        r.roll(SimTime::from_millis(10), &m, &[(7, 1)]);
        let ts = r.finish(SimTime::from_millis(10), &m, &[(7, 1)]);
        assert_eq!(ts.windows.len(), 4);
        assert_eq!(ts.dropped_windows, 6);
        assert_eq!(ts.windows.first().unwrap().index, 6);
        // Only the first emitted window carried the delta; it was dropped,
        // and the retained repeats are empty but keep the mailbox sample.
        assert_eq!(ts.windows[0].counter("a"), 0);
        assert_eq!(ts.windows[0].procs[0].mailbox, 1);
    }

    #[test]
    fn gauges_sample_and_hists_delta() {
        let mut r = TsRecorder::new(SimTime::from_millis(1), 64);
        let mut m = MetricsSnapshot::default();
        m.gauge_set("g", 5);
        m.observe("h", SimTime(100));
        m.observe("h", SimTime(200));
        r.roll(SimTime::from_millis(1), &m, &[]);
        m.gauge_set("g", -2);
        m.observe("h", SimTime(50));
        let ts = r.finish(SimTime::from_micros(1_500), &m, &[]);
        assert_eq!(ts.windows[0].gauge("g"), Some(5));
        assert_eq!(
            ts.windows[0].hists["h"],
            HistDelta {
                count: 2,
                sum_ns: 300,
                buckets: vec![
                    (crate::metrics::bucket_of(100) as u32, 1),
                    (crate::metrics::bucket_of(200) as u32, 1),
                ],
            }
        );
        assert_eq!(ts.windows[1].gauge("g"), Some(-2));
        assert_eq!(
            ts.windows[1].hists["h"],
            HistDelta {
                count: 1,
                sum_ns: 50,
                buckets: vec![(crate::metrics::bucket_of(50) as u32, 1)],
            }
        );
        // The second window's delta buckets see only its own sample, so the
        // per-window p999 tracks the window, not the run.
        assert_eq!(ts.windows[1].hists["h"].quantile_ns(0.999), 50);
        assert_eq!(ts.windows[0].hists["h"].over_target(150), 1);
        assert_eq!(ts.windows[0].hists["h"].over_target(500), 0);
    }

    #[test]
    fn window_at_finds_by_index() {
        let mut r = TsRecorder::new(SimTime::from_millis(1), 64);
        let m = snap(&[("a", 1)]);
        r.roll(SimTime::from_millis(3), &m, &[]);
        let ts = r.finish(SimTime::from_millis(3), &m, &[]);
        assert_eq!(ts.window_at(SimTime::from_micros(1_200)).unwrap().index, 1);
        assert!(ts.window_at(SimTime::from_millis(9)).is_none());
    }

    #[test]
    fn json_is_stable_and_integer_only() {
        let mut r = TsRecorder::new(SimTime::from_millis(1), 64);
        let m = snap(&[("a.b", 2)]);
        r.roll(SimTime::from_millis(1), &m, &[(10, 1)]);
        let ts = r.finish(SimTime::from_millis(1), &m, &[(10, 1)]);
        let j = ts.to_json();
        assert!(j.contains("\"window_ns\": 1000000"));
        assert!(j.contains("\"a.b\": 2"));
        assert!(j.contains("[10, 1]"));
        assert!(!j.contains('.') || j.contains("\"a.b\""), "{j}");
    }
}
