//! Tests for the SSP training mode.

use ps2_data::SparseDatasetGen;
use ps2_ml::modes::{run_mode, ModeAlgo, ModeConfig};
use ps2_ps::ConsistencyMode;
use ps2_simnet::SimTime;

fn base_cfg() -> ModeConfig {
    ModeConfig::new(
        SparseDatasetGen::new(2_000, 3_000, 12, 4, 7),
        4,
        3,
        ConsistencyMode::Ssp { bound: 0 },
    )
}

#[test]
fn bsp_mode_converges() {
    let mut cfg = base_cfg();
    cfg.mode = ConsistencyMode::Ssp { bound: 0 };
    cfg.iterations = 25;
    let (trace, report) = run_mode(&cfg, ModeAlgo::Lr);
    assert!(trace.is_sane());
    assert_eq!(trace.points.len(), 25);
    assert!(
        trace.final_loss() < trace.points[0].1 * 0.95,
        "{:?} -> {:?}",
        trace.points.first(),
        trace.points.last()
    );
    assert!(report.total_msgs > 0);
}

#[test]
fn staleness_bound_is_respected_by_the_clock_daemon() {
    // With a severe straggler and s = 2, fast workers can be at most 3
    // iterations ahead at any point. We verify via the merged trace's
    // per-iteration spread: the run completes (no deadlock) and the total
    // time is governed by the straggler under BSP.
    let mut bsp = base_cfg();
    bsp.mode = ConsistencyMode::Ssp { bound: 0 };
    bsp.iterations = 10;
    bsp.straggler_slowdown = SimTime::from_millis(50);
    let (bsp_trace, _) = run_mode(&bsp, ModeAlgo::Lr);
    // Every BSP iteration waits for the straggler: ≥ 50ms apart.
    for w in bsp_trace.points.windows(2) {
        assert!(
            w[1].0 - w[0].0 > 0.045,
            "BSP iterations must be straggler-paced: {:?}",
            bsp_trace.points
        );
    }
}

#[test]
fn ssp_outpaces_bsp_under_stragglers() {
    let run = |staleness: u32| {
        let mut cfg = base_cfg();
        cfg.mode = ConsistencyMode::Ssp { bound: staleness };
        cfg.iterations = 20;
        cfg.straggler_slowdown = SimTime::from_millis(40);
        let (trace, _) = run_mode(&cfg, ModeAlgo::Lr);
        trace
    };
    let bsp = run(0);
    let ssp = run(4);
    // The non-straggler workers finish their 20 iterations much earlier
    // under SSP; the merged trace's final stamp is the straggler either
    // way, but intermediate iterations complete sooner.
    let mid = bsp.points.len() / 2;
    assert!(
        ssp.points[mid].0 < bsp.points[mid].0,
        "SSP should reach iteration {mid} sooner: {:.3} vs {:.3}",
        ssp.points[mid].0,
        bsp.points[mid].0
    );
    // And still actually learn.
    assert!(ssp.final_loss() < ssp.points[0].1);
}

#[test]
fn ssp_runs_are_deterministic() {
    let run = || {
        let mut cfg = base_cfg();
        cfg.mode = ConsistencyMode::Ssp { bound: 2 };
        cfg.iterations = 8;
        let (trace, report) = run_mode(&cfg, ModeAlgo::Lr);
        (trace.points, report.total_bytes)
    };
    assert_eq!(run(), run());
}
