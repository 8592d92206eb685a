//! Observability-layer invariants, swept property-style.
//!
//! Two contracts from DESIGN.md §11:
//!
//! 1. **Attribution totality** — every stage of every lane charges exactly
//!    one of busy / mem-stall / queue-stall / idle per cycle, so the four
//!    buckets sum to the run's total cycles. Checked for every matrix of
//!    the Table II synthetic suite on clean runs, and for every injected
//!    fault kind on runs the machine survives.
//! 2. **Zero overhead when disabled** — tracing is observational: a traced
//!    run's outcome (cycles, stats, output bits) is identical to the
//!    untraced run, and the attribution counters ride checkpoints so
//!    strict replay covers them.

use matraptor_core::{
    Accelerator, FaultKind, FaultPlan, LaneAttribution, MatRaptorConfig, SliceRun, TraceConfig,
};
use matraptor_sparse::gen::suite::table2;
use matraptor_sparse::{gen, Coo, Csr};

fn campaign_config() -> MatRaptorConfig {
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 2_000;
    cfg
}

fn assert_totality(ctx: &str, attrs: &[LaneAttribution], total_cycles: u64) {
    assert!(!attrs.is_empty(), "{ctx}: no per-lane attribution recorded");
    for (lane, attr) in attrs.iter().enumerate() {
        for (stage, b) in attr.stages() {
            assert_eq!(
                b.total(),
                total_cycles,
                "{ctx}: lane{lane}.{stage} buckets {:?} must sum to total cycles",
                b.as_array()
            );
        }
    }
}

/// Clean runs across the full synthetic suite: totality holds for every
/// matrix, and the windowed trace reassembles to the cumulative counters.
#[test]
fn attribution_buckets_sum_to_total_cycles_across_the_suite() {
    let accel = Accelerator::new(campaign_config());
    let tcfg = TraceConfig { window: 128, ..TraceConfig::default() };
    for spec in table2() {
        let m = spec.generate(512, 7);
        let (outcome, trace) = accel
            .try_run_traced(&m, &m, None, &tcfg)
            .unwrap_or_else(|e| panic!("clean traced run failed on `{}`: {e}", spec.id));
        let stats = &outcome.stats;
        assert_totality(spec.id, &stats.per_lane_attribution, stats.total_cycles);
        assert_eq!(trace.total_cycles, stats.total_cycles);
        // Window deltas are a lossless decomposition of the cumulative
        // buckets: per stage, their sum is again the total cycle count.
        for lane in &trace.lanes {
            for pick in 0..4usize {
                let windowed: u64 = lane
                    .windows
                    .iter()
                    .map(|w| [w.spal, w.spbl, w.pe, w.writer][pick].iter().sum::<u64>())
                    .sum();
                assert_eq!(
                    windowed, stats.total_cycles,
                    "{}: lane{} stage {pick} windowed deltas lost cycles",
                    spec.id, lane.lane
                );
            }
        }
    }
}

/// Tracing is purely observational: the traced run's cycles, stats, and
/// output bits equal the untraced run's on the same inputs.
#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    let accel = Accelerator::new(campaign_config());
    let tcfg = TraceConfig::default();
    for spec in table2().into_iter().take(4) {
        let m = spec.generate(512, 9);
        let plain = accel.try_run(&m, &m).expect("clean run");
        let (traced, _) = accel.try_run_traced(&m, &m, None, &tcfg).expect("clean traced run");
        assert_eq!(traced.stats, plain.stats, "{}: stats diverged under tracing", spec.id);
        assert_eq!(traced.c.row_ptr(), plain.c.row_ptr());
        assert_eq!(traced.c.col_idx(), plain.c.col_idx());
        let tb: Vec<u64> = traced.c.values().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = plain.c.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(tb, pb, "{}: output bits diverged under tracing", spec.id);
    }
}

/// Lanes that drain early are retired and charged their idle cycles in
/// bulk: with every non-zero of A on lane 0's rows, every stage of every
/// lane still sums to the total cycles — per window of the trace too —
/// and the traced run equals the untraced one, on 2 and 8 lanes.
#[test]
fn retired_lanes_keep_totality_and_traced_runs_bit_identical() {
    let wide = MatRaptorConfig { watchdog_window: 2_000, ..MatRaptorConfig::default() };
    for cfg in [campaign_config(), wide] {
        let (n, lanes) = (64, cfg.num_lanes);
        let m = gen::uniform(n, n, 900, 5);
        let rows = m.iter().filter(|&(r, ..)| (r as usize).is_multiple_of(lanes)).collect();
        let a: Csr<f64> = Coo::from_triplets(n, n, rows).expect("in bounds").compress();
        let b = gen::uniform(n, n, 900, 6);
        let accel = Accelerator::new(cfg);
        let plain = accel.try_run(&a, &b).expect("clean run");
        let tcfg = TraceConfig { window: 128, ..TraceConfig::default() };
        let (traced, trace) = accel.try_run_traced(&a, &b, None, &tcfg).expect("traced run");
        let ctx = format!("{lanes} lanes");
        assert_eq!(traced.stats, plain.stats, "{ctx}: stats diverged under tracing");
        assert_eq!(traced.c.col_idx(), plain.c.col_idx());
        let bits = |c: &Csr<f64>| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&traced.c), bits(&plain.c), "{ctx}: output bits diverged under tracing");
        let total = plain.stats.total_cycles;
        assert_totality(&ctx, &plain.stats.per_lane_attribution, total);
        // Each window charges every stage exactly the window's length, so
        // a retired lane's owed cycles land in the window they belong to.
        for lane in &trace.lanes {
            for (i, w) in lane.windows.iter().enumerate() {
                let end = lane.windows.get(i + 1).map_or(total, |next| next.start);
                let per_stage = [w.spal, w.spbl, w.pe, w.writer].map(|s| s.iter().sum::<u64>());
                assert_eq!(per_stage, [end - w.start; 4], "{ctx}: lane{} window {i}", lane.lane);
            }
        }
    }
}

/// Totality under adversity: for every fault kind, any run the machine
/// completes still satisfies the invariant — injected stalls, refusals,
/// and overflows shift cycles *between* buckets, never out of them.
#[test]
fn attribution_totality_survives_every_fault_kind() {
    let cfg = campaign_config();
    let lanes = cfg.num_lanes;
    let accel = Accelerator::new(cfg);
    let a: Csr<f64> = gen::uniform(48, 48, 400, 11);
    let b: Csr<f64> = gen::uniform(48, 48, 400, 12);
    let mut completed = 0usize;
    for kind in FaultKind::ALL {
        for seed in 0..4u64 {
            let plan = FaultPlan::sample(kind, 11 ^ seed, lanes);
            // Detected faults abort without stats — nothing to check; any
            // run that *completes* must still account for every cycle.
            let run = accel.try_run_slice(&a, &b, Some(&plan), None, u64::MAX);
            if let Ok(outcome) = run.and_then(SliceRun::completed) {
                completed += 1;
                assert_totality(
                    &format!("{}/seed{}", kind.name(), seed),
                    &outcome.stats.per_lane_attribution,
                    outcome.stats.total_cycles,
                );
            }
        }
    }
    assert!(completed > 0, "no faulted run completed; the sweep checked nothing");
}

/// Attribution counters ride checkpoints: a run paused mid-flight and
/// resumed reports the same buckets as the uninterrupted run.
#[test]
fn attribution_survives_checkpoint_restore() {
    let accel = Accelerator::new(campaign_config());
    let a: Csr<f64> = gen::uniform(48, 48, 400, 21);
    let b: Csr<f64> = gen::uniform(48, 48, 400, 22);
    let full = accel.try_run(&a, &b).expect("clean run");
    let half = full.stats.total_cycles / 2;
    let ck = match accel.try_run_slice(&a, &b, None, None, half).expect("checkpointing run") {
        SliceRun::Paused(ck) => ck,
        SliceRun::Completed(_) => panic!("run should reach the halfway cycle"),
    };
    let ck = matraptor_core::Checkpoint::from_bytes(&ck.to_bytes()).expect("round-trip");
    let resumed = accel
        .try_run_slice(&a, &b, None, Some(&ck), u64::MAX)
        .and_then(SliceRun::completed)
        .expect("resume");
    assert_eq!(
        resumed.stats.per_lane_attribution, full.stats.per_lane_attribution,
        "attribution buckets must be identical across pause/serialize/resume"
    );
    assert_totality("resumed", &resumed.stats.per_lane_attribution, resumed.stats.total_cycles);
}
