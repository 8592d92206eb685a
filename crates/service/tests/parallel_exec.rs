//! Integration tests for the threaded fleet executor
//! (`matraptor_service::parallel`): resolution-core determinism across
//! thread counts, fault injection through the recovery ladder, the
//! lost-ack duplicate race, and total-retirement inline fallback.

use std::sync::Arc;

use matraptor_core::{Accelerator, FaultKind, FaultPlan};
use matraptor_service::parallel::{self, ParJob, ParRecord, ParallelConfig, ParallelError};
use matraptor_service::{
    fingerprint_output, Disposition, WorkerFault, WorkerFaultEvent, WorkerFaultPlan,
};
use matraptor_sparse::{gen, Csr};

fn jobs(count: u64, deadline: u64) -> Vec<ParJob> {
    (0..count)
        .map(|i| {
            let a = Arc::new(gen::uniform(16, 16, 60, i * 2 + 1));
            let b = Arc::new(gen::uniform(16, 16, 60, i * 2 + 2));
            ParJob { id: i, a, b, plan: None, deadline_cycles: deadline }
        })
        .collect()
}

fn base_cfg(threads: usize) -> ParallelConfig {
    let mut cfg = ParallelConfig::small_test();
    cfg.threads = threads;
    cfg
}

#[test]
fn resolution_core_is_identical_across_thread_counts() {
    let mut fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let report = parallel::run(base_cfg(threads), jobs(12, u64::MAX)).expect("run");
        assert_eq!(report.records.len(), 12);
        assert!(report.records.windows(2).all(|w| w[0].id < w[1].id), "id-sorted");
        assert!(report.records.iter().all(|r| r.disposition == Disposition::Completed));
        fingerprints.push(report.resolution_fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
}

#[test]
fn injected_panic_is_caught_and_recovered() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let mut cfg = base_cfg(2);
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_panics, 1);
    assert!(report.counters.panics_caught >= 1, "panic must be caught, not abort");
    assert!(report.counters.worker_restarts >= 1, "crash walks the restart rung");
    assert!(report.panic_census.iter().any(|p| p.injected && p.worker == 0));
    assert_eq!(
        report.resolution_fingerprint(),
        clean.resolution_fingerprint(),
        "a recovered crash must not perturb the resolution core"
    );
}

#[test]
fn injected_hang_is_detected_by_the_heartbeat_budget() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let mut cfg = base_cfg(2);
    // Keep the default hang budget (400 polls ≈ 80ms): a tighter budget
    // false-positives on ordinary scheduler noise, and a false recycle can
    // drop the still-pending injected hang from the slot's schedule.
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Hang,
    }]));
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_hangs, 1);
    assert!(report.counters.hangs_detected >= 1, "silent wedge must be detected");
    assert!(report.counters.worker_restarts >= 1);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn terminal_slowdown_is_recycled() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let mut cfg = base_cfg(2);
    cfg.terminal_slow_factor = 4;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::SlowDown { factor: 16 },
    }]));
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_slowdowns, 1);
    assert!(report.counters.slowness_detections >= 1);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn lost_ack_duplicate_is_suppressed() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let mut cfg = base_cfg(2);
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 1,
        kind: WorkerFault::CrashAfterCompletion,
    }]));
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12, "every id resolves exactly once");
    assert_eq!(report.counters.injected_lost_acks, 1);
    assert!(
        report.counters.duplicates_suppressed >= 1,
        "the re-dispatched completed job must be suppressed, got {:?}",
        report.counters
    );
    assert_eq!(report.counters.duplicate_completions, 0);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn exhausted_ladder_retires_and_falls_back_inline() {
    // One thread, zero restart budget: the first crash retires the only
    // worker and the main thread must finish the backlog inline.
    let mut cfg = base_cfg(1);
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 0;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, jobs(8, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 8);
    assert_eq!(report.counters.worker_retirements, 1);
    assert!(report.counters.inline_fallbacks >= 1, "retired fleet must not deadlock");
    assert!(report.records.iter().all(|r| r.disposition == Disposition::Completed));
}

#[test]
fn degraded_rung_halves_lanes_and_still_completes() {
    // Zero full restarts but one degraded restart: the crash degrades the
    // worker to half lanes, which keeps executing.
    let mut cfg = base_cfg(1);
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 2;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, jobs(8, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 8);
    assert_eq!(report.counters.worker_degradations, 1);
    assert!(
        report.counters.degraded_completions >= 1,
        "the degraded generation should finish the backlog: {:?}",
        report.counters
    );
    assert!(report.records.iter().all(|r| r.disposition == Disposition::Completed));
}

#[test]
fn deadlines_resolve_as_deadline_exceeded() {
    let report = parallel::run(base_cfg(2), jobs(6, 40)).expect("run");
    assert_eq!(report.records.len(), 6);
    assert!(report
        .records
        .iter()
        .all(|r| r.disposition == Disposition::DeadlineExceeded && r.executed_cycles >= 40));
}

#[test]
fn persistent_input_faults_resolve_as_failed() {
    let mut all = jobs(4, u64::MAX);
    // StreamTruncation always engages (the accelerator remaps the fault to
    // a busy lane) and is caught by the output-integrity cross-check, so
    // it rides every retry — unlike ChannelStall, whose sampled activation
    // window can start after these small jobs already finished.
    for job in &mut all {
        job.plan = Some(FaultPlan::sample(FaultKind::StreamTruncation, 7, 4));
    }
    let report = parallel::run(base_cfg(2), all).expect("run");
    assert_eq!(report.records.len(), 4);
    assert!(report.records.iter().all(|r| r.disposition == Disposition::Failed));
    assert!(report.records.iter().all(|r| r.attempts >= 2), "retries consumed first");
}

#[test]
fn duplicate_ids_are_rejected() {
    let mut all = jobs(3, u64::MAX);
    all[2].id = 0;
    match parallel::run(base_cfg(1), all) {
        Err(ParallelError::DuplicateJobId(0)) => {}
        other => panic!("expected DuplicateJobId, got {other:?}"),
    }
}

#[test]
fn empty_job_list_yields_empty_report() {
    let report = parallel::run(base_cfg(2), Vec::new()).expect("run");
    assert!(report.records.is_empty());
    assert_eq!(report.counters.panics_caught, 0);
}

#[test]
fn recovery_log_is_bounded_under_a_fault_storm() {
    let mut cfg = base_cfg(2);
    cfg.recovery_log_cap = 8;
    cfg.max_restarts = 64;
    let events: Vec<WorkerFaultEvent> = (0..20)
        .map(|i| WorkerFaultEvent {
            worker: (i % 2) as usize,
            after_slices: i + 1,
            kind: WorkerFault::Crash,
        })
        .collect();
    cfg.worker_faults = Some(WorkerFaultPlan::new(events));
    let report = parallel::run(cfg, jobs(24, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 24);
    assert!(report.recovery_log.len() <= 8, "log must stay within its cap");
    assert!(report.recovery_events_dropped > 0, "the storm must have evicted history");
}

/// Operands the resident slice loop cannot run resolve exactly as before
/// it prepared them once per dispatch: a structurally invalid operand is
/// refused by the preflight without a retry, and operands whose inner
/// dimensions disagree fail every attempt the retry budget allows.
#[test]
fn unrunnable_operands_resolve_failed_with_the_same_record() {
    let cfg = base_cfg(1);
    let max_attempts = cfg.max_attempts;
    let mut all = jobs(3, u64::MAX);
    let poisoned = Csr::from_parts(
        16,
        16,
        (0..=16).map(|r| usize::from(r > 3)).collect(),
        vec![5],
        vec![f64::NAN],
    )
    .expect("structurally valid");
    all[1].a = Arc::new(poisoned);
    all[2].b = Arc::new(gen::uniform(20, 16, 60, 99));
    let report = parallel::run(cfg, all).expect("run");
    let failed = |id, attempts| ParRecord {
        id,
        disposition: Disposition::Failed,
        worker: 0,
        attempts,
        redispatches: 0,
        resumed_from_checkpoint: false,
        degraded_width: false,
        executed_cycles: 0,
        output_fingerprint: None,
    };
    assert_eq!(report.records[0].disposition, Disposition::Completed);
    assert_eq!(report.records[1], failed(1, 1), "invalid input is refused, not retried");
    assert_eq!(report.records[2], failed(2, max_attempts), "a shape mismatch fails every attempt");
}

/// A checkpoint taken at full width cannot resume on a worker degraded to
/// half the lanes: the job restarts from scratch there, so its record is
/// exactly a fresh half-width run's.
#[test]
fn a_checkpoint_from_another_lane_width_restarts_from_scratch() {
    let mut cfg = base_cfg(1);
    cfg.slice_cycles = 256;
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 1;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let (a, b) = (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12));
    let mut half = cfg.accel.clone();
    half.num_lanes /= 2;
    half.mem.num_channels = half.num_lanes;
    let fresh = Accelerator::new(half).try_run(&a, &b).expect("half-width run");
    assert!(fresh.stats.total_cycles > 2 * cfg.slice_cycles, "the crash must land mid-job");
    let job =
        ParJob { id: 0, a: Arc::new(a), b: Arc::new(b), plan: None, deadline_cycles: u64::MAX };
    let report = parallel::run(cfg, vec![job]).expect("run");
    assert_eq!(report.counters.worker_degradations, 1);
    assert_eq!(report.counters.resumed_from_checkpoint, 1, "the mailbox held a checkpoint");
    let record = &report.records[0];
    assert_eq!(record.disposition, Disposition::Completed);
    assert!(record.degraded_width);
    assert!(!record.resumed_from_checkpoint, "a foreign-width checkpoint is not resumed");
    assert_eq!(record.executed_cycles, fresh.stats.total_cycles);
    assert_eq!(record.output_fingerprint, Some(fingerprint_output(&fresh.c)));
}
