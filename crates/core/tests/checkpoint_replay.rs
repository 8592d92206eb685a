//! Checkpoint/restore replay-determinism tests: a run paused at cycle
//! *k*, serialized, deserialized, and resumed must be **bit-identical**
//! to the uninterrupted run — same total cycle count, same output
//! structure, same value bits — for any *k*. This is the invariant of
//! DESIGN.md §9, and the CI `checkpoint-replay` job runs this file.

use matraptor_core::{
    Accelerator, Checkpoint, CheckpointError, FaultKind, FaultPlan, MatRaptorConfig,
    MatRaptorStats, RunOutcome, SimError, SliceRun, CHECKPOINT_VERSION,
};
use matraptor_sparse::gen::suite;
use matraptor_sparse::{gen, Coo, Csr};

fn test_matrices() -> (Csr<f64>, Csr<f64>) {
    (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12))
}

fn accel() -> Accelerator {
    Accelerator::new(MatRaptorConfig::small_test())
}

fn value_bits(c: &Csr<f64>) -> Vec<u64> {
    c.values().iter().map(|v| v.to_bits()).collect()
}

/// A fresh run of `a * b` (with `plan` armed, if any) paused at cycle `k`.
fn pause_at(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: Option<&FaultPlan>,
    k: u64,
) -> Box<Checkpoint> {
    match accel.try_run_slice(a, b, plan, None, k).expect("checkpointing run") {
        SliceRun::Paused(ck) => ck,
        SliceRun::Completed(_) => panic!("run should not drain before cycle {k}"),
    }
}

/// Resumes `ck` and drives it to completion.
fn resume(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    ck: &Checkpoint,
) -> Result<RunOutcome, SimError> {
    accel.try_run_slice(a, b, None, Some(ck), u64::MAX).and_then(SliceRun::completed)
}

/// Runs `a * b` with `plan` armed as a chain of `slice`-cycle slices, each
/// resuming the checkpoint the previous one paused at. Returns how the
/// chain ended and the last checkpoint taken before that.
fn run_chained(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: &FaultPlan,
    slice: u64,
) -> (Result<RunOutcome, SimError>, Option<Box<Checkpoint>>) {
    let mut last: Option<Box<Checkpoint>> = None;
    loop {
        let until = last.as_ref().map_or(0, |ck| ck.cycle()) + slice;
        match accel.try_run_slice(a, b, Some(plan), last.as_deref(), until) {
            Ok(SliceRun::Completed(outcome)) => return (Ok(*outcome), last),
            Ok(SliceRun::Paused(ck)) => last = Some(ck),
            Err(e) => return (Err(e), last),
        }
    }
}

/// The tentpole invariant, at several snapshot cycles including ones that
/// land mid-burst, mid-row, and near the drain: pause at k, round-trip
/// the checkpoint through bytes, resume, and compare everything.
#[test]
fn replay_is_bit_identical_across_snapshot_cycles() {
    let (a, b) = test_matrices();
    let accel = accel();
    let full = accel.try_run(&a, &b).expect("clean run");
    let total = full.stats.total_cycles;
    assert!(total > 1_000, "test matrices should run for a while, got {total}");
    for k in [1, 64, 333, total / 2, total - 2] {
        let ck = pause_at(&accel, &a, &b, None, k);
        assert_eq!(ck.cycle(), k);
        assert_eq!(ck.version(), CHECKPOINT_VERSION);
        // Serialize → deserialize: resume must work from the persisted
        // form, not just the in-memory object.
        let bytes = ck.to_bytes();
        let ck = Checkpoint::from_bytes(&bytes).expect("round-trip");
        assert_eq!(ck.cycle(), k);
        let resumed = resume(&accel, &a, &b, &ck).expect("resume");
        assert_eq!(resumed.stats.total_cycles, total, "cycle count diverged at k={k}");
        assert_eq!(resumed.stats.breakdown, full.stats.breakdown, "breakdown diverged at k={k}");
        assert_eq!(resumed.stats.bytes_read, full.stats.bytes_read);
        assert_eq!(resumed.stats.bytes_written, full.stats.bytes_written);
        assert_eq!(resumed.c.row_ptr(), full.c.row_ptr());
        assert_eq!(resumed.c.col_idx(), full.c.col_idx());
        assert_eq!(value_bits(&resumed.c), value_bits(&full.c), "value bits diverged at k={k}");
    }
}

/// Replay determinism holds under an armed fault too: a bounded burst
/// refusal perturbs timing, and the checkpoint must carry the fault state
/// so the resumed run sees the identical perturbed timeline.
#[test]
fn faulted_run_resumes_bit_identically() {
    let (a, b) = test_matrices();
    let accel = accel();
    let plan = FaultPlan::sample(FaultKind::BurstRefusal, 5, 2);
    let full = accel
        .try_run_slice(&a, &b, Some(&plan), None, u64::MAX)
        .and_then(SliceRun::completed)
        .expect("survivable fault");
    let k = full.stats.total_cycles / 3;
    let ck = pause_at(&accel, &a, &b, Some(&plan), k);
    let resumed = resume(&accel, &a, &b, &ck).expect("resume");
    assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
    assert_eq!(value_bits(&resumed.c), value_bits(&full.c));
}

/// A chain of slices leaves the last pre-failure checkpoint with the
/// caller, and disarming its fault state lets the resume complete — the
/// recovery ladder's resume rung, exercised end to end.
#[test]
fn disarmed_checkpoint_resumes_past_a_channel_stall() {
    let (a, b) = test_matrices();
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 2_000;
    let accel = Accelerator::new(cfg);
    let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, 2);
    let (failed, last) = run_chained(&accel, &a, &b, &plan, 256);
    assert!(matches!(failed, Err(SimError::Deadlock(_))), "a permanent stall must fail");
    let mut ck = last.expect("checkpoints were taken before the wedge");
    ck.disarm_faults();
    let recovered = resume(&accel, &a, &b, &ck).expect("disarmed resume completes");
    // The timeline differs from a clean run (the stall was real until the
    // checkpoint), but the functional output must be correct.
    let clean = accel.try_run(&a, &b).expect("clean run");
    assert_eq!(recovered.c.row_ptr(), clean.c.row_ptr());
    assert_eq!(recovered.c.col_idx(), clean.c.col_idx());
    assert!(recovered.c.approx_eq(&clean.c, 1e-9));
}

/// Everything a run's result says, compared exactly: cycles, statistics
/// and output value bits, or the full error (deadlock diagnostic
/// included).
type RunSummary = Result<(MatRaptorStats, Vec<usize>, Vec<u32>, Vec<u64>), SimError>;

fn summarise(result: Result<RunOutcome, SimError>) -> RunSummary {
    result.map(|o| (o.stats, o.c.row_ptr().to_vec(), o.c.col_idx().to_vec(), value_bits(&o.c)))
}

/// The recovery ladder's first attempt is a chain of slices, so chaining
/// must be the same machine as one unbounded run under every fault kind:
/// slices of 97 cycles (never aligned with the watchdog stride or the
/// memory clock) and 256 cycles, started from the same plan, end in the
/// same `Result` — identical cycles, stats and value bits, or an equal
/// `SimError`.
#[test]
fn chained_slices_match_an_unbounded_run_under_every_fault_kind() {
    let (a, b) = test_matrices();
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 2_000;
    let lanes = cfg.num_lanes;
    let accel = Accelerator::new(cfg);
    for kind in FaultKind::ALL {
        for seed in 0..3u64 {
            let plan = FaultPlan::sample(kind, seed, lanes);
            let full = summarise(
                accel
                    .try_run_slice(&a, &b, Some(&plan), None, u64::MAX)
                    .and_then(SliceRun::completed),
            );
            for slice in [97, 256] {
                let (chained, _) = run_chained(&accel, &a, &b, &plan, slice);
                assert_eq!(
                    summarise(chained),
                    full,
                    "{} seed {seed}: {slice}-cycle slices diverged from the unbounded run",
                    kind.name()
                );
            }
        }
    }
}

/// Checkpoints are rejected loudly, never resumed wrongly: foreign
/// matrices, corrupted bytes, truncation, and future versions all fail
/// with the precise error.
#[test]
fn checkpoint_rejection_paths() {
    let (a, b) = test_matrices();
    let accel = accel();
    let ck = pause_at(&accel, &a, &b, None, 64);

    // Wrong operands: fingerprint mismatch.
    let (other_a, other_b) = (gen::uniform(48, 48, 400, 90), gen::uniform(48, 48, 400, 91));
    match resume(&accel, &other_a, &other_b, &ck) {
        Err(SimError::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }

    // Wrong configuration: also a fingerprint mismatch.
    let mut cfg = MatRaptorConfig::small_test();
    cfg.coupling_fifo_depth += 1;
    match resume(&Accelerator::new(cfg), &a, &b, &ck) {
        Err(SimError::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }

    let bytes = ck.to_bytes();

    // Bit flip in the payload: checksum mismatch.
    let mut corrupted = bytes.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x40;
    match Checkpoint::from_bytes(&corrupted) {
        Err(CheckpointError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }

    // Truncation at any prefix: a structured error, never a panic.
    for cut in [0, 3, 15, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
    }

    // Unknown future version.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
    match Checkpoint::from_bytes(&future) {
        Err(CheckpointError::UnsupportedVersion { found }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Wrong magic.
    let mut bad_magic = bytes;
    bad_magic[0] = b'X';
    match Checkpoint::from_bytes(&bad_magic) {
        Err(CheckpointError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

/// SpBL's issue set is derived state, rebuilt from the job window on
/// restore rather than checkpointed. Pause where SpBL jobs wait on their
/// row info (outside the set) next to jobs still issuing (inside it) —
/// the accel unit test `spbl_info_wait_cycles_hold_waiting_and_issuable_jobs`
/// pins that premise for these cycles — and require the resumed run to
/// be bit-identical to the unbroken one.
#[test]
fn resume_while_spbl_jobs_wait_on_row_info_is_bit_identical() {
    let (a, b) = test_matrices();
    let accel = accel();
    let full = accel.try_run(&a, &b).expect("clean run");
    for k in [400, 1850, 2200, 2600] {
        let ck = Checkpoint::from_bytes(&pause_at(&accel, &a, &b, None, k).to_bytes())
            .expect("round-trip");
        let resumed = resume(&accel, &a, &b, &ck).expect("resume");
        assert_eq!(resumed.stats, full.stats, "stats diverged after a pause at cycle {k}");
        assert_eq!(resumed.c.row_ptr(), full.c.row_ptr());
        assert_eq!(resumed.c.col_idx(), full.c.col_idx());
        assert_eq!(value_bits(&resumed.c), value_bits(&full.c), "value bits diverged at k={k}");
    }
}

/// `n`×`n` operand whose non-zeros all sit on the rows of lane 0, so the
/// other lanes drain early and retire.
fn one_lane_operand(n: usize, nnz: usize, lanes: usize, seed: u64) -> Csr<f64> {
    let m = gen::uniform(n, n, nnz, seed);
    let rows = m.iter().filter(|&(r, ..)| (r as usize).is_multiple_of(lanes)).collect();
    Coo::from_triplets(n, n, rows).expect("in bounds").compress()
}

/// The fast paths keep derived state that no checkpoint carries: retired
/// lanes, SpBL jobs parked on full channels, and bank-lookahead scans
/// waiting on a bank timer. Pause where each is live — the accel unit
/// test `replay_cycles_hold_retired_lanes_parked_jobs_and_timed_scans`
/// pins that premise for these cycles — and require the resumed run,
/// which rebuilds that state, to be bit-identical to the unbroken one.
#[test]
fn resume_with_retired_lanes_parked_jobs_and_timed_scans_is_bit_identical() {
    let (a, b) = test_matrices();
    let wide = MatRaptorConfig::default();
    let (one, b8) = (one_lane_operand(64, 900, wide.num_lanes, 5), gen::uniform(64, 64, 900, 6));
    let cases = [
        (accel(), (&a, &b), [2775, 4125, 12100]),
        (Accelerator::new(wide), (&one, &b8), [475, 800, 1475]),
    ];
    for (accel, (a, b), cycles) in cases {
        let full = summarise(accel.try_run(a, b));
        for k in cycles {
            let ck = Checkpoint::from_bytes(&pause_at(&accel, a, b, None, k).to_bytes())
                .expect("round-trip");
            assert_eq!(summarise(resume(&accel, a, b, &ck)), full, "resumed at cycle {k}");
        }
    }
}

/// How one slice ended, comparably: the checkpoint bytes of a pause, or
/// the summary of a drained or failed run.
#[derive(Debug, PartialEq)]
enum Boundary {
    Paused(Vec<u8>),
    Ended(Box<RunSummary>),
}

fn boundary(slice: Result<SliceRun, SimError>) -> Boundary {
    match slice {
        Ok(SliceRun::Paused(ck)) => Boundary::Paused(ck.to_bytes()),
        Ok(SliceRun::Completed(outcome)) => Boundary::Ended(Box::new(summarise(Ok(*outcome)))),
        Err(e) => Boundary::Ended(Box::new(summarise(Err(e)))),
    }
}

/// A resident run — prepared once, its machine kept live across slices —
/// is the same machine as a chain of stateless slices that each prepare,
/// restore and snapshot: at every boundary the two hand out
/// byte-identical checkpoints, and they end in the same result as one
/// unbounded run. Halfway through, a third run resumes from the resident
/// checkpoint's bytes (its finished rows now one decoded chunk instead of
/// one chunk per slice) and must keep in byte-identical step to the end.
#[test]
fn resident_run_matches_a_stateless_slice_chain_at_every_boundary() {
    let cfg = MatRaptorConfig { watchdog_window: 2_000, ..MatRaptorConfig::default() };
    let lanes = cfg.num_lanes;
    let accel = Accelerator::new(cfg);
    for id in ["pg", "cc"] {
        let a = suite::by_id(id).expect("Table II matrix").generate(2048, 1);
        let clean = summarise(accel.try_run(&a, &a));
        let halfway = clean.as_ref().expect("clean run").0.total_cycles / 2;
        let plans: Vec<Option<FaultPlan>> = std::iter::once(None)
            .chain(FaultKind::ALL.into_iter().map(|kind| Some(FaultPlan::sample(kind, 1, lanes))))
            .collect();
        for plan in &plans {
            let plan = plan.as_ref();
            let full = summarise(
                accel.try_run_slice(&a, &a, plan, None, u64::MAX).and_then(SliceRun::completed),
            );
            if plan.is_none() {
                assert_eq!(full, clean, "{id}: an unbounded slice must equal try_run");
            }
            let name = plan.map_or("no fault", |p| p.kind.name());
            for slice in [1, 64, 4096] {
                let mut resident = accel.prepare(&a, &a).expect("compatible operands");
                let mut rechunked: Option<(matraptor_core::ResidentRun<'_>, Checkpoint)> = None;
                let mut last: Option<Box<Checkpoint>> = None;
                let mut until = 0;
                let end = loop {
                    until += slice;
                    let stateless = accel.try_run_slice(&a, &a, plan, last.as_deref(), until);
                    let got = boundary(resident.slice(plan, None, until));
                    if let Some((run, ck)) = rechunked.as_mut() {
                        let again = boundary(run.slice(None, Some(ck), until));
                        assert_eq!(again, got, "{id} {name} {slice}: decoded resume at {until}");
                    }
                    if let Ok(SliceRun::Paused(ck)) = &stateless {
                        if rechunked.is_none() && ck.cycle() >= halfway {
                            let decoded =
                                Checkpoint::from_bytes(&ck.to_bytes()).expect("round-trip");
                            let run = accel.prepare(&a, &a).expect("compatible operands");
                            rechunked = Some((run, decoded));
                        }
                    }
                    let want = match stateless {
                        Ok(SliceRun::Paused(ck)) => {
                            let bytes = ck.to_bytes();
                            last = Some(ck);
                            Boundary::Paused(bytes)
                        }
                        other => boundary(other),
                    };
                    assert_eq!(got, want, "{id} {name} {slice}-cycle slices: boundary {until}");
                    if let Boundary::Ended(summary) = got {
                        break *summary;
                    }
                };
                assert_eq!(end, full, "{id} {name} {slice}-cycle slices: final result");
            }
        }
    }
}

/// A resident run caches its operand fingerprints, and a foreign
/// checkpoint is still refused with the precise detail — on the first
/// resume attempt, which computes the fingerprints, and on a second one,
/// which reads them from the cache. The refused run keeps no machine, so
/// it can still start its own job fresh; a live one never looks at a
/// handed-over checkpoint.
#[test]
fn resident_runs_refuse_foreign_checkpoints_with_cached_fingerprints() {
    let (a, b) = test_matrices();
    let accel = accel();
    // Squared operands share one fingerprint: the checkpoint of `a * a`
    // must still be refused against `a * b`.
    let squared = pause_at(&accel, &a, &a, None, 64);
    let ck = pause_at(&accel, &a, &b, None, 64);
    let other = gen::uniform(48, 48, 400, 90);
    let mut cfg = MatRaptorConfig::small_test();
    cfg.coupling_fifo_depth += 1;
    let reconfigured = Accelerator::new(cfg);
    let cases = [
        (&accel, (&other, &b), &ck, "matrix A differs from the checkpointed run"),
        (&accel, (&a, &other), &ck, "matrix B differs from the checkpointed run"),
        (&accel, (&a, &b), &squared, "matrix B differs from the checkpointed run"),
        (&reconfigured, (&a, &b), &ck, "configuration differs from the checkpointed run"),
    ];
    for (acc, (x, y), foreign, want) in cases {
        let mut run = acc.prepare(x, y).expect("compatible operands");
        for attempt in 0..2 {
            match run.slice(None, Some(foreign), u64::MAX) {
                Err(SimError::CheckpointMismatch { detail }) => assert_eq!(detail, want),
                other => panic!("attempt {attempt}: expected `{want}`, got {other:?}"),
            }
        }
        let own = run.slice(None, None, u64::MAX).and_then(SliceRun::completed);
        assert_eq!(summarise(own), summarise(acc.try_run(x, y)), "fresh start after `{want}`");
    }
    // A live run continues its own machine and ignores `from`.
    let mut live = accel.prepare(&a, &b).expect("compatible operands");
    assert!(matches!(live.slice(None, None, 64), Ok(SliceRun::Paused(_))));
    let own = live.slice(None, Some(&squared), u64::MAX).and_then(SliceRun::completed);
    assert_eq!(summarise(own), summarise(accel.try_run(&a, &b)));
    // The same operands in other allocations are the same job.
    let (a2, b2) = (a.clone(), b.clone());
    let resumed = accel.prepare(&a2, &b2).expect("compatible").slice(None, Some(&ck), u64::MAX);
    assert_eq!(summarise(resumed.and_then(SliceRun::completed)), summarise(accel.try_run(&a, &b)));
}
