//! The threaded executor: worker thread bodies (panic-isolated slice
//! execution) and the main-thread submit / merge / recovery loop.
//!
//! Life of a job: the main loop pushes a [`DispatchItem`] into the SPMC
//! dispatch ring; some worker pops it, parks a copy in its supervision
//! mailbox, prepares it once ([`Driver::prepare`]) and runs its resident
//! machine slice by slice, publishing an `Arc`-shared checkpoint to the
//! mailbox at every slice boundary; on resolution
//! it clears the mailbox and pushes a [`ParRecord`] through the MPSC
//! completion ring; the main loop merges completions in arrival order into
//! an id-keyed map (at-most-once: later completions for a resolved id are
//! counted and dropped) and emits the final report sorted by id.
//!
//! Failure is the point. The whole worker body runs under
//! [`std::panic::catch_unwind`]: a panic — injected or organic — becomes a
//! `Down` upcall (the fleet's *Crash*), the supervisor re-queues the
//! mailbox item from its last checkpoint, and the slot walks the
//! restart → reduced-lanes → retire ladder. Hangs and terminal slowdowns
//! are detected by the heartbeat poll and recycled the same way. If every
//! slot retires, the main thread finishes the backlog inline at full width
//! rather than deadlocking.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::thread;
use std::time::Duration;

use matraptor_core::{
    Accelerator, Checkpoint, Driver, DriverError, FaultPlan, MatRaptorConfig, MtxWrite, SliceRun,
};
use matraptor_sparse::Csr;

use crate::fleet::fingerprint_output;
use crate::job::Disposition;
use crate::worker::WorkerFault;
use crate::{JobId, RecoveryKind};

use super::ring::{RingFull, SeqRing};
use super::supervisor::{
    lock_unpoisoned, FailCause, GenShared, InjectStats, LadderStep, Supervisor,
};
use super::{
    PanicRecord, ParCounters, ParJob, ParRecord, ParReport, ParallelConfig, ParallelError,
};

/// Worker slot id reported for jobs the main thread ran inline after every
/// worker retired.
pub const INLINE_WORKER: usize = usize::MAX;

/// A job in flight through the dispatch ring, carrying its full recovery
/// context so any worker (or the supervisor) can pick it up statelessly.
#[derive(Debug, Clone)]
pub(crate) struct DispatchItem {
    pub id: u64,
    pub a: Arc<Csr<f64>>,
    pub b: Arc<Csr<f64>>,
    pub plan: Option<FaultPlan>,
    pub deadline: u64,
    /// Accelerator attempts consumed so far (job-level fault retries).
    pub attempts: u32,
    /// Accelerator cycles executed up to `checkpoint`.
    pub executed: u64,
    pub redispatches: u32,
    pub resumed: bool,
    /// The last slice-boundary checkpoint, shared with the mailbox that
    /// publishes it rather than copied into it.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// Lane width of the worker that took `checkpoint`; a worker at a
    /// different width restarts the job from scratch (checkpoints encode
    /// machine shape).
    pub checkpoint_lanes: usize,
}

impl DispatchItem {
    fn from_job(job: ParJob) -> Self {
        DispatchItem {
            id: job.id,
            a: job.a,
            b: job.b,
            plan: job.plan,
            deadline: job.deadline_cycles.max(1),
            attempts: 1,
            executed: 0,
            redispatches: 0,
            resumed: false,
            checkpoint: None,
            checkpoint_lanes: 0,
        }
    }

    pub(crate) fn bump_redispatch(mut self) -> Self {
        self.redispatches = self.redispatches.saturating_add(1);
        self
    }
}

/// Worker → main-thread message on the completion ring.
#[derive(Debug)]
pub(crate) enum Upcall {
    /// A job resolved. Provenance (worker, generation) rides inside the
    /// record; the merge is generation-agnostic because the at-most-once
    /// id set subsumes staleness.
    Done { record: ParRecord },
    /// The worker thread is exiting abnormally (panic or a failed
    /// accelerator build); its mailbox may hold an unresolved job.
    Down { worker: usize, generation: u32, panicked: bool, injected: bool, message: String },
}

/// Panic payload for injected worker faults, so the census can tell
/// scripted crashes from organic bugs and the process-global panic hook
/// can keep scripted crashes out of stderr.
#[derive(Debug, Clone, Copy)]
enum InjectedPanic {
    Crash,
    LostAck,
}

/// Silences *injected* panics (they are scripted, expected, and caught)
/// while delegating every other panic to the previously-installed hook.
/// Installed once per process; never removed (tests run concurrently and
/// a remove would race).
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Everything a worker thread needs, shared across all workers.
#[derive(Debug)]
struct WorkerCtx {
    accel: MatRaptorConfig,
    template_lanes: usize,
    slice_cycles: u64,
    max_attempts: u32,
    slow_unit_us: u64,
    poll_sleep_us: u64,
    shutdown: AtomicBool,
    dispatch: SeqRing<DispatchItem>,
    completions: SeqRing<Upcall>,
}

impl WorkerCtx {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Push an upcall, retrying through transient ring fullness. The
    /// completion ring is sized past the dispatch ring so this never
    /// spins in practice; if the main loop has already given up (stall
    /// abort) the push is abandoned after a bounded budget rather than
    /// wedging the thread forever.
    fn push_upcall(&self, mut up: Upcall) {
        let mut tries = 0u32;
        loop {
            match self.completions.try_push(up) {
                Ok(()) => return,
                Err(RingFull(back)) => {
                    up = back;
                    tries = tries.saturating_add(1);
                    if self.stopping() && tries > 50_000 {
                        return;
                    }
                    thread::sleep(Duration::from_micros(20));
                }
            }
        }
    }
}

/// How one dispatched item left the slice loop.
enum ItemExit {
    /// Resolved with a record; `bool` is the armed lost-ack crash.
    Resolved(ParRecord, bool),
    /// The supervisor abandoned this generation (job re-queued elsewhere)
    /// or the run is shutting down; leave quietly.
    Interrupted,
}

/// The worker thread entry: everything inside `catch_unwind`, panics
/// mapped to `Down` upcalls.
#[allow(clippy::too_many_arguments)]
fn worker_thread(
    ctx: Arc<WorkerCtx>,
    idx: usize,
    generation: u32,
    lanes: usize,
    shared: Arc<GenShared>,
    stats: Arc<InjectStats>,
    mut events: Vec<(u64, WorkerFault)>,
) {
    let body = catch_unwind(AssertUnwindSafe(|| {
        worker_loop(&ctx, idx, lanes, &shared, &stats, &mut events)
    }));
    match body {
        Ok(Ok(())) => {}
        Ok(Err(build_error)) => {
            ctx.push_upcall(Upcall::Down {
                worker: idx,
                generation,
                panicked: false,
                injected: false,
                message: build_error,
            });
        }
        Err(payload) => {
            let injected = payload.downcast_ref::<InjectedPanic>().is_some();
            let message = if let Some(kind) = payload.downcast_ref::<InjectedPanic>() {
                format!("injected fault: {kind:?}")
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            ctx.push_upcall(Upcall::Down {
                worker: idx,
                generation,
                panicked: true,
                injected,
                message,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ctx: &WorkerCtx,
    idx: usize,
    lanes: usize,
    shared: &GenShared,
    stats: &InjectStats,
    events: &mut Vec<(u64, WorkerFault)>,
) -> Result<(), String> {
    let mut cfg = ctx.accel.clone();
    cfg.num_lanes = lanes;
    cfg.mem.num_channels = lanes;
    let accel =
        Accelerator::try_new(cfg).map_err(|e| format!("accelerator build failed: {e:?}"))?;
    shared.slow_factor.store(1, Ordering::Relaxed);
    loop {
        if ctx.stopping() || shared.abandoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let Some(item) = ctx.dispatch.try_pop() else {
            shared.beats.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_micros(ctx.poll_sleep_us));
            continue;
        };
        match run_item(ctx, idx, lanes, &accel, shared, stats, events, item) {
            ItemExit::Resolved(record, crash_after) => {
                if !crash_after {
                    *lock_unpoisoned(&shared.mailbox) = None;
                }
                ctx.push_upcall(Upcall::Done { record });
                if crash_after {
                    // The completion is on the wire but the mailbox still
                    // holds the job: the supervisor will re-dispatch it and
                    // the merge must suppress the duplicate — the lost-ack
                    // race, for real.
                    stats.lost_acks.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(InjectedPanic::LostAck);
                }
            }
            ItemExit::Interrupted => return Ok(()),
        }
    }
}

/// Run one dispatched item slice by slice until it resolves or the
/// generation is interrupted — the one slice loop, shared by the workers
/// and the inline fallback.
///
/// The item is prepared once ([`Driver::prepare`]: preflight, C²SR
/// conversion, layouts) and its machine stays resident across slices; the
/// checkpoint published to the mailbox at every boundary is what a
/// re-dispatch resumes, so crash and hang recovery still lose at most one
/// slice.
#[allow(clippy::too_many_arguments)]
fn run_item(
    ctx: &WorkerCtx,
    idx: usize,
    lanes: usize,
    accel: &Accelerator,
    shared: &GenShared,
    stats: &InjectStats,
    events: &mut Vec<(u64, WorkerFault)>,
    mut item: DispatchItem,
) -> ItemExit {
    let degraded = lanes != ctx.template_lanes;
    // A checkpoint taken at another lane width cannot resume here (the
    // machine shape differs); restart the job from scratch instead.
    if item.checkpoint.is_some() && item.checkpoint_lanes != lanes {
        item.checkpoint = None;
        item.executed = 0;
    }
    item.checkpoint_lanes = lanes;
    item.resumed = item.resumed || item.checkpoint.is_some();
    *lock_unpoisoned(&shared.mailbox) = Some(item.clone());
    let deadline = item.deadline.max(1);
    let mut crash_after = false;
    let (a, b) = (Arc::clone(&item.a), Arc::clone(&item.b));
    let mut driver = Driver::new(accel);
    driver.mtx(MtxWrite::ARows(a.rows() as u64));
    driver.mtx(MtxWrite::BRows(b.rows() as u64));
    driver.mtx(MtxWrite::X0(1));
    // A refused set-up is replayed at every slice, exactly as re-preparing
    // would refuse it again.
    let mut prepared = driver.prepare(&a, &b);
    let resolve =
        |item: &DispatchItem, disposition, executed_cycles, output_fingerprint| ParRecord {
            id: item.id,
            disposition,
            worker: idx,
            attempts: item.attempts,
            redispatches: item.redispatches,
            resumed_from_checkpoint: item.resumed,
            degraded_width: degraded,
            executed_cycles,
            output_fingerprint,
        };
    loop {
        if ctx.stopping() || shared.abandoned.load(Ordering::Acquire) {
            return ItemExit::Interrupted;
        }
        // Fire injection events due at this slot's cumulative slice count.
        let done_slices = stats.slices.load(Ordering::Relaxed);
        while let Some(&(after, fault)) = events.first() {
            if after > done_slices {
                break;
            }
            events.remove(0);
            match fault {
                WorkerFault::Crash => {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(InjectedPanic::Crash);
                }
                WorkerFault::Hang => {
                    stats.hangs.fetch_add(1, Ordering::Relaxed);
                    // Wedge silently: no beats, no upcalls, mailbox keeps
                    // the job. Only the abandon flag (or shutdown) frees
                    // the thread.
                    loop {
                        if ctx.stopping() || shared.abandoned.load(Ordering::Acquire) {
                            return ItemExit::Interrupted;
                        }
                        thread::sleep(Duration::from_micros(ctx.poll_sleep_us));
                    }
                }
                WorkerFault::SlowDown { factor } => {
                    stats.slowdowns.fetch_add(1, Ordering::Relaxed);
                    shared.slow_factor.store(factor.max(2), Ordering::Relaxed);
                }
                WorkerFault::CrashAfterCompletion => crash_after = true,
            }
        }
        // A slowed worker pays its published factor in wall time per slice.
        let slow = shared.slow_factor.load(Ordering::Relaxed);
        if slow > 1 {
            thread::sleep(Duration::from_micros(ctx.slow_unit_us.saturating_mul(slow)));
        }
        let target = item
            .executed
            .saturating_add(ctx.slice_cycles)
            .min(deadline)
            .max(item.executed.saturating_add(1));
        let result = match &mut prepared {
            Ok(run) => run
                .slice(item.plan.as_ref(), item.checkpoint.as_deref(), target)
                .map_err(DriverError::AcceleratorFault),
            Err(refused) => Err(refused.clone()),
        };
        stats.slices.fetch_add(1, Ordering::Relaxed);
        shared.beats.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(SliceRun::Completed(outcome)) => {
                let fingerprint = Some(fingerprint_output(&outcome.c));
                let record =
                    resolve(&item, Disposition::Completed, outcome.stats.total_cycles, fingerprint);
                return ItemExit::Resolved(record, crash_after);
            }
            Ok(SliceRun::Paused(cp)) => {
                item.executed = cp.cycle();
                if item.executed >= deadline {
                    let record = resolve(&item, Disposition::DeadlineExceeded, item.executed, None);
                    return ItemExit::Resolved(record, crash_after);
                }
                item.checkpoint = Some(Arc::from(cp));
                *lock_unpoisoned(&shared.mailbox) = Some(item.clone());
            }
            Err(DriverError::AcceleratorFault(_)) => {
                if item.attempts >= ctx.max_attempts {
                    let record = resolve(&item, Disposition::Failed, item.executed, None);
                    return ItemExit::Resolved(record, crash_after);
                }
                // Retry from scratch: input-borne fault plans persist, but
                // a transient machine state is discarded with the attempt
                // (the failed slice already dropped the resident machine).
                item.attempts = item.attempts.saturating_add(1);
                item.checkpoint = None;
                item.executed = 0;
                *lock_unpoisoned(&shared.mailbox) = Some(item.clone());
            }
            Err(_) => {
                // Preflight refusals are not retried: the inputs cannot
                // become valid by re-running them.
                let record = resolve(&item, Disposition::Failed, item.executed, None);
                return ItemExit::Resolved(record, crash_after);
            }
        }
    }
}

/// Run `jobs` to resolution on `cfg.threads` worker threads and merge the
/// results into an id-ordered [`ParReport`].
///
/// The report's *resolution core* (id, disposition, output fingerprint)
/// is deterministic: identical across thread counts and equal to a
/// discrete-event [`Fleet`](crate::Fleet) run of the same jobs, as long
/// as no reduced-width worker completes a job (see the module docs'
/// lane-width caveat; strict campaigns assert
/// [`ParCounters::degraded_completions`] is zero). Counters, the recovery
/// log, and the panic census are timing-dependent observability.
///
/// # Errors
///
/// [`ParallelError::InvalidAccelConfig`] if the template fails
/// validation, [`ParallelError::DuplicateJobId`] on a repeated id, and
/// [`ParallelError::Stalled`] if the run stops making progress past the
/// stall-abort budget (workers are then abandoned and joined under the
/// bounded budget before the error returns).
pub fn run(cfg: ParallelConfig, jobs: Vec<ParJob>) -> Result<ParReport, ParallelError> {
    let cfg = cfg.normalized();
    Accelerator::try_new(cfg.accel.clone())
        .map_err(|e| ParallelError::InvalidAccelConfig(format!("{e:?}")))?;
    let mut seen = std::collections::BTreeSet::new();
    for job in &jobs {
        if !seen.insert(job.id) {
            return Err(ParallelError::DuplicateJobId(job.id));
        }
    }
    install_quiet_hook();

    let template_lanes = cfg.accel.num_lanes;
    let total = jobs.len();
    let ctx = Arc::new(WorkerCtx {
        accel: cfg.accel.clone(),
        template_lanes,
        slice_cycles: cfg.slice_cycles,
        max_attempts: cfg.max_attempts,
        slow_unit_us: cfg.slow_unit_us,
        poll_sleep_us: cfg.poll_sleep_us,
        shutdown: AtomicBool::new(false),
        dispatch: SeqRing::with_capacity(cfg.queue_capacity),
        completions: SeqRing::with_capacity(
            cfg.queue_capacity.saturating_mul(2).saturating_add(cfg.threads * 2),
        ),
    });

    // Split the injection schedule per slot (events addressed past the
    // thread count are dropped — they have no slot to fire on).
    let mut per_slot: Vec<Vec<(u64, WorkerFault)>> = vec![Vec::new(); cfg.threads];
    if let Some(plan) = &cfg.worker_faults {
        for ev in plan.events() {
            if ev.worker < cfg.threads {
                per_slot[ev.worker].push((ev.after_slices, ev.kind));
            }
        }
        for slot_events in &mut per_slot {
            slot_events.sort_by_key(|&(after, _)| after);
        }
    }

    let mut sup = Supervisor::new(
        cfg.threads,
        template_lanes,
        per_slot,
        cfg.max_restarts,
        cfg.max_degraded_restarts,
        cfg.hang_poll_budget,
        cfg.terminal_slow_factor,
        cfg.recovery_log_cap,
    );
    let mut counters = ParCounters::default();
    let mut census: Vec<PanicRecord> = Vec::new();

    let spawn = |slot_idx: usize,
                 generation: u32,
                 lanes: usize,
                 shared: Arc<GenShared>,
                 stats: Arc<InjectStats>,
                 events: Vec<(u64, WorkerFault)>|
     -> thread::JoinHandle<()> {
        let ctx = Arc::clone(&ctx);
        thread::spawn(move || {
            worker_thread(ctx, slot_idx, generation, lanes, shared, stats, events)
        })
    };
    for i in 0..cfg.threads {
        let slot = &sup.slots[i];
        let handle = spawn(
            i,
            slot.generation,
            slot.lanes,
            Arc::clone(&slot.shared),
            Arc::clone(&slot.stats),
            slot.remaining_events(),
        );
        sup.slots[i].handle = Some(handle);
    }

    let mut backlog: std::collections::VecDeque<DispatchItem> =
        jobs.into_iter().map(DispatchItem::from_job).collect();
    let mut redispatch: std::collections::VecDeque<DispatchItem> =
        std::collections::VecDeque::new();
    let mut records: std::collections::BTreeMap<u64, ParRecord> = std::collections::BTreeMap::new();
    let mut stalled_polls = 0u64;

    let merge = |record: ParRecord,
                 records: &mut std::collections::BTreeMap<u64, ParRecord>,
                 counters: &mut ParCounters,
                 sup: &mut Supervisor| {
        match records.entry(record.id) {
            std::collections::btree_map::Entry::Occupied(_) => {
                counters.duplicates_suppressed = counters.duplicates_suppressed.saturating_add(1);
                sup.record(
                    record.worker,
                    RecoveryKind::DuplicateCompletionSuppressed { job: JobId(record.id) },
                );
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                if record.degraded_width && record.disposition == Disposition::Completed {
                    counters.degraded_completions = counters.degraded_completions.saturating_add(1);
                }
                slot.insert(record);
            }
        }
    };

    while records.len() < total {
        let mut progress = false;

        // Total retirement: finish everything inline at full width rather
        // than deadlock on an empty fleet.
        if sup.all_retired() {
            let mut leftovers: Vec<DispatchItem> = Vec::new();
            leftovers.extend(redispatch.drain(..));
            leftovers.extend(backlog.drain(..));
            while let Some(item) = ctx.dispatch.try_pop() {
                leftovers.push(item);
            }
            for item in leftovers {
                if records.contains_key(&item.id) {
                    continue;
                }
                counters.inline_fallbacks = counters.inline_fallbacks.saturating_add(1);
                let record = run_inline(&ctx, item);
                merge(record, &mut records, &mut counters, &mut sup);
            }
            // Completions from dying workers may still be in flight; fall
            // through to drain them.
        }

        // Feed the dispatch ring: recovered jobs first, then fresh ones.
        while let Some(item) = redispatch.pop_front().or_else(|| backlog.pop_front()) {
            let recovered = item.redispatches > 0;
            match ctx.dispatch.try_push(item) {
                Ok(()) => progress = true,
                Err(RingFull(back)) => {
                    counters.ring_full_backoffs = counters.ring_full_backoffs.saturating_add(1);
                    if recovered {
                        redispatch.push_front(back);
                    } else {
                        backlog.push_front(back);
                    }
                    break;
                }
            }
        }

        // Drain completions.
        while let Some(up) = ctx.completions.try_pop() {
            progress = true;
            match up {
                Upcall::Done { record, .. } => {
                    merge(record, &mut records, &mut counters, &mut sup);
                }
                Upcall::Down { worker, generation, panicked, injected, message } => {
                    if panicked {
                        counters.panics_caught = counters.panics_caught.saturating_add(1);
                        census.push(PanicRecord { worker, injected, message });
                    }
                    let slot_gen = sup.slots[worker].generation;
                    if generation != slot_gen {
                        // A stale generation's death rattle: its mailbox
                        // was already recovered when the supervisor
                        // recycled it. Census only.
                        continue;
                    }
                    sup.record(worker, RecoveryKind::CrashDetected);
                    if let Some(item) = sup.take_mailbox(worker, &mut counters) {
                        redispatch.push_back(item);
                    }
                    if !sup.slots[worker].retired {
                        let step = sup.ladder(worker, &mut counters);
                        if step != LadderStep::Retire {
                            let shared = sup.new_generation(worker);
                            let slot = &sup.slots[worker];
                            let handle = spawn(
                                worker,
                                slot.generation,
                                slot.lanes,
                                shared,
                                Arc::clone(&slot.stats),
                                slot.remaining_events(),
                            );
                            sup.slots[worker].handle = Some(handle);
                        } else {
                            // Make sure the dead generation cannot linger.
                            sup.slots[worker].shared.abandoned.store(true, Ordering::Release);
                        }
                    }
                }
            }
        }

        if progress {
            stalled_polls = 0;
            continue;
        }

        // Idle iteration: one liveness poll (idle-paced so the hang
        // budget measures `poll_sleep_us`-spaced polls, not hot-loop
        // iterations), then sleep. Recovery actions count as progress.
        let victims = sup.poll_liveness();
        if victims.is_empty() {
            stalled_polls = stalled_polls.saturating_add(1);
            if stalled_polls > cfg.stall_abort_polls {
                ctx.shutdown.store(true, Ordering::Release);
                sup.shutdown_join(cfg.join_budget_polls, cfg.poll_sleep_us, &mut counters);
                return Err(ParallelError::Stalled { resolved: records.len(), total });
            }
            thread::sleep(Duration::from_micros(cfg.poll_sleep_us));
            continue;
        }
        stalled_polls = 0;
        for (victim, cause) in victims {
            match cause {
                FailCause::Hang => {
                    counters.hangs_detected = counters.hangs_detected.saturating_add(1);
                    sup.record(victim, RecoveryKind::HangDetected);
                }
                FailCause::Slowness => {
                    counters.slowness_detections = counters.slowness_detections.saturating_add(1);
                    sup.record(victim, RecoveryKind::SlownessDetected);
                }
            }
            if let Some(item) = sup.take_mailbox(victim, &mut counters) {
                redispatch.push_back(item);
            }
            let step = sup.ladder(victim, &mut counters);
            let shared = sup.new_generation(victim);
            if step != LadderStep::Retire {
                let slot = &sup.slots[victim];
                let handle = spawn(
                    victim,
                    slot.generation,
                    slot.lanes,
                    shared,
                    Arc::clone(&slot.stats),
                    slot.remaining_events(),
                );
                sup.slots[victim].handle = Some(handle);
            }
        }
    }

    // Drain barrier: stop the fleet, join with bounded budgets, census.
    ctx.shutdown.store(true, Ordering::Release);
    sup.shutdown_join(cfg.join_budget_polls, cfg.poll_sleep_us, &mut counters);
    // Late completions from workers that resolved a job racing the
    // shutdown flag: account them as duplicates/records like any other.
    while let Some(up) = ctx.completions.try_pop() {
        match up {
            Upcall::Done { record, .. } => merge(record, &mut records, &mut counters, &mut sup),
            Upcall::Down { worker, panicked, injected, message, .. } => {
                if panicked {
                    counters.panics_caught = counters.panics_caught.saturating_add(1);
                    census.push(PanicRecord { worker, injected, message });
                }
            }
        }
    }
    for slot in &sup.slots {
        counters.injected_panics =
            counters.injected_panics.saturating_add(slot.stats.panics.load(Ordering::Relaxed));
        counters.injected_hangs =
            counters.injected_hangs.saturating_add(slot.stats.hangs.load(Ordering::Relaxed));
        counters.injected_slowdowns = counters
            .injected_slowdowns
            .saturating_add(slot.stats.slowdowns.load(Ordering::Relaxed));
        counters.injected_lost_acks = counters
            .injected_lost_acks
            .saturating_add(slot.stats.lost_acks.load(Ordering::Relaxed));
    }

    let recovery_events_dropped = sup.log.dropped();
    let recovery_log = sup.log.into_entries();
    Ok(ParReport {
        records: records.into_values().collect(),
        counters,
        recovery_log,
        recovery_events_dropped,
        panic_census: census,
    })
}

/// Main-thread fallback execution at full width, used only after every
/// worker retired: the workers' slice loop, with no injection schedule and
/// a private mailbox nobody supervises.
fn run_inline(ctx: &WorkerCtx, item: DispatchItem) -> ParRecord {
    let interrupted = ParRecord {
        id: item.id,
        disposition: Disposition::Failed,
        worker: INLINE_WORKER,
        attempts: item.attempts,
        redispatches: item.redispatches,
        resumed_from_checkpoint: item.resumed,
        degraded_width: false,
        executed_cycles: 0,
        output_fingerprint: None,
    };
    let Ok(accel) = Accelerator::try_new(ctx.accel.clone()) else {
        return interrupted;
    };
    let (shared, stats) = (GenShared::default(), InjectStats::default());
    match run_item(
        ctx,
        INLINE_WORKER,
        ctx.template_lanes,
        &accel,
        &shared,
        &stats,
        &mut Vec::new(),
        item,
    ) {
        ItemExit::Resolved(record, _) => record,
        // Unreachable while the main loop runs: nothing sets the private
        // abandon flag, and shutdown is only raised once the loop ends.
        ItemExit::Interrupted => interrupted,
    }
}
