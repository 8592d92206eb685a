//! The service proper: admission, dispatch, and resolution.

use matraptor_core::{
    classify, fingerprint_inputs, Accelerator, ConfigError, Driver, DriverError, MatRaptorConfig,
    MtxWrite, RunOutcome, SimError, SliceRun, Verdict,
};
use matraptor_sim::trace::{fnv1a64, MetricsRegistry};
use matraptor_sim::{Cycle, SimClock};
use matraptor_sparse::spgemm;

use crate::breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use crate::job::{estimate_flops, Disposition, JobId, JobRecord, JobSpec, Rejected, TenantId};
use crate::quarantine::Quarantine;
use crate::sched::{DrrScheduler, Pending};

/// How a tenant's cycle deadlines are derived from the admission-time flop
/// estimate: `deadline = base_cycles + flops × cycles_per_flop`.
///
/// The accelerator retires roughly one useful multiply per lane per cycle
/// when streaming well, so `cycles_per_flop` is a *slack multiplier* over
/// the ideal, not a micro-architectural constant: small values buy a tight
/// SLO (cheap jobs only), large values admit slow, irregular work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Fixed allowance covering per-job overheads (fill/drain, row setup).
    pub base_cycles: u64,
    /// Cycles granted per estimated scalar multiply.
    pub cycles_per_flop: u64,
}

impl DeadlinePolicy {
    /// The deadline for a job estimated at `flops` multiplies.
    pub fn deadline_for(&self, flops: u64) -> u64 {
        self.base_cycles.saturating_add(flops.saturating_mul(self.cycles_per_flop)).max(1)
    }
}

/// One tenant: a name for reports, a DRR weight, a bounded queue, and a
/// deadline policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Stable name used in reports.
    pub name: String,
    /// DRR weight (relative share of served cycles); clamped to ≥ 1.
    pub weight: u64,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Deadline derivation for this tenant's jobs.
    pub deadline: DeadlinePolicy,
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The accelerator the service fronts.
    pub accel: MatRaptorConfig,
    /// The tenant table; [`TenantId`] indexes into it.
    pub tenants: Vec<TenantConfig>,
    /// DRR base quantum in cycles (each tenant's per-round grant is
    /// `quantum × weight`).
    pub quantum_cycles: u64,
    /// Circuit-breaker tunables.
    pub breaker: BreakerConfig,
    /// Resolved failures per operand pair before permanent refusal.
    pub quarantine_threshold: u32,
    /// Accelerator attempts per job before it resolves `Failed`; clamped
    /// to ≥ 1.
    pub max_attempts: u32,
    /// Cycle cost per estimated flop charged for the CPU fallback path
    /// (the host is far slower than the array — this is the price of
    /// shedding).
    pub cpu_cycles_per_flop: u64,
}

impl ServiceConfig {
    /// A two-tenant configuration over the small test accelerator, used by
    /// unit tests and doc examples.
    pub fn small_test() -> Self {
        let mut accel = MatRaptorConfig::small_test();
        // Keep fault detection fast so breaker tests converge quickly.
        accel.watchdog_window = 2_000;
        ServiceConfig {
            accel,
            tenants: vec![
                TenantConfig {
                    name: "alpha".to_string(),
                    weight: 2,
                    queue_capacity: 16,
                    deadline: DeadlinePolicy { base_cycles: 1_000_000, cycles_per_flop: 1_000 },
                },
                TenantConfig {
                    name: "beta".to_string(),
                    weight: 1,
                    queue_capacity: 16,
                    deadline: DeadlinePolicy { base_cycles: 1_000_000, cycles_per_flop: 1_000 },
                },
            ],
            quantum_cycles: 100_000,
            breaker: BreakerConfig::default(),
            quarantine_threshold: 2,
            max_attempts: 2,
            cpu_cycles_per_flop: 64,
        }
    }
}

/// Construction-time failures.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a service construction error must be handled, not dropped"]
pub enum ServiceError {
    /// The accelerator configuration failed validation.
    InvalidAccelConfig(ConfigError),
    /// The tenant table is empty — nothing could ever be admitted.
    NoTenants,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidAccelConfig(e) => write!(f, "invalid accelerator config: {e}"),
            ServiceError::NoTenants => write!(f, "service requires at least one tenant"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Monotone event counters, all incremented at well-defined points so a
/// campaign can reconcile them: `submitted = accepted + rejected_*`, and
/// `accepted = completed_accel + completed_cpu + deadline_exceeded +
/// failed + cancelled + checkpointed_at_drain + still-queued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Submissions seen (accepted or not).
    pub submitted: u64,
    /// Submissions admitted to a queue.
    pub accepted: u64,
    /// Rejected: tenant queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejected: operand pair quarantined.
    pub rejected_quarantined: u64,
    /// Rejected: unmultipliable shapes or unknown tenant.
    pub rejected_invalid: u64,
    /// Jobs completed on the accelerator.
    pub completed_accel: u64,
    /// Jobs shed to and completed on the CPU fallback.
    pub completed_cpu: u64,
    /// Jobs cancelled at their cycle deadline.
    pub deadline_exceeded: u64,
    /// Jobs whose every permitted accelerator attempt faulted.
    pub failed: u64,
    /// Jobs cancelled by the submitter while still queued.
    pub cancelled: u64,
    /// Jobs paused and checkpointed by a graceful drain.
    pub checkpointed_at_drain: u64,
    /// Extra accelerator attempts consumed by retries.
    pub retries: u64,
    /// Faulted jobs that completed on the accelerator with a verdict of
    /// [`Verdict::Escaped`] — silent corruption the ABFT net missed. The
    /// stress campaign's strict mode fails on any non-zero value.
    pub escapes: u64,
}

/// One job a graceful drain paused instead of finishing: its bounded
/// drain slice ran out before completion, so the in-flight state was
/// serialized through the core checkpoint path and handed back here. A
/// host that restarts can resume the work from these bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedCheckpoint {
    /// The paused job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Simulated cycle (within the run) the pause landed on.
    pub paused_at_cycle: u64,
    /// Size of the serialized checkpoint, in bytes.
    pub serialized_bytes: usize,
    /// FNV-1a-64 over the serialized checkpoint bytes — lets a strict
    /// campaign pin that re-runs drain to bit-identical machine state.
    pub fingerprint: u64,
}

/// What a graceful drain did with every job that was still queued: each
/// one either finished (accelerator or CPU), hit its own deadline, failed,
/// or was checkpointed for post-restart resume. `completed_accel +
/// completed_cpu + deadline_exceeded + failed + checkpoints.len()` equals
/// the queue depth at drain time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainSummary {
    /// Jobs that finished on the accelerator inside their drain slice.
    pub completed_accel: u64,
    /// Jobs shed to the CPU fallback (breaker open at drain time).
    pub completed_cpu: u64,
    /// Jobs whose drain slice reached their cycle deadline.
    pub deadline_exceeded: u64,
    /// Jobs whose single drain attempt faulted.
    pub failed: u64,
    /// The paused jobs, in dispatch order.
    pub checkpoints: Vec<DrainedCheckpoint>,
}

/// The deterministic multi-job service. See the crate docs for the model.
#[derive(Debug)]
pub struct Service {
    cfg: ServiceConfig,
    accel: Accelerator,
    clock: SimClock,
    sched: DrrScheduler,
    breaker: CircuitBreaker,
    quarantine: Quarantine,
    counters: ServiceCounters,
    records: Vec<JobRecord>,
    next_id: u64,
}

impl Service {
    /// Builds the service, validating the accelerator configuration.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        if cfg.tenants.is_empty() {
            return Err(ServiceError::NoTenants);
        }
        let accel =
            Accelerator::try_new(cfg.accel.clone()).map_err(ServiceError::InvalidAccelConfig)?;
        let weights: Vec<(u64, usize)> =
            cfg.tenants.iter().map(|t| (t.weight, t.queue_capacity)).collect();
        let sched = DrrScheduler::new(cfg.quantum_cycles, &weights);
        let breaker = CircuitBreaker::new(cfg.breaker);
        let quarantine = Quarantine::new(cfg.quarantine_threshold);
        Ok(Service {
            cfg,
            accel,
            clock: SimClock::new(),
            sched,
            breaker,
            quarantine,
            counters: ServiceCounters::default(),
            records: Vec::new(),
            next_id: 0,
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Advance simulated time to `at` (idle time between arrivals); no-op
    /// when `at` is in the past.
    pub fn advance_to(&mut self, at: Cycle) -> bool {
        self.clock.advance_to(at)
    }

    /// Jobs admitted but not yet resolved.
    pub fn pending(&self) -> usize {
        self.sched.len()
    }

    /// Queue depth for one tenant.
    pub fn tenant_pending(&self, tenant: TenantId) -> usize {
        self.sched.tenant_len(tenant.0)
    }

    /// Event counters so far.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// All resolved jobs, in resolution order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Breaker state changes so far.
    pub fn breaker_transitions(&self) -> &[BreakerTransition] {
        self.breaker.transitions()
    }

    /// Distinct operand pairs quarantined so far.
    pub fn quarantined_inputs(&self) -> usize {
        self.quarantine.quarantined_count()
    }

    /// Snapshots the service into the workspace's single metrics registry
    /// vocabulary: every [`ServiceCounters`] field plus breaker/quarantine
    /// state as `service.*` counters, per-tenant dispositions as
    /// `tenant.<i>.*` counters, and the per-job queue-wait, service-cycle,
    /// and deadline-slack distributions as histograms (global and
    /// per-tenant). Deterministic: the registry's JSON rendering — and
    /// hence its fingerprint — is a pure function of service history, so
    /// it can ride a `--strict` replay gate.
    pub fn metrics(&self) -> MetricsRegistry {
        // Power-of-4 cycle buckets: wide enough for deadline-scale values
        // (base deadlines are ~1e6 cycles) while still resolving the short
        // waits of an idle service.
        const CYCLE_BOUNDS: [u64; 10] =
            [16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304];
        let mut m = MetricsRegistry::new();
        let c = &self.counters;
        for (name, value) in [
            ("service.submitted", c.submitted),
            ("service.accepted", c.accepted),
            ("service.rejected_queue_full", c.rejected_queue_full),
            ("service.rejected_quarantined", c.rejected_quarantined),
            ("service.rejected_invalid", c.rejected_invalid),
            ("service.completed_accel", c.completed_accel),
            ("service.completed_cpu", c.completed_cpu),
            ("service.deadline_exceeded", c.deadline_exceeded),
            ("service.failed", c.failed),
            ("service.cancelled", c.cancelled),
            ("service.checkpointed_at_drain", c.checkpointed_at_drain),
            ("service.retries", c.retries),
            ("service.escapes", c.escapes),
            ("service.pending", self.sched.len() as u64),
            ("service.quarantined_inputs", self.quarantine.quarantined_count() as u64),
            ("service.breaker_transitions", self.breaker.transitions().len() as u64),
        ] {
            m.set_counter(name, value);
        }
        for r in &self.records {
            let t = r.tenant.0;
            m.add_counter(&format!("tenant.{t}.{}", r.disposition.label()), 1);
            m.record("job.queue_wait", &CYCLE_BOUNDS, r.queue_wait());
            m.record("job.service_cycles", &CYCLE_BOUNDS, r.service_cycles());
            m.record("job.deadline_slack", &CYCLE_BOUNDS, r.deadline_slack());
            m.record(&format!("tenant.{t}.queue_wait"), &CYCLE_BOUNDS, r.queue_wait());
            m.record(&format!("tenant.{t}.service_cycles"), &CYCLE_BOUNDS, r.service_cycles());
            m.record(&format!("tenant.{t}.deadline_slack"), &CYCLE_BOUNDS, r.deadline_slack());
        }
        m
    }

    /// Submit a job. Admission is synchronous and total: the result is
    /// either a [`JobId`] (the job is queued) or an explicit [`Rejected`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, Rejected> {
        admit(
            &self.cfg.tenants,
            &self.quarantine,
            &mut self.sched,
            &mut self.counters,
            &mut self.next_id,
            self.clock.now(),
            spec,
        )
    }

    /// Resolve the next scheduled job (dispatch, run to completion,
    /// deadline, or failure; advance the simulated clock accordingly) and
    /// return its record. `None` when the service is idle.
    pub fn step(&mut self) -> Option<&JobRecord> {
        let job = self.sched.pop()?;
        let started = self.clock.now();
        let record = if self.breaker.admits(started) {
            self.run_on_accel(job, started)
        } else {
            self.run_on_cpu(job, started, 0)
        };
        self.records.push(record);
        self.records.last()
    }

    /// Cancel a job that is still queued. Returns the cancellation record
    /// when `id` was waiting (the job is resolved as
    /// [`Disposition::Cancelled`] with zero service cycles and zero
    /// accelerator attempts), or `None` when it is unknown or already
    /// dispatched — mid-flight work is bounded by its deadline, not by
    /// cancellation.
    pub fn cancel(&mut self, id: JobId) -> Option<&JobRecord> {
        let job = self.sched.remove(id)?;
        self.counters.cancelled = self.counters.cancelled.saturating_add(1);
        let record = self.resolve(&job, self.clock.now(), 0, Disposition::Cancelled);
        self.records.push(record);
        self.records.last()
    }

    /// Gracefully drain the queue: every waiting job is dispatched once
    /// and either runs to completion inside `slice_budget` simulated
    /// cycles, or is paused through the core checkpoint path
    /// ([`Driver::launch_slice`]) and handed back serialized. After a
    /// drain the service is empty (`pending() == 0`); nothing stops new
    /// submissions — a server that wants to refuse them does so at its
    /// own admission edge.
    ///
    /// Dispatch order, clock accounting, and breaker interaction are the
    /// same as [`Service::step`], so a drained campaign replays
    /// byte-identically. Faulted drain attempts are not retried (drain
    /// wants the machine parked, not healed) but still strike the
    /// quarantine and feed the breaker.
    pub fn drain(&mut self, slice_budget: u64) -> DrainSummary {
        let mut summary = DrainSummary::default();
        while let Some(job) = self.sched.pop() {
            let started = self.clock.now();
            if !self.breaker.admits(started) {
                let record = self.run_on_cpu(job, started, 0);
                self.records.push(record);
                summary.completed_cpu += 1;
                continue;
            }
            let budget = slice_budget.max(1).min(job.deadline_cycles.max(1));
            let record = match self.launch(&job, budget) {
                Ok(SliceRun::Completed(outcome)) => {
                    self.clock.advance(outcome.stats.total_cycles.max(1));
                    self.breaker.record_success(self.clock.now());
                    self.counters.completed_accel += 1;
                    summary.completed_accel += 1;
                    if let Some(plan) = &job.plan {
                        let probe: Result<RunOutcome, SimError> = Ok(*outcome);
                        if classify(plan.kind, &probe) == Verdict::Escaped {
                            self.counters.escapes += 1;
                        }
                    }
                    self.resolve(&job, started, 1, Disposition::Completed)
                }
                Ok(SliceRun::Paused(checkpoint)) => {
                    let at = checkpoint.cycle();
                    self.clock.advance(at.max(1));
                    if at >= job.deadline_cycles {
                        self.counters.deadline_exceeded =
                            self.counters.deadline_exceeded.saturating_add(1);
                        summary.deadline_exceeded = summary.deadline_exceeded.saturating_add(1);
                        self.resolve(&job, started, 1, Disposition::DeadlineExceeded)
                    } else {
                        let bytes = checkpoint.to_bytes();
                        summary.checkpoints.push(DrainedCheckpoint {
                            job: job.id,
                            tenant: job.tenant,
                            paused_at_cycle: at,
                            serialized_bytes: bytes.len(),
                            fingerprint: fnv1a64(&bytes),
                        });
                        self.counters.checkpointed_at_drain =
                            self.counters.checkpointed_at_drain.saturating_add(1);
                        self.resolve(&job, started, 1, Disposition::CheckpointedAtDrain)
                    }
                }
                Err(DriverError::AcceleratorFault(e)) => {
                    self.clock.advance(fault_cycle_charge(&e, job.deadline_cycles));
                    self.breaker.record_failure(self.clock.now());
                    self.counters.failed += 1;
                    summary.failed += 1;
                    self.quarantine.strike(job.fingerprint);
                    self.resolve(&job, started, 1, Disposition::Failed)
                }
                Err(_) => {
                    self.counters.failed += 1;
                    summary.failed += 1;
                    self.quarantine.strike(job.fingerprint);
                    self.resolve(&job, started, 1, Disposition::Failed)
                }
            };
            self.records.push(record);
        }
        summary
    }

    /// Programs a fresh driver for `job` and runs its first slice, up to
    /// accelerator cycle `until_cycle` — the service's one way onto the
    /// machine.
    fn launch(&self, job: &Pending, until_cycle: u64) -> Result<SliceRun, DriverError> {
        let mut driver = Driver::new(&self.accel);
        driver.mtx(MtxWrite::ARows(job.a.rows() as u64));
        driver.mtx(MtxWrite::BRows(job.b.rows() as u64));
        driver.mtx(MtxWrite::X0(1));
        driver.launch_slice(&job.a, &job.b, job.plan.as_ref(), None, until_cycle)
    }

    /// Drive the job on the accelerator, retrying faults up to the
    /// configured attempt budget. The fault model is persistent — the
    /// job's plan rides every retry.
    fn run_on_accel(&mut self, job: Pending, started: Cycle) -> JobRecord {
        let max_attempts = self.cfg.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.launch(&job, job.deadline_cycles) {
                Ok(SliceRun::Completed(outcome)) => {
                    self.clock.advance(outcome.stats.total_cycles.max(1));
                    self.breaker.record_success(self.clock.now());
                    self.counters.completed_accel += 1;
                    if let Some(plan) = &job.plan {
                        // Completion under an injected fault is only
                        // acceptable for survivable kinds; anything else
                        // is a silent escape the campaign must flag.
                        let probe: Result<RunOutcome, SimError> = Ok(*outcome);
                        if classify(plan.kind, &probe) == Verdict::Escaped {
                            self.counters.escapes += 1;
                        }
                    }
                    return self.resolve(&job, started, attempts, Disposition::Completed);
                }
                Ok(SliceRun::Paused(_)) => {
                    // Cancelled at the deadline: the machine genuinely ran
                    // to it before the cancel, so charge exactly that.
                    self.clock.advance(job.deadline_cycles.max(1));
                    self.counters.deadline_exceeded =
                        self.counters.deadline_exceeded.saturating_add(1);
                    // No quarantine strike: a deadline kill reflects the
                    // tenant's budget, not input health. No retry either —
                    // the same run would be cancelled again.
                    return self.resolve(&job, started, attempts, Disposition::DeadlineExceeded);
                }
                Err(DriverError::AcceleratorFault(e)) => {
                    self.clock.advance(fault_cycle_charge(&e, job.deadline_cycles));
                    self.breaker.record_failure(self.clock.now());
                    if attempts < max_attempts {
                        self.counters.retries += 1;
                        if self.breaker.admits(self.clock.now()) {
                            continue;
                        }
                        // The breaker opened under us: shed the retry.
                        return self.run_on_cpu(job, started, attempts);
                    }
                    self.counters.failed += 1;
                    self.quarantine.strike(job.fingerprint);
                    return self.resolve(&job, started, attempts, Disposition::Failed);
                }
                Err(_) => {
                    // NotStarted / DimensionMismatch / InvalidInput: the
                    // operands defeated preflight deterministically, so
                    // retrying cannot help — fail and strike.
                    self.counters.failed += 1;
                    self.quarantine.strike(job.fingerprint);
                    return self.resolve(&job, started, attempts, Disposition::Failed);
                }
            }
        }
    }

    /// The shed path: compute on the host, charge the (much slower) CPU
    /// cycle cost. `attempts` records accelerator attempts consumed before
    /// shedding.
    fn run_on_cpu(&mut self, job: Pending, started: Cycle, attempts: u32) -> JobRecord {
        // Shapes were validated at admission, so the reference kernel is
        // total here; the product itself is discarded — the service keeps
        // bookkeeping, not payloads.
        let _ = spgemm::gustavson(&job.a, &job.b);
        let cycles = job.estimated_flops.saturating_mul(self.cfg.cpu_cycles_per_flop.max(1)).max(1);
        self.clock.advance(cycles);
        self.counters.completed_cpu += 1;
        self.resolve(&job, started, attempts, Disposition::CompletedOnCpu)
    }

    fn resolve(
        &mut self,
        job: &Pending,
        started: Cycle,
        attempts: u32,
        disposition: Disposition,
    ) -> JobRecord {
        JobRecord {
            id: job.id,
            tenant: job.tenant,
            submitted_at: job.submitted_at,
            started_at: started,
            finished_at: self.clock.now(),
            estimated_flops: job.estimated_flops,
            deadline_cycles: job.deadline_cycles,
            attempts,
            disposition,
        }
    }
}

/// The shared admission front end: quarantine refusal, flop estimation,
/// deadline derivation, and DRR enqueue, with every counter bump in one
/// place. Both [`Service::submit`] and the fleet's submit path call this,
/// so a single-worker service and an N-worker fleet admit byte-identically
/// — the precondition for comparing their campaign reports.
#[allow(clippy::too_many_arguments)]
pub(crate) fn admit(
    tenants: &[TenantConfig],
    quarantine: &Quarantine,
    sched: &mut DrrScheduler,
    counters: &mut ServiceCounters,
    next_id: &mut u64,
    now: Cycle,
    spec: JobSpec,
) -> Result<JobId, Rejected> {
    counters.submitted += 1;
    let t = spec.tenant.0;
    let Some(tenant) = tenants.get(t) else {
        counters.rejected_invalid += 1;
        return Err(Rejected::UnknownTenant { tenant: spec.tenant });
    };
    let fingerprint = fingerprint_inputs(&spec.a, &spec.b);
    if quarantine.is_quarantined(fingerprint) {
        counters.rejected_quarantined += 1;
        return Err(Rejected::Quarantined { fingerprint });
    }
    let Some(flops) = estimate_flops(&spec.a, &spec.b) else {
        counters.rejected_invalid += 1;
        return Err(Rejected::InvalidShape { a_cols: spec.a.cols(), b_rows: spec.b.rows() });
    };
    let deadline_cycles = tenant.deadline.deadline_for(flops);
    let id = JobId(*next_id);
    let pending = Pending {
        id,
        tenant: spec.tenant,
        a: spec.a,
        b: spec.b,
        plan: spec.plan,
        fingerprint,
        estimated_flops: flops,
        deadline_cycles,
        submitted_at: now,
    };
    match sched.try_enqueue(pending) {
        Ok(()) => {
            *next_id += 1;
            counters.accepted += 1;
            Ok(id)
        }
        Err(_) => {
            counters.rejected_queue_full += 1;
            Err(Rejected::QueueFull { tenant: TenantId(t), capacity: tenant.queue_capacity })
        }
    }
}

/// Cycles a failed attempt occupied the machine for. Deadlocks report the
/// cycle the watchdog fired; budget blowouts report the cycles executed;
/// everything else is charged the job's deadline — a pessimistic but
/// deterministic bound (detection happened somewhere inside the run).
pub(crate) fn fault_cycle_charge(e: &SimError, deadline_cycles: u64) -> u64 {
    match e {
        SimError::Deadlock(d) => d.declared_at.max(1),
        SimError::CycleBudgetExceeded { cycles, .. } => (*cycles).max(1),
        _ => deadline_cycles.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_core::{FaultKind, FaultPlan};
    use matraptor_sparse::gen;
    use std::rc::Rc;

    fn operands(seed: u64) -> (Rc<matraptor_sparse::Csr<f64>>, Rc<matraptor_sparse::Csr<f64>>) {
        (Rc::new(gen::uniform(32, 32, 200, seed)), Rc::new(gen::uniform(32, 32, 200, seed + 100)))
    }

    fn spec(tenant: usize, seed: u64, plan: Option<FaultPlan>) -> JobSpec {
        let (a, b) = operands(seed);
        JobSpec { tenant: TenantId(tenant), a, b, plan }
    }

    #[test]
    fn clean_jobs_complete_and_the_clock_advances() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        s.submit(spec(1, 2, None)).unwrap();
        let first = s.step().unwrap().clone();
        assert_eq!(first.disposition, Disposition::Completed);
        assert!(first.service_cycles() > 0);
        let second = s.step().unwrap().clone();
        assert_eq!(second.disposition, Disposition::Completed);
        assert!(second.queue_wait() > 0, "second job waited while the first ran");
        assert!(s.step().is_none());
        assert_eq!(s.counters().completed_accel, 2);
    }

    #[test]
    fn queue_full_is_explicit_backpressure() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].queue_capacity = 2;
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        s.submit(spec(0, 2, None)).unwrap();
        match s.submit(spec(0, 3, None)) {
            Err(Rejected::QueueFull { capacity: 2, .. }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.counters().rejected_queue_full, 1);
    }

    #[test]
    fn tight_deadlines_cancel_jobs() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].deadline = DeadlinePolicy { base_cycles: 50, cycles_per_flop: 0 };
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        let r = s.step().unwrap();
        assert_eq!(r.disposition, Disposition::DeadlineExceeded);
        assert_eq!(r.deadline_cycles, 50);
        assert_eq!(s.counters().deadline_exceeded, 1);
        // Deadline kills never quarantine.
        assert_eq!(s.quarantined_inputs(), 0);
    }

    #[test]
    fn persistent_faults_fail_after_a_retry_and_two_failures_quarantine() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let (a, b) = operands(7);
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 13, s.cfg.accel.num_lanes);
        let poison = JobSpec { tenant: TenantId(0), a, b, plan: Some(plan) };
        s.submit(poison.clone()).unwrap();
        let r = s.step().unwrap();
        assert_eq!(r.disposition, Disposition::Failed);
        assert_eq!(r.attempts, 2, "one retry before giving up");
        assert_eq!(s.counters().retries, 1);
        assert_eq!(s.quarantined_inputs(), 0, "one strike is a warning");
        s.submit(poison.clone()).unwrap();
        s.step().unwrap();
        assert_eq!(s.quarantined_inputs(), 1);
        match s.submit(poison) {
            Err(Rejected::Quarantined { .. }) => {}
            other => panic!("expected quarantine rejection, got {other:?}"),
        }
        assert_eq!(s.counters().rejected_quarantined, 1);
    }

    #[test]
    fn repeated_faults_open_the_breaker_and_shed_to_cpu() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker =
            BreakerConfig { failure_threshold: 1, cooldown_cycles: 1 << 40, ..cfg.breaker };
        let mut s = Service::new(cfg).unwrap();
        let lanes = s.cfg.accel.num_lanes;
        let p1 = FaultPlan::sample(FaultKind::ChannelStall, 1, lanes);
        s.submit(spec(0, 21, Some(p1))).unwrap();
        let first = s.step().unwrap().clone();
        // The first fault trips the hair-trigger breaker mid-job, so the
        // retry is shed to the CPU and the job still completes.
        assert_eq!(first.disposition, Disposition::CompletedOnCpu);
        assert_eq!(first.attempts, 1, "one accelerator attempt before the shed");
        assert_eq!(s.breaker_state(), BreakerState::Open);
        // While open (huge cooldown), everything sheds — even clean jobs.
        s.submit(spec(0, 23, None)).unwrap();
        assert_eq!(s.step().unwrap().disposition, Disposition::CompletedOnCpu);
        assert_eq!(s.counters().completed_cpu, 2);
        assert_eq!(s.counters().completed_accel, 0);
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown_cycles: 1_000,
            max_backoff_doublings: 2,
        };
        let mut s = Service::new(cfg).unwrap();
        let lanes = s.cfg.accel.num_lanes;
        s.submit(spec(0, 31, Some(FaultPlan::sample(FaultKind::ChannelStall, 2, lanes)))).unwrap();
        s.step().unwrap();
        assert_eq!(s.breaker_state(), BreakerState::Open);
        // Let the cooldown lapse in idle simulated time, then probe with a
        // clean job: the breaker must close again.
        let resume_at = Cycle(s.now().0 + 2_000);
        s.advance_to(resume_at);
        s.submit(spec(0, 33, None)).unwrap();
        let probe = s.step().unwrap();
        assert_eq!(probe.disposition, Disposition::Completed);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
        let seq: Vec<(BreakerState, BreakerState)> =
            s.breaker_transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            seq,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn mismatched_shapes_are_rejected_at_admission() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let a = Rc::new(gen::uniform(8, 9, 20, 1));
        let b = Rc::new(gen::uniform(10, 8, 20, 2));
        match s.submit(JobSpec { tenant: TenantId(0), a, b, plan: None }) {
            Err(Rejected::InvalidShape { a_cols: 9, b_rows: 10 }) => {}
            other => panic!("expected InvalidShape, got {other:?}"),
        }
        match s.submit(spec(9, 1, None)) {
            Err(Rejected::UnknownTenant { .. }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        assert_eq!(s.counters().rejected_invalid, 2);
    }

    #[test]
    fn metrics_registry_reconciles_and_fingerprints_deterministically() {
        let run = || {
            let mut s = Service::new(ServiceConfig::small_test()).unwrap();
            for i in 0..3 {
                s.submit(spec(i % 2, 60 + i as u64, None)).unwrap();
            }
            while s.step().is_some() {}
            s
        };
        let s = run();
        let m = s.metrics();
        assert_eq!(m.counter("service.submitted"), Some(3));
        assert_eq!(m.counter("service.completed_accel"), Some(3));
        assert_eq!(m.counter("service.pending"), Some(0));
        assert_eq!(m.counter("tenant.0.completed"), Some(2));
        assert_eq!(m.counter("tenant.1.completed"), Some(1));
        // One histogram sample per resolved job, and slack bounded by the
        // deadline for every completed job.
        assert_eq!(m.histogram("job.queue_wait").unwrap().total(), 3);
        assert_eq!(m.histogram("job.deadline_slack").unwrap().total(), 3);
        for r in s.records() {
            assert!(r.deadline_slack() <= r.deadline_cycles);
        }
        // Same history → byte-identical rendering → same fingerprint.
        assert_eq!(m.fingerprint(), run().metrics().fingerprint());
        assert_eq!(m.to_json(), run().metrics().to_json());
    }

    #[test]
    fn counters_reconcile() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[1].queue_capacity = 1;
        let mut s = Service::new(cfg).unwrap();
        for i in 0..3 {
            let _ = s.submit(spec(0, 40 + i, None));
        }
        for i in 0..3 {
            let _ = s.submit(spec(1, 50 + i, None));
        }
        while s.step().is_some() {}
        let c = *s.counters();
        assert_eq!(c.submitted, 6);
        assert_eq!(
            c.accepted,
            c.completed_accel + c.completed_cpu + c.deadline_exceeded + c.failed
        );
        assert_eq!(
            c.submitted,
            c.accepted + c.rejected_queue_full + c.rejected_quarantined + c.rejected_invalid
        );
    }

    #[test]
    fn cancel_removes_a_queued_job_without_touching_the_machine() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let first = s.submit(spec(0, 1, None)).unwrap();
        let second = s.submit(spec(0, 2, None)).unwrap();
        let record = s.cancel(second).expect("queued job must cancel").clone();
        assert_eq!(record.disposition, Disposition::Cancelled);
        assert_eq!(record.attempts, 0);
        assert_eq!(record.service_cycles(), 0);
        assert_eq!(s.counters().cancelled, 1);
        assert_eq!(s.pending(), 1);
        // Unknown and already-resolved ids are not cancellable.
        assert!(s.cancel(JobId(99)).is_none());
        let done = s.step().unwrap().clone();
        assert_eq!(done.id, first);
        assert_eq!(done.disposition, Disposition::Completed);
        assert!(s.cancel(first).is_none(), "resolved jobs cannot be cancelled");
        // Reconciliation still holds with a cancel in the mix.
        let c = *s.counters();
        assert_eq!(c.accepted, c.completed_accel + c.cancelled);
    }

    #[test]
    fn drain_completes_or_checkpoints_every_queued_job() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..4 {
            s.submit(spec(i % 2, 70 + i as u64, None)).unwrap();
        }
        // A tiny slice budget forces pauses: jobs of this size take tens
        // of thousands of cycles, so a 200-cycle slice cannot finish one.
        let summary = s.drain(200);
        assert_eq!(s.pending(), 0, "drain must empty the queue");
        assert_eq!(summary.checkpoints.len(), 4);
        assert_eq!(s.counters().checkpointed_at_drain, 4);
        for ck in &summary.checkpoints {
            assert!(ck.paused_at_cycle > 0 && ck.paused_at_cycle <= 200);
            assert!(ck.serialized_bytes > 0);
        }
        assert!(s.records().iter().all(|r| r.disposition == Disposition::CheckpointedAtDrain));
        // Re-running the same campaign drains to bit-identical checkpoints.
        let mut t = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..4 {
            t.submit(spec(i % 2, 70 + i as u64, None)).unwrap();
        }
        assert_eq!(t.drain(200), summary);
    }

    #[test]
    fn drain_with_a_generous_budget_completes_everything() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..3 {
            s.submit(spec(0, 80 + i as u64, None)).unwrap();
        }
        let summary = s.drain(u64::MAX);
        assert_eq!(summary.completed_accel, 3);
        assert!(summary.checkpoints.is_empty());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.counters().completed_accel, 3);
    }

    #[test]
    fn drain_sheds_to_cpu_while_the_breaker_is_open() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker =
            BreakerConfig { failure_threshold: 1, cooldown_cycles: 1 << 40, ..cfg.breaker };
        let mut s = Service::new(cfg).unwrap();
        let lanes = s.cfg.accel.num_lanes;
        s.submit(spec(0, 91, Some(FaultPlan::sample(FaultKind::ChannelStall, 5, lanes)))).unwrap();
        s.step().unwrap();
        assert_eq!(s.breaker_state(), BreakerState::Open);
        s.submit(spec(0, 92, None)).unwrap();
        let summary = s.drain(200);
        assert_eq!(summary.completed_cpu, 1, "open breaker sheds drained jobs to the CPU");
        assert!(summary.checkpoints.is_empty());
    }

    #[test]
    fn deadline_policy_saturates_instead_of_overflowing() {
        let p = DeadlinePolicy { base_cycles: u64::MAX, cycles_per_flop: u64::MAX };
        assert_eq!(p.deadline_for(u64::MAX), u64::MAX);
        assert_eq!(p.deadline_for(0), u64::MAX);
        let q = DeadlinePolicy { base_cycles: 10, cycles_per_flop: u64::MAX };
        assert_eq!(q.deadline_for(2), u64::MAX, "flops x cpf must saturate, not wrap");
        let zero = DeadlinePolicy { base_cycles: 0, cycles_per_flop: 0 };
        assert_eq!(zero.deadline_for(0), 1, "deadlines are clamped to >= 1");
    }

    #[test]
    fn huge_cycle_per_flop_jobs_flow_through_admission_and_complete() {
        // A tenant whose deadline policy saturates every job to u64::MAX:
        // admission, the DRR cost accounting, and the deadline-bounded
        // launch must all take the saturated value in stride.
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].deadline =
            DeadlinePolicy { base_cycles: u64::MAX, cycles_per_flop: u64::MAX };
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 5, None)).unwrap();
        let record = s.step().expect("job must be served").clone();
        assert_eq!(record.deadline_cycles, u64::MAX);
        assert_eq!(record.disposition, Disposition::Completed);
        assert_eq!(s.pending(), 0);
    }
}
