//! A deterministic, simulated-time multi-job service above the MatRaptor
//! [`Driver`](matraptor_core::Driver).
//!
//! The paper evaluates one SpGEMM at a time; a deployed accelerator serves
//! a *stream* of jobs from mutually-untrusting tenants and must stay live
//! when some of those jobs are oversized, faulty, or adversarial. This
//! crate layers the standard service-hardening vocabulary on top of the
//! cycle-level model, all in **simulated time** ([`SimClock`]) so every
//! run is bit-reproducible:
//!
//! * **admission control** — bounded per-tenant queues; a full queue is
//!   explicit backpressure ([`Rejected::QueueFull`]), never an unbounded
//!   buffer;
//! * **deadlines** — each job gets a cycle budget from a cheap flop
//!   estimate ([`estimate_flops`]) and the tenant's [`DeadlinePolicy`];
//!   jobs that blow it are cancelled *mid-flight*: the driver runs each
//!   job as one [`launch_slice`] bounded at its deadline, and a paused
//!   slice is a cancellation;
//! * **fair scheduling** — a deficit-round-robin scheduler over weighted
//!   tenants, so one tenant's burst cannot starve the others;
//! * **circuit breaking** — repeated accelerator faults open a
//!   [`CircuitBreaker`] (closed → open → half-open → closed, exponential
//!   cooldown in simulated cycles); while open, jobs are shed to the CPU
//!   fallback instead of being fed to a sick machine;
//! * **poison quarantine** — operand pairs whose runs fault twice are
//!   fingerprinted and refused permanently ([`Rejected::Quarantined`]).
//!
//! The service models *persistent* input-borne faults: a [`FaultPlan`]
//! attached to a job rides its operands across every retry, which is what
//! makes "this input has failed twice, refuse it" a sound policy (contrast
//! with the transient-fault model of the PR 3 recovery ladder).
//!
//! On top of the single-machine [`Service`], the [`Fleet`] scales the same
//! front end across N simulated accelerator workers plus M CPU-fallback
//! workers with a full worker-failure lifecycle: a seeded
//! [`WorkerFaultPlan`] injects crashes, hangs, and slowdowns; per-worker
//! heartbeats (built on the sim watchdog) detect silent death; in-flight
//! jobs re-dispatch from their last checkpoint with at-most-once
//! completion accounting; and each worker walks an escalating recovery
//! ladder (restart → reduced-lanes → retire, shedding to the CPU tier).
//!
//! The `stress_campaign` bench binary drives the single-machine service
//! with thousands of mixed jobs; `fleet_campaign` drives a multi-worker
//! fleet through scripted worker failures. Both emit machine-checkable
//! SLO reports (see EXPERIMENTS.md).
//!
//! [`SimClock`]: matraptor_sim::SimClock
//! [`launch_slice`]: matraptor_core::Driver::launch_slice
//! [`FaultPlan`]: matraptor_core::FaultPlan

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounded;
mod breaker;
mod fleet;
mod job;
pub mod parallel;
mod quarantine;
mod sched;
mod service;
pub mod wire;
mod worker;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use fleet::{
    fingerprint_output, Fleet, FleetConfig, FleetCounters, FleetRecord, FleetState, RecoveryEvent,
    RecoveryKind,
};
pub use job::{estimate_flops, Disposition, JobId, JobRecord, JobSpec, Rejected, TenantId};
pub use parallel::{
    resolution_core_fingerprint, PanicRecord, ParCounters, ParJob, ParRecord, ParReport,
    ParallelConfig, ParallelError,
};
pub use quarantine::Quarantine;
pub use service::{
    DeadlinePolicy, DrainSummary, DrainedCheckpoint, Service, ServiceConfig, ServiceCounters,
    ServiceError, TenantConfig,
};
pub use worker::{
    Worker, WorkerClass, WorkerFault, WorkerFaultEvent, WorkerFaultPlan, WorkerId, WorkerState,
    WorkerStats, WorkerStatus,
};
