//! Cycle-driven simulation kernel for the MatRaptor model.
//!
//! The paper prototypes MatRaptor in gem5; this crate is the small,
//! deterministic core our purpose-built simulator uses instead. It
//! deliberately contains *no* randomness and no global event queue — every
//! hardware component in `matraptor-mem` and `matraptor-core` exposes a
//! `tick(now)` method and the top level advances all components one
//! [`Cycle`] at a time, which makes simulations bit-reproducible and easy
//! to reason about under test.
//!
//! Provided building blocks:
//!
//! * [`Cycle`] — a newtype for simulation time;
//! * [`SimClock`] — a shared monotonic simulated-time clock, the time base
//!   the multi-job service layer measures queue waits, breaker cooldowns,
//!   and SLOs against;
//! * [`Fifo`] — a bounded queue with backpressure, the universal hardware
//!   coupling element (the paper's "outstanding requests and responses
//!   queues");
//! * [`IdMap`] — an in-flight request table keyed by increasing ids,
//!   stored densely by offset instead of in a tree;
//! * [`LatencyPipe`] — a delay line for modelling fixed-latency paths such
//!   as DRAM access latency;
//! * [`Watchdog`] — a forward-progress tracker: components report cheap
//!   occupancy signatures each cycle and the top level learns, with a
//!   structured per-source diagnostic, when no token has moved for a
//!   configured window (the deadlock guard of the fault-injection
//!   subsystem);
//! * [`stats`] — counters and histograms for cycle accounting (Fig. 9's
//!   busy/stall breakdown is built from these);
//! * [`trace`] — observability primitives: the canonical per-stage
//!   busy / mem-stall / queue-stall / idle attribution, a
//!   `chrome://tracing` event buffer, and a deterministic, fingerprintable
//!   metrics registry.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod fifo;
mod idmap;
mod latency;
pub mod stats;
pub mod trace;
pub mod watchdog;

pub use clock::{Cycle, SimClock};
pub use fifo::Fifo;
pub use idmap::IdMap;
pub use latency::LatencyPipe;
pub use watchdog::{SourceId, SourceReport, SourceState, Watchdog, WatchdogReport};
