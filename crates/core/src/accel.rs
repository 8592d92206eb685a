//! The top-level accelerator: lanes over a shared HBM.

use std::collections::{BTreeMap, VecDeque};

use matraptor_mem::Hbm;
use matraptor_sim::stats::CycleBreakdown;
use matraptor_sim::trace::StageBreakdown;
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::{Cycle, IdMap, SourceId, SourceState, Watchdog, WatchdogReport};
use matraptor_sparse::{abft, spgemm, C2sr, Csr};

use crate::checkpoint::{
    fingerprint_config, fingerprint_matrix, Checkpoint, CheckpointState, LaneState,
    StreamFaultState, WdSourceState,
};
use crate::config::MatRaptorConfig;
use crate::error::{
    ChannelDiagnostic, ConfigError, DeadlockDiagnostic, LaneDiagnostic, MalformedInput, SimError,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::layout::{matrix_layout, MatrixLayout, Regions};
use crate::pe::Pe;
use crate::port::MemPort;
use crate::spal::SpAl;
use crate::spbl::SpBl;
use crate::stats::{LaneAttribution, MatRaptorStats};
use crate::tokens::{ATok, PeTok};
use crate::trace::{RunTrace, TraceConfig, TraceSampler};
use crate::writer::Writer;

/// The MatRaptor accelerator (Fig. 5a): `num_lanes` rows of
/// SpAL → SpBL → PE over a shared multi-channel HBM, with per-lane output
/// writers appending C in C²SR.
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, MatRaptorConfig};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(64, 64, 400, 1);
/// let outcome = Accelerator::new(MatRaptorConfig::default()).run(&a, &a);
/// assert_eq!(outcome.c.rows(), 64);
/// assert!(outcome.stats.total_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: MatRaptorConfig,
}

/// Result of one accelerator run: the output matrix plus measurements.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The computed product in CSR form.
    pub c: Csr<f64>,
    /// The same product in the C²SR layout the hardware wrote.
    pub c2sr: C2sr<f64>,
    /// Cycle counts, traffic, and breakdowns.
    pub stats: MatRaptorStats,
}

/// Outcome of one bounded execution slice ([`Accelerator::try_run_slice`]):
/// the job either drained inside the slice or was paused at the slice
/// boundary with a resumable [`Checkpoint`] to hand to the next slice —
/// possibly on a *different* worker holding an identically-configured
/// accelerator, which is exactly the fleet re-dispatch path.
#[derive(Debug)]
pub enum SliceRun {
    /// The run drained at or before the slice boundary. Boxed to keep the
    /// enum near pointer size next to the slim `Paused` payload.
    Completed(Box<RunOutcome>),
    /// The run paused at the slice boundary; the payload resumes it via
    /// another `try_run_slice` call.
    Paused(Box<Checkpoint>),
}

impl SliceRun {
    /// The outcome of a slice that had to drain: one bounded at
    /// `u64::MAX`, which never pauses (see [`Accelerator::try_run_slice`]).
    /// Chains onto the slice's `Result` as `.and_then(SliceRun::completed)`.
    ///
    /// # Errors
    ///
    /// [`SimError::ProtocolViolation`] if the slice paused anyway.
    pub fn completed(self) -> Result<RunOutcome, SimError> {
        match self {
            SliceRun::Completed(outcome) => Ok(*outcome),
            SliceRun::Paused(_) => Err(SimError::ProtocolViolation {
                detail: "an unbounded run paused before draining",
            }),
        }
    }
}

struct Lane {
    spal: SpAl,
    spbl: SpBl,
    pe: Pe,
    writer: Writer,
    spal_out: VecDeque<ATok>,
    pe_in: VecDeque<PeTok>,
    /// Set once the lane has drained ([`Lane::drained`]): the cycle from
    /// which it is no longer ticked and owes its stages' idle charges.
    /// Derived state: not checkpointed, and a restored lane retires again
    /// after its first tick.
    retired_since: Option<u64>,
}

impl Lane {
    fn new(l: usize, cfg: &MatRaptorConfig, ctx: &RunContext<'_>) -> Self {
        Lane {
            spal: SpAl::new(l, cfg, &ctx.ac),
            spbl: SpBl::new(cfg),
            pe: Pe::new(cfg),
            writer: Writer::new(l, cfg, ctx.c_layout.data_base),
            spal_out: VecDeque::new(),
            pe_in: VecDeque::new(),
            retired_since: None,
        }
    }

    /// Whether the lane has drained: no rows of A left, nothing in flight,
    /// queued or merging. Permanent, since no response or token can reach
    /// a drained lane, so each later tick of it would only charge every
    /// stage one idle cycle.
    fn drained(&self) -> bool {
        self.spal.is_done()
            && self.spbl.is_done()
            && self.spal_out.is_empty()
            && self.pe_in.is_empty()
            && self.pe.is_done(self.pe_in.is_empty())
            && self.writer.is_done()
    }

    /// Charges a retired lane's stages the idle cycles it owes up to the
    /// top of cycle `t`: what ticking it through them would have charged.
    /// A lane that retired at the end of cycle `t` owes nothing yet.
    fn settle(&mut self, t: u64) {
        if let Some(since) = self.retired_since.as_mut() {
            let cycles = t.saturating_sub(*since);
            *since += cycles;
            self.spal.charge_idle(cycles);
            self.spbl.charge_idle(cycles);
            self.pe.charge_idle(cycles);
            self.writer.charge_idle(cycles);
        }
    }

    /// The lane's per-stage cycle attribution, with the PE's existing
    /// Fig. 9 breakdown mapped onto the common four-bucket vocabulary.
    fn attribution(&self) -> LaneAttribution {
        LaneAttribution {
            spal: *self.spal.attribution(),
            spbl: *self.spbl.attribution(),
            pe: StageBreakdown::from_cycle_breakdown(&self.pe.breakdown()),
            writer: *self.writer.attribution(),
        }
    }
}

/// A stream fault in flight: watches A tokens crossing the SpAL → SpBL
/// coupling FIFO of one lane and truncates or corrupts the `target`-th
/// *entry* token (empty-row markers don't count — dropping one would be
/// undetectable by construction).
struct StreamInjector {
    lane: usize,
    target: u64,
    seen: u64,
    truncate: bool,
    /// Column id to corrupt to (out of B's row range) when not truncating.
    corrupt_to: u32,
}

impl StreamInjector {
    /// Inspects a lane's coupling FIFO right after its SpAL tick, which
    /// pushes at most one token per cycle, so only the back can be new.
    fn inspect(&mut self, lane: usize, grew: bool, out: &mut VecDeque<ATok>) {
        if lane != self.lane || !grew {
            return;
        }
        if !matches!(out.back(), Some(ATok::Entry { .. })) {
            return;
        }
        if self.seen == self.target {
            if self.truncate {
                out.pop_back();
            } else if let Some(ATok::Entry { col, .. }) = out.back_mut() {
                *col = self.corrupt_to;
            }
        }
        self.seen += 1;
    }
}

/// Read-only context of a run: everything deterministically derived from
/// `(config, A, B)` once, shared by fresh starts and checkpoint resumes.
/// Because it is recomputed — never serialized — a checkpoint stays small
/// and a resume is guaranteed to see the exact layouts and budgets the
/// original run saw (the fingerprints in the checkpoint enforce that the
/// inputs really are the same).
struct RunContext<'m> {
    a: &'m Csr<f64>,
    b: &'m Csr<f64>,
    ac: C2sr<f64>,
    bc: C2sr<f64>,
    a_layout: MatrixLayout,
    b_layout: MatrixLayout,
    c_layout: MatrixLayout,
    ratio: u64,
    budget: u64,
}

/// The complete mutable state of a run — exactly what a [`Checkpoint`]
/// captures. The per-cycle `inboxes` are deliberately absent: they are
/// provably empty at the top of every cycle (responses are drained in the
/// same iteration they pop), which is where snapshots are taken.
struct RunState {
    t: u64,
    next_id: u64,
    route: IdMap<usize>,
    lanes: Vec<Lane>,
    hbm: Hbm,
    stream_fault: Option<StreamInjector>,
    watchdog: Watchdog,
    lane_sources: Vec<SourceId>,
    hbm_source: SourceId,
}

/// A prepared job whose machine stays resident between slices.
///
/// [`Accelerator::prepare`] pays the job's set-up once: operand checks,
/// C²SR conversion, the flop count and the layouts. Each
/// [`ResidentRun::slice`] then advances the live machine through the one
/// drive loop, so a caller that keeps the run across slices pays neither
/// the set-up nor a checkpoint restore per slice. A checkpoint costs
/// O(live state): the operand fingerprints are computed on first need and
/// cached (a run that never pauses or resumes computes none), and finished
/// output rows are shared with the checkpoint, not copied.
///
/// [`Accelerator::try_run_slice`] is a prepare followed by one slice, so
/// a resident run and a chain of stateless slices are the same machine:
/// at every boundary they hand out byte-identical checkpoints (DESIGN.md
/// §9).
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, MatRaptorConfig, SliceRun};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(48, 48, 300, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let mut run = accel.prepare(&a, &a).expect("compatible operands");
/// let mut until = 0;
/// let outcome = loop {
///     until += 256;
///     match run.slice(None, None, until).expect("clean run") {
///         SliceRun::Paused(checkpoint) => assert_eq!(checkpoint.cycle(), until),
///         SliceRun::Completed(outcome) => break outcome,
///     }
/// };
/// assert_eq!(outcome.stats.total_cycles, accel.run(&a, &a).stats.total_cycles);
/// ```
pub struct ResidentRun<'a> {
    accel: &'a Accelerator,
    ctx: RunContext<'a>,
    /// `(A, B)` operand fingerprints, computed on first need.
    fingerprints: Option<(u64, u64)>,
    /// The live machine: `None` until a slice starts or resumes it, and
    /// again once a slice drains it or fails.
    state: Option<RunState>,
}

impl std::fmt::Debug for ResidentRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentRun")
            .field("cycle", &self.state.as_ref().map(|state| state.t))
            .field("fingerprints", &self.fingerprints)
            .finish_non_exhaustive()
    }
}

/// Display names for watchdog lane sources (`&'static str` registry; lanes
/// beyond the table share the last name, which loses nothing — the
/// diagnostic carries real lane indices).
const LANE_NAMES: [&str; 16] = [
    "lane0", "lane1", "lane2", "lane3", "lane4", "lane5", "lane6", "lane7", "lane8", "lane9",
    "lane10", "lane11", "lane12", "lane13", "lane14", "lane15",
];

/// Cycle stride between watchdog observations: folding every unit's
/// signature on every cycle would dominate the hottest loop; every 64th
/// cycle bounds detection latency at `window + 64` while keeping the
/// overhead noise.
const WATCHDOG_STRIDE: u64 = 64;

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MatRaptorConfig::validate`]).
    pub fn new(cfg: MatRaptorConfig) -> Self {
        cfg.validate();
        Accelerator { cfg }
    }

    /// Fallible constructor: rejects an invalid configuration with a
    /// structured [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// The first constraint [`MatRaptorConfig::try_validate`] reports.
    #[must_use = "dropping the Result discards the constructed accelerator or the config error"]
    pub fn try_new(cfg: MatRaptorConfig) -> Result<Self, ConfigError> {
        cfg.try_validate()?;
        Ok(Accelerator { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &MatRaptorConfig {
        &self.cfg
    }

    /// Runs the SpGEMM `a * b` through the simulated hardware.
    ///
    /// Thin panicking wrapper over [`Accelerator::try_run`] for call sites
    /// that treat any failure as fatal (benches, examples, tests of the
    /// happy path).
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message if the run fails: inner
    /// dimensions disagree, the watchdog declares a deadlock, the cycle
    /// budget trips, or — when `verify_against_reference` is set — the
    /// output mismatches the software Gustavson product.
    pub fn run(&self, a: &Csr<f64>, b: &Csr<f64>) -> RunOutcome {
        match self.try_run(a, b) {
            Ok(outcome) => outcome,
            // conformance:allow(panic-safety): deliberate fail-fast wrapper; fallible callers use try_run
            Err(e) => panic!("accelerator run failed: {e}"),
        }
    }

    /// Runs the SpGEMM `a * b` through the simulated hardware, reporting
    /// failures as structured [`SimError`]s.
    ///
    /// Inputs arrive in CSR and are laid out in C²SR exactly as the
    /// driver software would (the conversion cost is *not* charged here;
    /// the `fmt_conversion` experiment measures it separately, per
    /// Section VII). This is one unbounded, unfaulted
    /// [`Accelerator::try_run_slice`].
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedInput`] for bad operands,
    /// [`SimError::Deadlock`] when the forward-progress watchdog fires,
    /// [`SimError::CycleBudgetExceeded`] if the budget backstop trips,
    /// [`SimError::QueueOverflow`] for unrecoverable overflows, and
    /// [`SimError::OutputCorrupted`] when an integrity check fails.
    #[must_use = "dropping the Result loses both the run outcome and any fault diagnosis"]
    pub fn try_run(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<RunOutcome, SimError> {
        self.try_run_slice(a, b, None, None, u64::MAX).and_then(SliceRun::completed)
    }

    /// An unbounded [`Accelerator::try_run_slice`] from cycle 0 with heavy
    /// tracing enabled: alongside the normal outcome, records windowed
    /// per-channel traffic timelines, queue-occupancy histograms, and
    /// per-lane stage attribution timelines ([`RunTrace`]), exportable as
    /// `chrome://tracing` JSON.
    ///
    /// Tracing is observational only — the run's cycles, output, and
    /// statistics are bit-identical to the untraced run.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::try_run`]; which variant depends on the fault
    /// (see [`FaultKind`]). No trace is returned for a failed run.
    #[must_use = "dropping the Result loses both the run outcome and any fault diagnosis"]
    pub fn try_run_traced(
        &self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        trace_cfg: &TraceConfig,
    ) -> Result<(RunOutcome, RunTrace), SimError> {
        let ctx = self.prepare(a, b)?.ctx;
        let mut state = self.fresh_state(&ctx, plan);
        let mut sampler =
            TraceSampler::new(trace_cfg, self.cfg.mem.num_channels, self.cfg.num_lanes);
        let completed = self.drive_observed(&ctx, &mut state, u64::MAX, Some(&mut sampler))?;
        debug_assert!(completed, "unbounded drive returned without completing");
        let outcome = self.finalize(&ctx, &state)?;
        let attrs: Vec<LaneAttribution> = state.lanes.iter().map(Lane::attribution).collect();
        let trace = sampler.finish(state.t + 1, ctx.ratio, &state.hbm.channel_stats(), &attrs);
        Ok((outcome, trace))
    }

    /// Executes one bounded *slice* of a run — the one general run
    /// primitive: starts fresh (arming `plan`) when `from` is `None`,
    /// otherwise resumes the given checkpoint, and drives until the
    /// machine drains or accelerator cycle `until_cycle` is reached —
    /// whichever comes first.
    ///
    /// Every run shape is a choice of arguments:
    ///
    /// * a faulted run to completion: `(plan, None, u64::MAX)`;
    /// * a resume to completion: `(None, Some(ck), u64::MAX)`;
    /// * a deadline-bounded run, or a run paused at cycle `k` for a
    ///   checkpoint: `(plan, None, k)`, where `Paused` carries the machine
    ///   state at exactly cycle `k`;
    /// * periodic checkpoints: a chain of slices, each resuming the last
    ///   `Paused` checkpoint with boundary `ck.cycle() + interval`.
    ///
    /// `until_cycle = u64::MAX` never returns `Paused`: the cycle budget
    /// trips first, so such a slice ends `Completed` or `Err`
    /// ([`SliceRun::completed`] unwraps it).
    ///
    /// This is also the checkpoint-handoff primitive of the worker fleet:
    /// a worker runs a job slice-by-slice, heartbeating between slices,
    /// and on a crash the last `Paused` checkpoint re-dispatches the job
    /// to any identically-configured worker with bit-identical results
    /// (DESIGN.md §9 replay invariant — the checkpoint's config and input
    /// fingerprints enforce the "identically configured" part).
    ///
    /// When resuming, `plan` is ignored: armed fault state rides the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] for foreign checkpoints (operands
    /// or configuration differ from the checkpointed run); otherwise as
    /// [`Accelerator::try_run`], for failures inside the slice.
    #[must_use = "dropping the Result loses the slice outcome or pause checkpoint"]
    pub fn try_run_slice(
        &self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
        until_cycle: u64,
    ) -> Result<SliceRun, SimError> {
        self.prepare(a, b)?.slice(plan, from, until_cycle)
    }

    /// Prepares a [`ResidentRun`] of `a * b`: checks the operands' inner
    /// dimensions, converts both to C²SR for this lane count, counts the
    /// flops for the cycle budget and builds the memory layouts — once,
    /// however many slices the run then takes.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedInput`] when `a.cols() != b.rows()`.
    #[must_use = "dropping the Result discards the prepared run or the operand error"]
    pub fn prepare<'m>(
        &'m self,
        a: &'m Csr<f64>,
        b: &'m Csr<f64>,
    ) -> Result<ResidentRun<'m>, SimError> {
        if a.cols() != b.rows() {
            return Err(SimError::MalformedInput(MalformedInput::InnerDimensionMismatch {
                a_cols: a.cols(),
                b_rows: b.rows(),
            }));
        }
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let ac = C2sr::from_csr(a, lanes_n);
        let bc = C2sr::from_csr(b, lanes_n);

        let regions = Regions::DEFAULT;
        let entry = cfg.entry_bytes as u64;
        let a_layout = matrix_layout(&cfg.mem, regions.a_info, regions.a_data, entry);
        let b_layout = matrix_layout(&cfg.mem, regions.b_info, regions.b_data, entry);
        let c_layout = matrix_layout(&cfg.mem, regions.c_info, regions.c_data, entry);

        let ratio = cfg.mem_clock_ratio();
        // Generous budget: SpGEMM needs at least one cycle per product;
        // allow a large constant factor for memory stalls.
        let flops = spgemm::multiply_count(a, b);
        let budget = (flops * 200 + a.nnz() as u64 * 400 + 1_000_000) * ratio;

        Ok(ResidentRun {
            accel: self,
            ctx: RunContext { a, b, ac, bc, a_layout, b_layout, c_layout, ratio, budget },
            fingerprints: None,
            state: None,
        })
    }

    /// Builds the watchdog with one source per lane plus the HBM —
    /// identical registration order for fresh starts and restores, so a
    /// restored [`SourceId`] indexes the same source.
    fn build_watchdog(&self) -> (Watchdog, Vec<SourceId>, SourceId) {
        let mut watchdog = Watchdog::new(self.cfg.watchdog_window);
        let lane_sources: Vec<_> = (0..self.cfg.num_lanes)
            .map(|l| watchdog.add_source(LANE_NAMES[l.min(LANE_NAMES.len() - 1)]))
            .collect();
        let hbm_source = watchdog.add_source("hbm");
        (watchdog, lane_sources, hbm_source)
    }

    /// Builds the machine at cycle 0 and arms the fault plan, if any.
    fn fresh_state(&self, ctx: &RunContext<'_>, plan: Option<&FaultPlan>) -> RunState {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let mut hbm = Hbm::new(cfg.mem.clone());
        let mut lanes: Vec<Lane> = (0..lanes_n).map(|l| Lane::new(l, cfg, ctx)).collect();

        // Arm the injected fault, if any. Lane-targeted faults are
        // remapped to a lane that actually has work so a sampled site on
        // an empty lane cannot silently skip the injection.
        let mut stream_fault: Option<StreamInjector> = None;
        if let Some(plan) = plan {
            hbm.set_faults(plan.mem_faults());
            let site = {
                let preferred = plan.site % lanes_n;
                if ctx.ac.channel_nnz(preferred) > 0 {
                    preferred
                } else {
                    (0..lanes_n).find(|&l| ctx.ac.channel_nnz(l) > 0).unwrap_or(preferred)
                }
            };
            match plan.kind {
                FaultKind::StreamTruncation | FaultKind::StreamCorruption => {
                    let tokens = ctx.ac.channel_nnz(site) as u64;
                    if tokens > 0 {
                        stream_fault = Some(StreamInjector {
                            lane: site,
                            target: plan.ordinal % tokens,
                            seen: 0,
                            truncate: plan.kind == FaultKind::StreamTruncation,
                            corrupt_to: (ctx.bc.rows() as u32)
                                .saturating_add(1 + (plan.ordinal % 97) as u32),
                        });
                    }
                }
                FaultKind::QueueOverflowForce => {
                    lanes[site].pe.fault_force_overflow_after = Some(plan.ordinal % 32);
                    lanes[site].pe.cpu_fallback = false;
                }
                FaultKind::DroppedWrite => {
                    lanes[site].writer.fault_drop_append = Some(plan.ordinal % 64);
                }
                FaultKind::ChannelStall | FaultKind::BurstRefusal => {}
            }
        }

        let (watchdog, lane_sources, hbm_source) = self.build_watchdog();
        RunState {
            t: 0,
            next_id: 0,
            route: IdMap::new(),
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        }
    }

    /// Serializes the machine at the top of cycle `state.t`, fingerprinted
    /// against this accelerator's configuration and the run's operands.
    fn snapshot_run(
        &self,
        (a_fingerprint, b_fingerprint): (u64, u64),
        state: &mut RunState,
    ) -> Checkpoint {
        let (wd_last, wd_states) = state.watchdog.export_state();
        Checkpoint {
            state: CheckpointState {
                cfg_fingerprint: fingerprint_config(&self.cfg),
                a_fingerprint,
                b_fingerprint,
                t: state.t,
                next_id: state.next_id,
                route: state.route.entries().into_iter().map(|(id, l)| (id, l as u64)).collect(),
                lanes: state
                    .lanes
                    .iter_mut()
                    .map(|lane| LaneState {
                        spal: lane.spal.snapshot(),
                        spbl: lane.spbl.snapshot(),
                        pe: lane.pe.snapshot(),
                        writer: lane.writer.snapshot(),
                        spal_out: lane.spal_out.iter().copied().collect(),
                        pe_in: lane.pe_in.iter().copied().collect(),
                    })
                    .collect(),
                stream_fault: state.stream_fault.as_ref().map(|inj| StreamFaultState {
                    lane: inj.lane as u64,
                    target: inj.target,
                    seen: inj.seen,
                    truncate: inj.truncate,
                    corrupt_to: inj.corrupt_to,
                }),
                hbm: state.hbm.snapshot(),
                wd_last_progress: wd_last.as_u64(),
                wd_sources: wd_states
                    .iter()
                    .map(|s| WdSourceState {
                        last_signature: s.last_signature,
                        last_progress: s.last_progress.as_u64(),
                        observed: s.observed,
                    })
                    .collect(),
            },
        }
    }

    /// Rebuilds a [`RunState`] from a checkpoint, verifying that it was
    /// taken by a run of the same configuration over the same operands
    /// (whose fingerprints are `(a_fingerprint, b_fingerprint)`).
    fn restore_run(
        &self,
        ctx: &RunContext<'_>,
        (a_fingerprint, b_fingerprint): (u64, u64),
        checkpoint: &Checkpoint,
    ) -> Result<RunState, SimError> {
        let cfg = &self.cfg;
        let st = &checkpoint.state;
        if st.cfg_fingerprint != fingerprint_config(cfg) {
            return Err(SimError::CheckpointMismatch {
                detail: "configuration differs from the checkpointed run",
            });
        }
        if st.a_fingerprint != a_fingerprint {
            return Err(SimError::CheckpointMismatch {
                detail: "matrix A differs from the checkpointed run",
            });
        }
        if st.b_fingerprint != b_fingerprint {
            return Err(SimError::CheckpointMismatch {
                detail: "matrix B differs from the checkpointed run",
            });
        }
        let lanes_n = cfg.num_lanes;
        if st.lanes.len() != lanes_n
            || st.wd_sources.len() != lanes_n + 1
            || st.hbm.channels.len() != cfg.mem.num_channels
        {
            return Err(SimError::CheckpointMismatch {
                detail: "checkpoint shape disagrees with the configuration",
            });
        }

        let hbm = Hbm::restore(cfg.mem.clone(), &st.hbm);
        let mut lanes: Vec<Lane> = (0..lanes_n).map(|l| Lane::new(l, cfg, ctx)).collect();
        for (lane, ls) in lanes.iter_mut().zip(&st.lanes) {
            lane.spal.restore(&ls.spal);
            lane.spbl.restore(&ls.spbl, cfg, &ctx.b_layout);
            lane.pe.restore(&ls.pe);
            lane.writer.restore(&ls.writer, cfg);
            lane.spal_out = ls.spal_out.iter().copied().collect();
            lane.pe_in = ls.pe_in.iter().copied().collect();
        }

        let (mut watchdog, lane_sources, hbm_source) = self.build_watchdog();
        let sources: Vec<SourceState> = st
            .wd_sources
            .iter()
            .map(|s| SourceState {
                last_signature: s.last_signature,
                last_progress: Cycle(s.last_progress),
                observed: s.observed,
            })
            .collect();
        watchdog.import_state(Cycle(st.wd_last_progress), &sources);

        let stream_fault = st.stream_fault.map(|s| StreamInjector {
            lane: s.lane as usize,
            target: s.target,
            seen: s.seen,
            truncate: s.truncate,
            corrupt_to: s.corrupt_to,
        });

        Ok(RunState {
            t: st.t,
            next_id: st.next_id,
            route: st.route.iter().map(|&(id, l)| (id, l as usize)).collect(),
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        })
    }

    /// Advances the machine cycle by cycle until it drains (`Ok(true)`),
    /// pauses at `pause_at` (`Ok(false)`), or fails. `pause_at = u64::MAX`
    /// never pauses: the cycle budget trips first.
    ///
    /// The pause point is the **top** of a cycle, before any component has
    /// ticked — the one point where no cross-component state (delivered
    /// responses) is in flight, which is what makes snapshots exact.
    ///
    /// Untraced runs pass no `sampler`, and the sampler is purely
    /// observational (it reads counters, never machine state), so the
    /// traced and untraced machines tick bit-identically — the
    /// zero-overhead-when-disabled contract of the observability layer.
    ///
    /// A drained lane is retired: no longer ticked, it owes each stage one
    /// idle cycle per cycle. Every exit settles those charges, through the
    /// cycle the machine drained in or to the top of the cycle it stopped
    /// at, so the counters read exactly as if the lane had been ticked. (A
    /// run that fails inside a cycle settles to the top of that cycle;
    /// nothing reads a failed machine's counters.)
    fn drive_observed(
        &self,
        ctx: &RunContext<'_>,
        state: &mut RunState,
        pause_at: u64,
        sampler: Option<&mut TraceSampler>,
    ) -> Result<bool, SimError> {
        let result = self.drive_cycles(ctx, state, pause_at, sampler);
        let end = state.t + u64::from(matches!(result, Ok(true)));
        for lane in &mut state.lanes {
            lane.settle(end);
        }
        result
    }

    /// The cycle loop of [`Accelerator::drive_observed`].
    fn drive_cycles(
        &self,
        ctx: &RunContext<'_>,
        state: &mut RunState,
        pause_at: u64,
        mut sampler: Option<&mut TraceSampler>,
    ) -> Result<bool, SimError> {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let ratio = ctx.ratio;
        let fallback = |row: u32| reference_row(ctx.a, ctx.b, row as usize);
        let mut inboxes: Vec<Vec<u64>> = vec![Vec::new(); lanes_n];

        let RunState {
            t,
            next_id,
            route,
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        } = state;

        loop {
            if *t >= pause_at {
                return Ok(false);
            }
            let mem_now = Cycle(*t / ratio);
            if t.is_multiple_of(ratio) {
                hbm.tick(mem_now);
                while let Some(resp) = hbm.pop_response(mem_now) {
                    // Every in-flight response id was recorded in `route`
                    // when issued; a miss means the interconnect model (or
                    // injected memory corruption) fabricated a response.
                    // Propagate it instead of panicking so services above
                    // the driver survive the broken run.
                    let Some(lane) = route.remove(resp.id.0) else {
                        return Err(SimError::ProtocolViolation {
                            detail: "HBM response for an unissued request id",
                        });
                    };
                    inboxes[lane].push(resp.id.0);
                }
                if let Some(s) = sampler.as_deref_mut() {
                    s.record_queue_depths(&hbm.queue_depths());
                }
            }

            let mut all_done = true;
            for (l, lane) in lanes.iter_mut().enumerate() {
                if lane.retired_since.is_some() {
                    debug_assert!(inboxes[l].is_empty() && lane.drained(), "lane {l} woke");
                    continue;
                }
                // Deliver responses.
                for id in inboxes[l].drain(..) {
                    if lane.spal.on_response(id, &ctx.ac) {
                        continue;
                    }
                    if lane.spbl.on_response(id) {
                        continue;
                    }
                    let consumed = lane.writer.on_response(id);
                    debug_assert!(consumed, "orphan response {id}");
                }

                let mut port = MemPort { hbm, mem_now, next_id, route, lane: l };

                let upstream_done =
                    lane.spal.is_done() && lane.spbl.is_done() && lane.spal_out.is_empty();
                lane.pe.tick(
                    &mut lane.pe_in,
                    &mut lane.writer,
                    cfg,
                    &ctx.c_layout,
                    &fallback,
                    upstream_done,
                );
                lane.spbl.tick(
                    &mut port,
                    cfg,
                    &ctx.b_layout,
                    &ctx.bc,
                    &mut lane.spal_out,
                    &mut lane.pe_in,
                    cfg.coupling_fifo_depth,
                    lane.spal.is_done(),
                );
                let fifo_len_before = lane.spal_out.len();
                lane.spal.tick(
                    &mut port,
                    cfg,
                    &ctx.a_layout,
                    &ctx.ac,
                    &mut lane.spal_out,
                    cfg.coupling_fifo_depth,
                );
                if let Some(inj) = stream_fault.as_mut() {
                    inj.inspect(l, lane.spal_out.len() > fifo_len_before, &mut lane.spal_out);
                }
                lane.writer.tick(&mut port);

                if let Some((col, bound)) = lane.spbl.malformed_input() {
                    return Err(SimError::MalformedInput(MalformedInput::ColumnOutOfRange {
                        lane: l,
                        col,
                        bound,
                    }));
                }
                if let Some(row) = lane.pe.fatal_overflow {
                    return Err(SimError::QueueOverflow { lane: l, row });
                }

                let lane_done = lane.drained();
                if lane_done {
                    lane.retired_since = Some(*t + 1);
                }
                all_done &= lane_done;
            }

            if all_done && hbm.is_idle() && inboxes.iter().all(Vec::is_empty) {
                break;
            }

            if watchdog.window() > 0 && t.is_multiple_of(WATCHDOG_STRIDE) {
                for (l, lane) in lanes.iter().enumerate() {
                    let mut sig = mix_signature(0, lane.spal.progress_signature());
                    sig = mix_signature(sig, lane.spbl.progress_signature());
                    sig = mix_signature(sig, lane.pe.progress_signature());
                    sig = mix_signature(sig, lane.writer.progress_signature());
                    sig = mix_signature(sig, lane.spal_out.len() as u64);
                    sig = mix_signature(sig, lane.pe_in.len() as u64);
                    watchdog.observe(lane_sources[l], Cycle(*t), sig);
                }
                watchdog.observe(*hbm_source, Cycle(*t), hbm.progress_signature());
                if let Some(report) = watchdog.check(Cycle(*t)) {
                    return Err(SimError::Deadlock(deadlock_diagnostic(&report, lanes, hbm)));
                }
            }

            if let Some(s) = sampler.as_deref_mut() {
                if (*t + 1).is_multiple_of(s.window()) {
                    for lane in lanes.iter_mut() {
                        lane.settle(*t + 1);
                    }
                    let attrs: Vec<LaneAttribution> = lanes.iter().map(Lane::attribution).collect();
                    s.close_window(*t + 1, &hbm.channel_stats(), &attrs);
                }
            }

            *t += 1;
            if *t >= ctx.budget {
                return Err(SimError::CycleBudgetExceeded { budget: ctx.budget, cycles: *t });
            }
        }
        Ok(true)
    }

    /// Assembles the functional output and statistics of a drained run,
    /// applying the configured output-integrity checks.
    fn finalize(&self, ctx: &RunContext<'_>, state: &RunState) -> Result<RunOutcome, SimError> {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let lanes = &state.lanes;

        // Assemble the functional output in C²SR, per-lane row order. The
        // lane count was validated positive at construction, so a refusal
        // here is a protocol violation, not an input problem.
        let mut c2sr = C2sr::new_for_output(ctx.a.rows(), ctx.b.cols(), lanes_n).map_err(|_| {
            SimError::ProtocolViolation { detail: "output C2SR rejected the validated lane count" }
        })?;
        for lane in lanes {
            for row in lane.writer.finished.iter() {
                c2sr.append_row(row.row as usize, &row.cols, &row.vals);
            }
        }
        if c2sr.validate().is_err() {
            return Err(SimError::OutputCorrupted {
                detail: "output violates C2SR invariants",
                rows: Vec::new(),
            });
        }
        let c = c2sr.to_csr();

        // ABFT first: O(nnz) row checksums localise the damage. The full
        // Gustavson cross-check (when enabled) stays as the belt-and-
        // braces oracle behind it.
        if cfg.abft_verification {
            let report = abft::verify(ctx.a, ctx.b, &c, &abft::AbftOptions::default());
            if !report.is_ok() {
                return Err(SimError::OutputCorrupted {
                    detail: "output fails ABFT row-checksum verification",
                    rows: report.offending_rows(),
                });
            }
        }

        if cfg.verify_against_reference {
            let reference = spgemm::gustavson(ctx.a, ctx.b);
            if !c.approx_eq(&reference, 1e-6) {
                return Err(SimError::OutputCorrupted {
                    detail: "output diverges from the Gustavson reference",
                    rows: Vec::new(),
                });
            }
        }

        // Aggregate statistics.
        let mut breakdown = CycleBreakdown::default();
        let mut per_pe_breakdown = Vec::with_capacity(lanes_n);
        let mut multiplies = 0u64;
        let mut additions = 0u64;
        let mut overflow_rows = 0usize;
        let mut overflow_padding = 0u64;
        let mut phase1 = 0u64;
        let mut phase2 = 0u64;
        let mut per_lane_attribution = Vec::with_capacity(lanes_n);
        for lane in lanes {
            let b = lane.pe.breakdown();
            breakdown.merge_from(&b);
            per_pe_breakdown.push(b);
            multiplies += lane.pe.multiplies.get();
            additions += lane.pe.additions.get();
            overflow_rows += lane.pe.overflow_rows.len();
            overflow_padding += lane.writer.finished.iter().map(|r| r.padded_entries).sum::<u64>();
            phase1 += lane.pe.phase1_cycles.get();
            phase2 += lane.pe.phase2_cycles.get();
            per_lane_attribution.push(lane.attribution());
        }
        let mem_stats = state.hbm.stats();
        let per_pe_nnz = (0..lanes_n).map(|l| ctx.ac.channel_nnz(l) as u64).collect();

        Ok(RunOutcome {
            c,
            c2sr,
            stats: MatRaptorStats {
                total_cycles: state.t + 1,
                clock_ghz: cfg.clock_ghz,
                breakdown,
                per_pe_breakdown,
                multiplies,
                additions,
                bytes_read: mem_stats.bytes_read,
                bytes_written: mem_stats.bytes_written,
                traffic_read: mem_stats.traffic_read,
                traffic_written: mem_stats.traffic_written,
                bursts: mem_stats.bursts,
                row_misses: mem_stats.row_misses,
                per_pe_nnz,
                overflow_rows,
                overflow_padding_entries: overflow_padding,
                phase1_cycles: phase1,
                phase2_cycles: phase2,
                per_lane_attribution,
            },
        })
    }
}

impl ResidentRun<'_> {
    /// Runs one bounded slice: drives the machine until it drains or
    /// reaches accelerator cycle `until_cycle`, whichever comes first.
    ///
    /// A slice with no live machine — the first one, or the next one after
    /// a slice drained or failed — enters it first: from `from` if given
    /// (verified against this run's configuration and operands), otherwise
    /// fresh with `plan` armed. While the machine is live, `plan` and
    /// `from` are ignored. A drained slice returns the finalized outcome; a
    /// paused one returns the checkpoint of the machine at exactly
    /// `until_cycle` and keeps it live for the next slice.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::try_run_slice`]. A failed slice drops the machine.
    #[must_use = "dropping the Result loses the slice outcome or pause checkpoint"]
    pub fn slice(
        &mut self,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
        until_cycle: u64,
    ) -> Result<SliceRun, SimError> {
        let mut state = match (self.state.take(), from) {
            (Some(state), _) => state,
            (None, Some(checkpoint)) => {
                let fingerprints = self.fingerprints();
                self.accel.restore_run(&self.ctx, fingerprints, checkpoint)?
            }
            (None, None) => self.accel.fresh_state(&self.ctx, plan),
        };
        if self.accel.drive_observed(&self.ctx, &mut state, until_cycle, None)? {
            let outcome = self.accel.finalize(&self.ctx, &state)?;
            return Ok(SliceRun::Completed(Box::new(outcome)));
        }
        let checkpoint = self.accel.snapshot_run(self.fingerprints(), &mut state);
        self.state = Some(state);
        Ok(SliceRun::Paused(Box::new(checkpoint)))
    }

    /// The `(A, B)` fingerprints, hashed once per run (once in all when
    /// both operands are the same matrix).
    fn fingerprints(&mut self) -> (u64, u64) {
        let (a, b) = (self.ctx.a, self.ctx.b);
        *self.fingerprints.get_or_insert_with(|| {
            let fa = fingerprint_matrix(a);
            (fa, if std::ptr::eq(a, b) { fa } else { fingerprint_matrix(b) })
        })
    }
}

/// Builds the structured deadlock payload from the watchdog's report plus
/// the machine state at the moment the wedge was declared.
fn deadlock_diagnostic(report: &WatchdogReport, lanes: &[Lane], hbm: &Hbm) -> DeadlockDiagnostic {
    let lane_diags = lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| {
            let (spal_in_flight, spal_staging, spal_rows_remaining) = lane.spal.occupancy();
            let (spbl_jobs, spbl_in_flight, spbl_staging) = lane.spbl.occupancy();
            let (writer_queued, writer_pending) = lane.writer.occupancy();
            LaneDiagnostic {
                lane: l,
                last_progress: report.sources.get(l).map_or(0, |s| s.last_progress.as_u64()),
                spal_in_flight,
                spal_staging,
                spal_rows_remaining,
                spbl_jobs,
                spbl_in_flight,
                spbl_staging,
                coupling_a_tokens: lane.spal_out.len(),
                coupling_products: lane.pe_in.len(),
                pe_active: lane.pe.is_active(),
                writer_queued,
                writer_pending,
            }
        })
        .collect();
    let channels = hbm
        .queue_depths()
        .into_iter()
        .enumerate()
        .map(|(channel, queue_depth)| ChannelDiagnostic { channel, queue_depth })
        .collect();
    DeadlockDiagnostic {
        declared_at: report.declared_at.as_u64(),
        window: report.window,
        last_progress: report.last_progress.as_u64(),
        lanes: lane_diags,
        channels,
    }
}

/// Software computation of one output row — the CPU-fallback path for
/// sorting-queue overflows (Section VII).
fn reference_row(a: &Csr<f64>, b: &Csr<f64>, i: usize) -> (Vec<u32>, Vec<f64>) {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for (k, av) in a.row(i) {
        for (j, bv) in b.row(k as usize) {
            *acc.entry(j).or_insert(0.0) += av * bv;
        }
    }
    acc.into_iter().filter(|&(_, v)| v != 0.0).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::gen;

    /// The premise of `checkpoint_replay`'s SpBL case: at each of its
    /// pause cycles some SpBL job waits on its row info (and so sits
    /// outside the issue set), and at all but the first some other job is
    /// in the set, so restore has a mixed set to rebuild.
    #[test]
    fn spbl_info_wait_cycles_hold_waiting_and_issuable_jobs() {
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let (a, b) = (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12));
        let ctx = accel.prepare(&a, &b).expect("valid operands").ctx;
        let mut state = accel.fresh_state(&ctx, None);
        for (i, k) in [400, 1850, 2200, 2600].into_iter().enumerate() {
            assert!(!accel.drive_observed(&ctx, &mut state, k, None).expect("clean run"));
            let waiting: usize = state.lanes.iter().map(|l| l.spbl.jobs_waiting_on_info()).sum();
            let issuable: u32 = state.lanes.iter().map(|l| l.spbl.issuable_jobs()).sum();
            assert!(waiting > 0, "no SpBL job waits on info at cycle {k}");
            assert!(i == 0 || issuable > 0, "empty SpBL issue sets at cycle {k}");
        }
    }

    /// `n`×`n` operand whose non-zeros all sit on the rows of lane 0.
    fn one_lane_operand(n: usize, nnz: usize, lanes: usize, seed: u64) -> Csr<f64> {
        let m = gen::uniform(n, n, nnz, seed);
        let rows = m.iter().filter(|&(r, ..)| (r as usize).is_multiple_of(lanes)).collect();
        matraptor_sparse::Coo::from_triplets(n, n, rows).expect("in bounds").compress()
    }

    /// Channels whose next lookahead scan leaves a bank waiting on its
    /// timer, recomputed from the plain device state at the top of cycle
    /// `t`: a bank claimed by the first window fragment touching it, with
    /// another row open (or none) and no activation under way, busy past
    /// the next memory tick.
    fn scans_waiting_on_a_bank_timer(state: &RunState, cfg: &MatRaptorConfig) -> usize {
        let m = &cfg.mem;
        let next_tick = state.t.div_ceil(cfg.mem_clock_ratio());
        let hbm = state.hbm.snapshot();
        hbm.channels
            .iter()
            .filter(|ch| {
                let mut claimed = 0u64;
                ch.queue.iter().take(m.bank_lookahead).any(|f| {
                    let row = m.channel_local_offset(f.addr) / m.row_bytes;
                    let bank = (row % m.banks_per_channel as u64) as usize;
                    let first = claimed & 1 << bank == 0;
                    claimed |= 1 << bank;
                    let b = &ch.banks[bank];
                    first
                        && b.open_row != Some(row)
                        && b.prep_row.is_none()
                        && b.ready_at > next_tick
                })
            })
            .count()
    }

    /// The premises of `checkpoint_replay`'s resume case for the derived
    /// state of the fast paths. On its 48×48 operands (2 lanes), at
    /// cycles 2775 and 4125 SpBL jobs are parked on a full channel while
    /// a lookahead scan waits on a bank timer, and at 12100 a lane has
    /// retired. On a 64×64 operand whose non-zeros all sit on lane 0's
    /// rows (8 lanes), the other seven lanes have retired by cycle 475,
    /// and at 800 and 1475 a scan waits on a bank timer as well.
    #[test]
    fn replay_cycles_hold_retired_lanes_parked_jobs_and_timed_scans() {
        let small = MatRaptorConfig::small_test();
        let (a, b) = (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12));
        let wide = MatRaptorConfig::default();
        let (one, b8) = (one_lane_operand(64, 900, 8, 5), gen::uniform(64, 64, 900, 6));
        let cases = [
            (
                &small,
                (&a, &b),
                [2775, 4125, 12100],
                [(0, true, true), (0, true, true), (1, false, false)],
            ),
            (
                &wide,
                (&one, &b8),
                [475, 800, 1475],
                [(7, false, false), (7, false, true), (7, false, true)],
            ),
        ];
        for (cfg, (a, b), cycles, want) in cases {
            let accel = Accelerator::new(cfg.clone());
            let ctx = accel.prepare(a, b).expect("valid operands").ctx;
            let mut state = accel.fresh_state(&ctx, None);
            for (k, (retired, parked, timed)) in cycles.into_iter().zip(want) {
                assert!(!accel.drive_observed(&ctx, &mut state, k, None).expect("clean run"));
                let full = state.hbm.full_channels();
                let got = (
                    state.lanes.iter().filter(|l| l.retired_since.is_some()).count(),
                    state.lanes.iter().map(|l| l.spbl.parked_jobs(full)).sum::<u32>() > 0,
                    scans_waiting_on_a_bank_timer(&state, cfg) > 0,
                );
                assert_eq!(got, (retired, parked, timed), "(retired, parked, timed scan) at {k}");
            }
        }
    }

    #[test]
    fn tiny_identity_product() {
        let eye = Csr::<f64>::identity(8);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&eye, &eye);
        assert_eq!(outcome.c, eye);
        assert_eq!(outcome.stats.overflow_rows, 0);
    }

    #[test]
    fn paper_fig2_matrix_squared() {
        // The 4x4 example matrix of Fig. 2/3.
        let mut coo = matraptor_sparse::Coo::new(4, 4);
        for &(r, c, v) in &[
            (0u32, 0u32, 1.0),
            (0, 2, 2.0),
            (0, 3, 3.0),
            (1, 3, 4.0),
            (2, 1, 5.0),
            (3, 1, 6.0),
            (3, 2, 7.0),
        ] {
            coo.push(r, c, v);
        }
        let a = coo.compress();
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    }

    #[test]
    fn random_product_matches_reference() {
        let a = gen::uniform(60, 60, 320, 5);
        let b = gen::uniform(60, 60, 300, 6);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &b);
        // verify_against_reference already asserts; sanity-check stats too.
        assert_eq!(outcome.stats.multiplies, spgemm::multiply_count(&a, &b));
        assert!(outcome.stats.total_cycles > 0);
        assert!(outcome.stats.bytes_read > 0);
        assert!(outcome.stats.bytes_written > 0);
    }

    #[test]
    fn empty_rows_and_columns_are_handled() {
        // Matrix with several all-zero rows.
        let a =
            Csr::from_parts(6, 6, vec![0, 2, 2, 2, 3, 3, 3], vec![1, 3, 0], vec![1.0, 2.0, 3.0])
                .expect("structurally valid CSR");
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    }

    #[test]
    fn zero_matrix_product() {
        let z = Csr::<f64>::zero(10, 10);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&z, &z);
        assert_eq!(outcome.c.nnz(), 0);
    }

    #[test]
    fn power_law_matrix_exercises_merge_path() {
        // RMAT rows force vectors > Q-1, exercising the merge+helper path.
        let a = gen::rmat(128, 1200, gen::RmatParams::default(), 9);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        let (busy, merge, mem, _) = outcome.stats.breakdown.fractions();
        assert!(busy > 0.0);
        assert!(merge > 0.0, "merge stalls expected on power-law inputs");
        assert!(mem >= 0.0);
    }

    #[test]
    fn queue_overflow_falls_back_to_cpu() {
        // Tiny queues + a dense-ish matrix forces overflow; the result
        // must still be correct and overflows reported.
        let cfg = MatRaptorConfig {
            queue_bytes: 64, // 8 entries per queue
            ..MatRaptorConfig::small_test()
        };
        let a = gen::uniform(32, 32, 512, 11);
        let outcome = Accelerator::new(cfg).run(&a, &a);
        assert!(outcome.stats.overflow_rows > 0, "expected overflows with 8-entry queues");
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-6));
    }

    #[test]
    fn default_config_eight_lanes() {
        let a = gen::uniform(64, 64, 400, 12);
        let outcome = Accelerator::new(MatRaptorConfig::default()).run(&a, &a);
        assert_eq!(outcome.stats.per_pe_nnz.len(), 8);
        assert!(outcome.stats.load_imbalance() >= 1.0);
    }

    #[test]
    fn rectangular_product() {
        let a = gen::uniform(40, 60, 250, 13);
        let b = gen::uniform(60, 30, 260, 14);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &b);
        assert_eq!((outcome.c.rows(), outcome.c.cols()), (40, 30));
    }

    /// Pauses a run of `a * a` at cycle `k` and returns the checkpoint.
    fn paused_at(accel: &Accelerator, a: &Csr<f64>, k: u64) -> Box<Checkpoint> {
        match accel.try_run_slice(a, a, None, None, k).expect("bounded slice") {
            SliceRun::Paused(ck) => ck,
            SliceRun::Completed(_) => panic!("48x48 product cannot drain in {k} cycles"),
        }
    }

    #[test]
    fn paused_slice_resumes_to_identical_outcome() {
        let a = gen::uniform(48, 48, 300, 21);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let full = accel.try_run(&a, &a).expect("clean run");
        let ck = paused_at(&accel, &a, 64);
        assert_eq!(ck.cycle(), 64, "the pause is exact: the boundary cycle");
        let resumed = accel
            .try_run_slice(&a, &a, None, Some(&ck), u64::MAX)
            .and_then(SliceRun::completed)
            .expect("resume");
        assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
        assert_eq!(resumed.c, full.c);
    }

    #[test]
    fn unbounded_slice_never_pauses() {
        let a = gen::uniform(48, 48, 300, 21);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let full = accel.try_run(&a, &a).expect("clean run");
        match accel.try_run_slice(&a, &a, None, None, u64::MAX).expect("run") {
            SliceRun::Completed(outcome) => {
                assert_eq!(outcome.stats.total_cycles, full.stats.total_cycles);
            }
            SliceRun::Paused(_) => panic!("run should drain before u64::MAX cycles"),
        }
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let a = gen::uniform(48, 48, 300, 22);
        let other = gen::uniform(48, 48, 300, 23);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let ck = paused_at(&accel, &a, 64);
        match accel.try_run_slice(&other, &other, None, Some(&ck), u64::MAX) {
            Err(SimError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }
}
