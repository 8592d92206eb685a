//! Sparse Matrix B Loader (SpBL).

use std::collections::{BTreeMap, VecDeque};

use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sparse::C2sr;

use crate::checkpoint::{JobState, SpBlState};
use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, INFO_BYTES};
use crate::port::MemPort;
use crate::tokens::{ATok, PeTok};

/// The per-lane loader for matrix B (Section IV-B).
///
/// For every `(a_ik, i, k)` received from SpAL, SpBL fetches the *(row
/// length, row pointer)* pair of B's row *k*, streams that row's data, and
/// forwards one `a_ik · b_kj` product per cycle to the PE, followed by the
/// end-of-vector / end-of-row markers the merge logic keys on.
///
/// Unlike A, matrix B is *shared* between lanes: row *k* lives on channel
/// `k mod lanes`, so SpBL traffic crosses channels and causes the channel
/// conflicts the paper identifies as the residual gap to peak bandwidth
/// (Section VI-B).
#[derive(Debug)]
pub struct SpBl {
    jobs: VecDeque<Job>,
    /// The jobs that can still issue a request, as a bitmask over the job
    /// ring keyed by `seq % 64` (see [`Job::can_issue`]), so the issue loop
    /// visits only them instead of every job in the window.
    // conformance:allow(checkpoint-coverage): derived from `jobs`; restore rebuilds it
    issue_set: u64,
    /// Entry `c`: the jobs of the issue set whose next request goes to
    /// memory channel `c`, keyed like `issue_set` (see [`Job::parkable`]).
    /// A visit to one of them while its channel is full would issue
    /// nothing, so the issue loop skips them: they are parked.
    // conformance:allow(checkpoint-coverage): derived from `jobs`; restore rebuilds it
    channel_sets: Vec<u64>,
    next_seq: u64,
    pending_info: BTreeMap<u64, u64>,
    pending_data: BTreeMap<u64, DataSpan>,
    staging: VecDeque<PeTok>,
    in_flight: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    max_outstanding: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    staging_cap: usize,
    /// Diagnostic counters: (blocked-on-data, blocked-on-info, staging-full, no-jobs) cycles.
    pub(crate) blocked: [u64; 4],
    /// Set when an incoming A token referenced a B row outside the
    /// matrix — a corrupted stream. `(col, bound)`; the accelerator
    /// polls this and aborts with `SimError::MalformedInput`.
    malformed: Option<(u32, u32)>,
    /// Per-cycle attribution: exactly one bucket is charged per tick.
    attribution: StageBreakdown,
}

#[derive(Debug, Clone, Copy)]
struct DataSpan {
    job_seq: u64,
    count: u32,
}

#[derive(Debug)]
struct Job {
    seq: u64,
    kind: JobKind,
    /// B row to fetch (for `Fetch` jobs).
    b_row: u32,
    a_val: f64,
    out_row: u32,
    last_in_row: bool,
    info_requested: bool,
    info_ready: bool,
    plan: Option<VecDeque<(u64, u32)>>,
    /// Memory channel of the job's next request (see
    /// [`Job::next_channel`]); set on accept and when the plan is built.
    channel: usize,
    len: u32,
    /// Entries whose data responses have arrived (contiguous prefix —
    /// per-channel ordering guarantees in-order arrival within a job).
    ready_entries: u32,
    /// Entries already turned into product tokens.
    drained_entries: u32,
}

impl Job {
    /// Whether the issue loop has anything to do for this job: a fetch
    /// whose info read is not issued yet, or whose info has arrived and
    /// whose data plan is not built or not fully issued.
    fn can_issue(&self) -> bool {
        self.kind == JobKind::Fetch
            && (!self.info_requested
                || self.info_ready && self.plan.as_ref().is_none_or(|p| !p.is_empty()))
    }

    /// Whether the job is in the issue set and its visit can only issue
    /// on its `channel`: every issuable job except one whose info has
    /// arrived and whose plan is not built, since its visit builds the
    /// plan whether or not the channel has room.
    fn parkable(&self) -> bool {
        self.can_issue() && !(self.info_ready && self.plan.is_none())
    }

    /// The channel of the job's next request: its row-info read until the
    /// plan is built, then the plan's data reads, which all sit on the
    /// channel holding B's row.
    fn next_channel(&self, cfg: &MatRaptorConfig, layout: &MatrixLayout) -> usize {
        match self.plan.as_ref().and_then(VecDeque::front) {
            Some(&(addr, _)) => cfg.mem.channel_of_addr(addr),
            None => cfg.mem.channel_of_addr(layout.info_addr(self.b_row as usize)),
        }
    }

    /// This job's bit in [`SpBl`]'s issue set.
    fn bit(&self) -> u64 {
        1 << (self.seq % 64)
    }
}

/// Jobs SpBL holds at once. The issue set keys jobs by `seq % 64`, so the
/// window must stay within 64.
const JOB_WINDOW: usize = 32;
const _: () = assert!(JOB_WINDOW <= 64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Fetch B row `b_row` and emit products.
    Fetch,
    /// Pass-through marker for an empty A row.
    EmptyRow,
}

impl SpBl {
    pub(crate) fn new(cfg: &MatRaptorConfig) -> Self {
        SpBl {
            jobs: VecDeque::new(),
            issue_set: 0,
            channel_sets: vec![0; cfg.mem.num_channels],
            next_seq: 0,
            pending_info: BTreeMap::new(),
            pending_data: BTreeMap::new(),
            staging: VecDeque::new(),
            in_flight: 0,
            max_outstanding: cfg.outstanding_requests,
            staging_cap: 4 * cfg.coupling_fifo_depth,
            blocked: [0; 4],
            malformed: None,
            attribution: StageBreakdown::default(),
        }
    }

    /// Routes a memory response to this unit. Returns `true` if consumed.
    pub(crate) fn on_response(&mut self, id: u64) -> bool {
        if let Some(seq) = self.pending_info.remove(&id) {
            self.in_flight -= 1;
            if let Some(idx) = self.job_index(seq) {
                self.jobs[idx].info_ready = true;
                self.refile(idx);
            }
            return true;
        }
        if let Some(span) = self.pending_data.remove(&id) {
            self.in_flight -= 1;
            if let Some(idx) = self.job_index(span.job_seq) {
                self.jobs[idx].ready_entries += span.count;
            }
            return true;
        }
        false
    }

    fn job_index(&self, seq: u64) -> Option<usize> {
        let idx = (seq - self.jobs.front()?.seq) as usize;
        (idx < self.jobs.len()).then_some(idx)
    }

    /// Files job `idx` in the issue set and its channel's set (or out of
    /// them) after its state changed.
    fn refile(&mut self, idx: usize) {
        let job = &self.jobs[idx];
        let (bit, channel) = (job.bit(), job.channel);
        self.issue_set = self.issue_set & !bit | if job.can_issue() { bit } else { 0 };
        let set = &mut self.channel_sets[channel];
        *set = *set & !bit | if job.parkable() { bit } else { 0 };
    }

    /// The jobs parked on the channels of `full`, a channel bitmask.
    fn parked(&self, mut full: u64) -> u64 {
        let mut parked = 0;
        while full != 0 {
            parked |= self.channel_sets[full.trailing_zeros() as usize];
            full &= full - 1;
        }
        parked
    }

    /// One accelerator cycle. `upstream_done` reports whether this lane's
    /// SpAL has fully finished, which disambiguates "idle because the
    /// pipeline is draining" from "queue-stalled on a starved input FIFO"
    /// in the cycle attribution — it gates no behaviour.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        port: &mut MemPort<'_>,
        cfg: &MatRaptorConfig,
        layout: &MatrixLayout,
        b: &C2sr<f64>,
        input: &mut VecDeque<ATok>,
        out: &mut VecDeque<PeTok>,
        out_cap: usize,
        upstream_done: bool,
    ) {
        debug_assert!(self.sets_in_step(), "SpBL issue or channel sets out of step");
        // Attribution bookkeeping only — never gates behaviour.
        let mut moved = false;

        // Forward one token per cycle to the PE.
        if out.len() < out_cap {
            if let Some(tok) = self.staging.pop_front() {
                out.push_back(tok);
                moved = true;
            }
        }

        // Accept new A tokens into the job window.
        while self.jobs.len() < JOB_WINDOW {
            let Some(tok) = input.pop_front() else { break };
            // Bounds check at the stream boundary: a corrupted C²SR
            // stream can carry a column id outside B's row space, which
            // would otherwise turn into a wild row-info fetch. Flag it
            // instead of building the job; the accelerator aborts the run.
            if let ATok::Entry { col, .. } = tok {
                if col as usize >= b.rows() {
                    self.malformed = Some((col, b.rows() as u32));
                    break;
                }
            }
            let job = match tok {
                ATok::Entry { val, row, col, last_in_row } => Job {
                    seq: self.next_seq,
                    kind: JobKind::Fetch,
                    b_row: col,
                    a_val: val,
                    out_row: row,
                    last_in_row,
                    info_requested: false,
                    info_ready: false,
                    plan: None,
                    channel: cfg.mem.channel_of_addr(layout.info_addr(col as usize)),
                    len: 0,
                    ready_entries: 0,
                    drained_entries: 0,
                },
                ATok::EmptyRow { row } => Job {
                    seq: self.next_seq,
                    kind: JobKind::EmptyRow,
                    b_row: 0,
                    a_val: 0.0,
                    out_row: row,
                    last_in_row: true,
                    info_requested: true,
                    info_ready: true,
                    plan: Some(VecDeque::new()),
                    channel: 0,
                    len: 0,
                    ready_entries: 0,
                    drained_entries: 0,
                },
            };
            self.jobs.push_back(job);
            self.refile(self.jobs.len() - 1);
            self.next_seq += 1;
            moved = true;
        }

        // Issue info and data requests in job order. Only jobs in the issue
        // set and not parked on a full channel are visited: the others
        // would issue nothing. A channel full now stays full for the rest
        // of the cycle, as only the memory's own tick pops its queue.
        if self.staging.len() < self.staging_cap {
            let front_seq = self.jobs.front().map_or(0, |j| j.seq);
            let parked = self.parked(port.hbm.full_channels());
            // Bit k of `visit` is the job k places behind the front.
            let mut visit = (self.issue_set & !parked).rotate_right((front_seq % 64) as u32);
            while visit != 0 {
                if self.in_flight >= self.max_outstanding {
                    break;
                }
                let idx = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let (seq, b_row, info_requested, plan_built) = {
                    let j = &self.jobs[idx];
                    (j.seq, j.b_row, j.info_requested, j.plan.is_some())
                };
                if !info_requested {
                    let addr = layout.info_addr(b_row as usize);
                    if let Some(id) = port.try_read(self.jobs[idx].channel, addr, INFO_BYTES) {
                        self.pending_info.insert(id, seq);
                        self.in_flight += 1;
                        self.jobs[idx].info_requested = true;
                        moved = true;
                    }
                } else {
                    // In the set with its info requested: the info has arrived.
                    if !plan_built {
                        let info = b.row_info(b_row as usize);
                        let channel = b.channel_of(b_row as usize);
                        let plan = layout.row_data_requests(
                            &cfg.mem,
                            channel,
                            info,
                            cfg.read_request_bytes,
                        );
                        let job = &mut self.jobs[idx];
                        job.len = info.len;
                        job.plan = Some(plan.into());
                        // Outside every channel set until refiled below.
                        job.channel = job.next_channel(cfg, layout);
                    }
                    let channel = self.jobs[idx].channel;
                    if let Some(plan) = self.jobs[idx].plan.as_mut() {
                        while let Some(&(addr, bytes)) = plan.front() {
                            if self.in_flight >= self.max_outstanding {
                                break;
                            }
                            match port.try_read(channel, addr, bytes) {
                                Some(id) => {
                                    plan.pop_front();
                                    let count = (bytes as u64 / layout.entry_bytes) as u32;
                                    self.pending_data.insert(id, DataSpan { job_seq: seq, count });
                                    self.in_flight += 1;
                                    moved = true;
                                }
                                None => break,
                            }
                        }
                    }
                }
                self.refile(idx);
            }
        }

        // Drain the front job into staging, in order.
        let mut drained_any = false;
        loop {
            if self.staging.len() >= self.staging_cap {
                if !drained_any {
                    self.blocked[2] += 1;
                }
                break;
            }
            let Some(front) = self.jobs.front() else {
                if !drained_any {
                    self.blocked[3] += 1;
                }
                break;
            };
            match front.kind {
                JobKind::EmptyRow => {
                    self.staging.push_back(PeTok::EndOfRow { row: front.out_row });
                    self.pop_job();
                    moved = true;
                }
                JobKind::Fetch => {
                    if !front.info_ready || front.plan.is_none() {
                        if !drained_any {
                            self.blocked[1] += 1;
                        }
                        break;
                    }
                    if front.drained_entries < front.ready_entries {
                        let (b_cols, b_vals) = b.row_slices(front.b_row as usize);
                        let e = front.drained_entries as usize;
                        let val = front.a_val * b_vals[e];
                        let col = b_cols[e];
                        self.staging.push_back(PeTok::Product { val, col });
                        // conformance:allow(panic-safety): invariant: a drain step only runs while a job is at the front
                        self.jobs.front_mut().expect("front exists").drained_entries += 1;
                        drained_any = true;
                    } else if front.drained_entries == front.len
                        && front.plan.as_ref().is_some_and(VecDeque::is_empty)
                    {
                        if front.len > 0 {
                            self.staging.push_back(PeTok::EndOfVector);
                        }
                        if front.last_in_row {
                            self.staging.push_back(PeTok::EndOfRow { row: front.out_row });
                        }
                        self.pop_job();
                        moved = true;
                    } else {
                        if !drained_any {
                            self.blocked[0] += 1;
                        }
                        break; // waiting for data responses
                    }
                }
            }
        }
        moved |= drained_any;

        // Classify the cycle. Movement of any token, request, or job is
        // Busy. A fully drained unit is Idle once SpAL has finished, and
        // queue-stalled (starved input FIFO) while it has not. Otherwise
        // the stall is a queue stall when the only obstruction is a full
        // staging/output FIFO, and a memory stall when the front job is
        // waiting on row info or data responses.
        self.attribution.charge(if moved {
            StageClass::Busy
        } else if self.jobs.is_empty() && self.staging.is_empty() && self.in_flight == 0 {
            if upstream_done {
                StageClass::Idle
            } else {
                StageClass::QueueStall
            }
        } else if (!self.staging.is_empty() && out.len() >= out_cap)
            || self.staging.len() >= self.staging_cap
        {
            StageClass::QueueStall
        } else {
            StageClass::MemStall
        });
    }

    fn pop_job(&mut self) {
        if let Some(job) = self.jobs.pop_front() {
            self.issue_set &= !job.bit();
            self.channel_sets[job.channel] &= !job.bit();
        }
    }

    /// Jobs whose row-info read is in flight: visited by no issue loop
    /// until the info arrives.
    #[cfg(test)]
    pub(crate) fn jobs_waiting_on_info(&self) -> usize {
        self.jobs.iter().filter(|j| j.info_requested && !j.info_ready).count()
    }

    /// Jobs in the issue set.
    #[cfg(test)]
    pub(crate) fn issuable_jobs(&self) -> u32 {
        self.issue_set.count_ones()
    }

    /// Jobs parked on the channels of `full`, a channel bitmask.
    #[cfg(test)]
    pub(crate) fn parked_jobs(&self, full: u64) -> u32 {
        self.parked(full).count_ones()
    }

    /// Whether the issue set and the channel sets hold exactly what
    /// [`SpBl::refile`] would file from `jobs`.
    fn sets_in_step(&self) -> bool {
        let (mut issuable, mut parkable) = (0, 0);
        let filed = self.jobs.iter().all(|j| {
            issuable += u32::from(j.can_issue());
            parkable += u32::from(j.parkable());
            (self.issue_set & j.bit() != 0) == j.can_issue()
                && (self.channel_sets[j.channel] & j.bit() != 0) == j.parkable()
        });
        filed
            && self.issue_set.count_ones() == issuable
            && self.channel_sets.iter().map(|set| set.count_ones()).sum::<u32>() == parkable
    }

    /// Charges `cycles` ticks of a drained loader in bulk: each would find
    /// no job (`blocked[3]`) and charge one idle cycle.
    pub(crate) fn charge_idle(&mut self, cycles: u64) {
        self.blocked[3] += cycles;
        self.attribution.idle.add(cycles);
    }

    /// Per-cycle busy/stall attribution for this unit.
    pub(crate) fn attribution(&self) -> &StageBreakdown {
        &self.attribution
    }

    /// Whether all accepted jobs have been fully forwarded.
    pub(crate) fn is_done(&self) -> bool {
        self.jobs.is_empty() && self.staging.is_empty() && self.in_flight == 0
    }

    /// The malformed-stream flag, if the bounds check tripped.
    pub(crate) fn malformed_input(&self) -> Option<(u32, u32)> {
        self.malformed
    }

    /// Forward-progress signature for the watchdog. Folds job/stage
    /// occupancies and the front job's drain cursors — but *not* the
    /// `blocked` counters, which advance precisely while the unit is
    /// stuck and would mask a deadlock.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.next_seq);
        sig = mix_signature(sig, self.jobs.len() as u64);
        sig = mix_signature(sig, self.staging.len() as u64);
        sig = mix_signature(sig, self.in_flight as u64);
        sig = mix_signature(sig, self.pending_info.len() as u64);
        sig = mix_signature(sig, self.pending_data.len() as u64);
        if let Some(f) = self.jobs.front() {
            sig = mix_signature(sig, u64::from(f.info_requested) | u64::from(f.info_ready) << 1);
            sig = mix_signature(sig, f.ready_entries as u64);
            sig = mix_signature(sig, f.drained_entries as u64);
            sig = mix_signature(sig, f.plan.as_ref().map_or(u64::MAX, |p| p.len() as u64));
        }
        sig
    }

    /// Occupancy snapshot for deadlock diagnostics:
    /// `(jobs, in_flight, staging)`.
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        (self.jobs.len(), self.in_flight, self.staging.len())
    }

    /// Captures all mutable state for a checkpoint. Budgets and window
    /// sizes are rebuilt by [`SpBl::new`] on restore.
    pub(crate) fn snapshot(&self) -> SpBlState {
        SpBlState {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobState {
                    seq: j.seq,
                    is_fetch: j.kind == JobKind::Fetch,
                    b_row: j.b_row,
                    a_val: j.a_val,
                    out_row: j.out_row,
                    last_in_row: j.last_in_row,
                    info_requested: j.info_requested,
                    info_ready: j.info_ready,
                    plan: j.plan.as_ref().map(|p| p.iter().copied().collect()),
                    len: j.len,
                    ready_entries: j.ready_entries,
                    drained_entries: j.drained_entries,
                })
                .collect(),
            next_seq: self.next_seq,
            pending_info: self.pending_info.iter().map(|(&id, &seq)| (id, seq)).collect(),
            pending_data: self
                .pending_data
                .iter()
                .map(|(&id, span)| (id, span.job_seq, span.count))
                .collect(),
            staging: self.staging.iter().copied().collect(),
            in_flight: self.in_flight as u64,
            blocked: self.blocked,
            malformed: self.malformed,
            attribution: self.attribution.as_array(),
        }
    }

    /// Restores a snapshot into a freshly constructed loader built from
    /// the same configuration and B layout.
    pub(crate) fn restore(
        &mut self,
        state: &SpBlState,
        cfg: &MatRaptorConfig,
        layout: &MatrixLayout,
    ) {
        self.jobs = state
            .jobs
            .iter()
            .map(|j| Job {
                seq: j.seq,
                kind: if j.is_fetch { JobKind::Fetch } else { JobKind::EmptyRow },
                b_row: j.b_row,
                a_val: j.a_val,
                out_row: j.out_row,
                last_in_row: j.last_in_row,
                info_requested: j.info_requested,
                info_ready: j.info_ready,
                plan: j.plan.as_ref().map(|p| p.iter().copied().collect()),
                channel: 0,
                len: j.len,
                ready_entries: j.ready_entries,
                drained_entries: j.drained_entries,
            })
            .collect();
        for idx in 0..self.jobs.len() {
            let job = &mut self.jobs[idx];
            if job.kind == JobKind::Fetch {
                job.channel = job.next_channel(cfg, layout);
            }
            self.refile(idx);
        }
        self.next_seq = state.next_seq;
        self.pending_info = state.pending_info.iter().copied().collect();
        self.pending_data = state
            .pending_data
            .iter()
            .map(|&(id, job_seq, count)| (id, DataSpan { job_seq, count }))
            .collect();
        self.staging = state.staging.iter().copied().collect();
        self.in_flight = state.in_flight as usize;
        self.blocked = state.blocked;
        self.malformed = state.malformed;
        self.attribution = StageBreakdown::from_array(state.attribution);
    }
}
