//! Per-lane output writer: streams finished C rows to the lane's channel.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;

use crate::checkpoint::WriterState;
use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, INFO_BYTES};
use crate::port::MemPort;

/// A finished output row held functionally until the run completes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FinishedRow {
    pub row: u32,
    pub cols: Vec<u32>,
    pub vals: Vec<f64>,
    /// Entries of padding left in the C²SR stream because the row
    /// overflowed the sorting queues and was delegated to the CPU
    /// (Section VII's upper-bound gap). Zero for normal rows.
    pub padded_entries: u64,
}

/// A lane's completed output rows, append-only: rows sealed by a snapshot
/// sit in `Arc`-shared chunks that every later checkpoint references
/// instead of copying, so a slice-boundary checkpoint costs O(rows
/// finished since the last one), not O(output). Equality and the
/// checkpoint byte walk see only the row sequence, never the chunking.
#[derive(Debug, Clone, Default)]
pub(crate) struct FinishedRows {
    sealed: Vec<Arc<Vec<FinishedRow>>>,
    /// Rows across `sealed` (the watchdog reads the length every stride).
    sealed_rows: usize,
    open: Vec<FinishedRow>,
}

impl FinishedRows {
    pub(crate) fn push(&mut self, row: FinishedRow) {
        self.open.push(row);
    }

    pub(crate) fn len(&self) -> usize {
        self.sealed_rows + self.open.len()
    }

    /// Every row in completion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &FinishedRow> {
        self.sealed.iter().flat_map(|c| c.iter()).chain(&self.open)
    }

    /// Seals the open rows into a shared chunk and returns a handle on
    /// the whole sequence that shares every chunk with `self`.
    pub(crate) fn share(&mut self) -> FinishedRows {
        if !self.open.is_empty() {
            self.sealed_rows += self.open.len();
            self.sealed.push(Arc::new(std::mem::take(&mut self.open)));
        }
        FinishedRows {
            sealed: self.sealed.clone(),
            sealed_rows: self.sealed_rows,
            open: Vec::new(),
        }
    }
}

impl From<Vec<FinishedRow>> for FinishedRows {
    fn from(open: Vec<FinishedRow>) -> Self {
        FinishedRows { sealed: Vec::new(), sealed_rows: 0, open }
    }
}

impl PartialEq for FinishedRows {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The Phase II output path of a lane: buffers merged entries into
/// burst-sized writes and appends them to the lane's own channel — no
/// synchronisation with other lanes, which is the C²SR write-path claim of
/// Section III-B.
#[derive(Debug)]
pub(crate) struct Writer {
    // conformance:allow(checkpoint-coverage): lane identity is structural; the restore path rebuilds the writer in place for the same lane
    lane: usize,
    /// Channel-local byte cursor within the C data region.
    local_cursor: u64,
    /// Entries buffered toward the next burst write.
    buffered_bytes: u32,
    /// Write requests accepted by the buffer but not yet by the HBM, as
    /// `(addr, bytes, channel)`: the channel of `addr`, computed when the
    /// write is queued (the checkpoint keeps `(addr, bytes)`).
    queue: VecDeque<(u64, u32, usize)>,
    /// Ids of writes in flight.
    pending: BTreeSet<u64>,
    /// Current row being assembled.
    cur_row: Option<u32>,
    cur_cols: Vec<u32>,
    cur_vals: Vec<f64>,
    /// All completed rows, in completion (= row) order for this lane.
    pub(crate) finished: FinishedRows,
    // conformance:allow(checkpoint-coverage): derived from config at construction; restore runs against the fingerprint-checked config
    entry_bytes: u32,
    // conformance:allow(checkpoint-coverage): fixed hardware constant, never mutated after construction
    queue_cap: usize,
    /// Channel-local base of the C data region.
    // conformance:allow(checkpoint-coverage): derived from the matrix layout at construction, identical across a restore of the same job
    data_base_local: u64,
    /// Total entries accepted via `push_entry` (fault bookkeeping).
    entries_pushed: u64,
    /// Fault injection: silently drop the append with this ordinal.
    /// One-shot; cleared after firing.
    pub(crate) fault_drop_append: Option<u64>,
    /// Appends actually dropped by the fault (campaign reporting).
    pub(crate) dropped_appends: u64,
    /// Per-cycle attribution: exactly one bucket is charged per tick.
    attribution: StageBreakdown,
}

impl Writer {
    pub(crate) fn new(lane: usize, cfg: &MatRaptorConfig, data_base_local: u64) -> Self {
        Writer {
            data_base_local,
            lane,
            local_cursor: 0,
            buffered_bytes: 0,
            queue: VecDeque::new(),
            pending: BTreeSet::new(),
            cur_row: None,
            cur_cols: Vec::new(),
            cur_vals: Vec::new(),
            finished: FinishedRows::default(),
            entry_bytes: u32::try_from(cfg.entry_bytes).unwrap_or(u32::MAX),
            queue_cap: 16,
            entries_pushed: 0,
            fault_drop_append: None,
            dropped_appends: 0,
            attribution: StageBreakdown::default(),
        }
    }

    /// Whether Phase II may emit another entry this cycle.
    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Accepts one merged `(col, val)` entry for row `row`.
    pub(crate) fn push_entry(&mut self, row: u32, col: u32, val: f64, cfg: &MatRaptorConfig) {
        debug_assert!(self.can_accept());
        let ordinal = self.entries_pushed;
        self.entries_pushed += 1;
        if self.fault_drop_append == Some(ordinal) {
            // Injected silent data loss: the entry vanishes between the
            // adder tree and the write buffer. Detected (if at all) only
            // by the output-integrity cross-check downstream.
            self.fault_drop_append = None;
            self.dropped_appends += 1;
            return;
        }
        if self.cur_row != Some(row) {
            debug_assert!(self.cur_row.is_none(), "previous row not finished");
            self.cur_row = Some(row);
        }
        self.cur_cols.push(col);
        self.cur_vals.push(val);
        self.buffered_bytes = self.buffered_bytes.saturating_add(self.entry_bytes);
        if self.buffered_bytes as u64 >= cfg.mem.interleave_bytes as u64 {
            self.flush_data_burst(cfg);
        }
    }

    /// Completes row `row`: flushes the partial burst and writes the
    /// *(length, pointer)* metadata pair.
    pub(crate) fn finish_row(&mut self, row: u32, cfg: &MatRaptorConfig, layout: &MatrixLayout) {
        debug_assert!(self.cur_row.is_none() || self.cur_row == Some(row));
        if self.buffered_bytes > 0 {
            self.flush_data_burst(cfg);
        }
        let addr = layout.info_addr(row as usize);
        self.queue.push_back((addr, INFO_BYTES, cfg.mem.channel_of_addr(addr)));
        self.finished.push(FinishedRow {
            row,
            cols: std::mem::take(&mut self.cur_cols),
            vals: std::mem::take(&mut self.cur_vals),
            padded_entries: 0,
        });
        self.cur_row = None;
    }

    /// Records an overflowed row (Section VII): the accelerator leaves an
    /// upper-bound-sized gap in the output stream and hands the row to the
    /// CPU; `cols`/`vals` carry the CPU-computed content so the run's
    /// functional output stays complete.
    pub(crate) fn record_overflow_row(
        &mut self,
        row: u32,
        cols: Vec<u32>,
        vals: Vec<f64>,
        upper_bound_entries: u64,
    ) {
        debug_assert!(self.cur_row.is_none(), "overflow row with partial write state");
        // The gap is address-space only: the hardware writes nothing here.
        self.local_cursor += upper_bound_entries * self.entry_bytes as u64;
        self.finished.push(FinishedRow { row, cols, vals, padded_entries: upper_bound_entries });
    }

    fn flush_data_burst(&mut self, cfg: &MatRaptorConfig) {
        let addr =
            cfg.mem.channel_local_to_flat(self.lane, self.data_local_base() + self.local_cursor);
        self.queue.push_back((addr, self.buffered_bytes, self.lane));
        self.local_cursor += self.buffered_bytes as u64;
        self.buffered_bytes = 0;
    }

    /// Channel-local base of the C data region; stored on the layout at
    /// construction time, duplicated here to keep flushes self-contained.
    fn data_local_base(&self) -> u64 {
        self.data_base_local
    }

    /// One accelerator cycle: issue at most one queued write.
    pub(crate) fn tick(&mut self, port: &mut MemPort<'_>) {
        let mut issued = false;
        if let Some(&(addr, bytes, channel)) = self.queue.front() {
            if let Some(id) = port.try_write(channel, addr, bytes) {
                self.pending.insert(id);
                self.queue.pop_front();
                issued = true;
            }
        }
        // A writer with queued-but-refused or in-flight writes is waiting
        // on memory; one merely assembling a row (or drained) has no work
        // of its own and is idle.
        self.attribution.charge(if issued {
            StageClass::Busy
        } else if !self.queue.is_empty() || !self.pending.is_empty() {
            StageClass::MemStall
        } else {
            StageClass::Idle
        });
    }

    /// Charges `cycles` ticks of a drained writer in bulk: each would
    /// issue nothing and charge one idle cycle.
    pub(crate) fn charge_idle(&mut self, cycles: u64) {
        self.attribution.idle.add(cycles);
    }

    /// Per-cycle busy/stall attribution for this unit.
    pub(crate) fn attribution(&self) -> &StageBreakdown {
        &self.attribution
    }

    /// Routes a write acknowledgement. Returns `true` if consumed.
    pub(crate) fn on_response(&mut self, id: u64) -> bool {
        self.pending.remove(&id)
    }

    /// Whether every accepted entry has been written and acknowledged.
    pub(crate) fn is_done(&self) -> bool {
        self.queue.is_empty()
            && self.pending.is_empty()
            && self.buffered_bytes == 0
            && self.cur_row.is_none()
    }

    /// Forward-progress signature for the watchdog.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.entries_pushed);
        sig = mix_signature(sig, self.queue.len() as u64);
        sig = mix_signature(sig, self.pending.len() as u64);
        sig = mix_signature(sig, self.buffered_bytes as u64);
        sig = mix_signature(sig, self.finished.len() as u64);
        mix_signature(sig, self.local_cursor)
    }

    /// Occupancy snapshot for deadlock diagnostics: `(queued, pending)`.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.queue.len(), self.pending.len())
    }

    /// Captures all mutable state for a checkpoint. The lane binding and
    /// region base are rebuilt by [`Writer::new`] on restore. Finished rows
    /// are sealed and shared, not copied (see [`FinishedRows`]).
    pub(crate) fn snapshot(&mut self) -> WriterState {
        WriterState {
            local_cursor: self.local_cursor,
            buffered_bytes: self.buffered_bytes,
            queue: self.queue.iter().map(|&(addr, bytes, _)| (addr, bytes)).collect(),
            pending: self.pending.iter().copied().collect(),
            cur_row: self.cur_row,
            cur_cols: self.cur_cols.clone(),
            cur_vals: self.cur_vals.clone(),
            finished: self.finished.share(),
            entries_pushed: self.entries_pushed,
            fault_drop_append: self.fault_drop_append,
            dropped_appends: self.dropped_appends,
            attribution: self.attribution.as_array(),
        }
    }

    /// Restores a snapshot into a freshly constructed writer for the same
    /// `(lane, config, layout)` triple.
    pub(crate) fn restore(&mut self, state: &WriterState, cfg: &MatRaptorConfig) {
        self.local_cursor = state.local_cursor;
        self.buffered_bytes = state.buffered_bytes;
        self.queue = state
            .queue
            .iter()
            .map(|&(addr, bytes)| (addr, bytes, cfg.mem.channel_of_addr(addr)))
            .collect();
        self.pending = state.pending.iter().copied().collect();
        self.cur_row = state.cur_row;
        self.cur_cols = state.cur_cols.clone();
        self.cur_vals = state.cur_vals.clone();
        self.finished = state.finished.clone();
        self.entries_pushed = state.entries_pushed;
        self.fault_drop_append = state.fault_drop_append;
        self.dropped_appends = state.dropped_appends;
        self.attribution = StageBreakdown::from_array(state.attribution);
    }
}
