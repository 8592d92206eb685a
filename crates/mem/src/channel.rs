//! A single HBM channel: queue, burst service, per-bank row state.

use matraptor_sim::stats::Counter;
use matraptor_sim::{Cycle, Fifo};

use crate::snapshot::{BankState, ChannelState, ChannelStatsState, FragmentState};
use crate::{HbmConfig, MemKind, RequestId};

/// One burst-sized piece of a memory request, bound to a single channel.
///
/// [`crate::Hbm`] splits requests at burst boundaries before enqueueing,
/// so a fragment never spans bursts, interleave blocks, or channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fragment {
    pub req_id: RequestId,
    pub kind: MemKind,
    /// Flat byte address of the fragment start.
    pub addr: u64,
    /// Useful bytes this fragment carries (≤ one burst).
    pub bytes: u32,
    /// DRAM row of `addr` within its channel. Derived from `addr` when the
    /// fragment is built, so the controller's per-cycle lookahead does no
    /// division; never checkpointed (restore recomputes it).
    row: u64,
    /// Bank holding `row`.
    bank: usize,
}

impl Fragment {
    pub(crate) fn new(
        cfg: &HbmConfig,
        req_id: RequestId,
        kind: MemKind,
        addr: u64,
        bytes: u32,
    ) -> Self {
        let row = cfg.channel_local_offset(addr) / cfg.row_bytes;
        let bank = (row % cfg.banks_per_channel as u64) as usize;
        Fragment { req_id, kind, addr, bytes, row, bank }
    }
}

/// Per-channel accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Cycles the data bus was transferring or blocked on a row
    /// activation it could not hide.
    pub busy_cycles: Counter,
    /// Useful (requested) bytes read.
    pub read_bytes: Counter,
    /// Useful (requested) bytes written.
    pub write_bytes: Counter,
    /// Total bursts serviced.
    pub bursts: Counter,
    /// Bursts that carried read data.
    pub read_bursts: Counter,
    /// Bursts that carried write data.
    pub write_bursts: Counter,
    /// Bursts that had to open a new DRAM row.
    pub row_misses: Counter,
}

impl ChannelStats {
    /// Useful bytes in either direction.
    pub fn useful_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }
}

/// Per-bank row-buffer state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Row currently open (readable without activation).
    open_row: Option<u64>,
    /// Row being activated, ready at `ready_at`.
    prep_row: Option<u64>,
    /// Cycle at which the bank finishes its current activity.
    ready_at: Cycle,
}

/// A single channel: an in-order data bus over banks that activate rows in
/// parallel.
///
/// The controller looks `bank_lookahead` fragments into its queue and
/// starts row activations early (a light-weight FR-FCFS: transfers stay in
/// order, but bank preparation overlaps with earlier transfers — this is
/// what lets interleaved random streams from many requesters approach the
/// bus rate, while a *single* stream still exposes part of each activation
/// at row boundaries, keeping streaming slightly under peak as the paper
/// observes).
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    queue: Fifo<Fragment>,
    /// Fragment on the bus and the cycle its burst completes.
    in_service: Option<(Fragment, Cycle)>,
    banks: Vec<Bank>,
    stats: ChannelStats,
    /// Earliest cycle at which a bank-lookahead scan can start an
    /// activation: `Cycle(0)` once the scanned window or a bank changed,
    /// else the earliest `ready_at` of a bank the last scan left waiting,
    /// else never. Derived state: not checkpointed, and a restored
    /// channel scans on its first tick.
    // conformance:allow(checkpoint-coverage): derived from the queue and banks; restore rescans
    scan_at: Cycle,
}

impl Channel {
    pub(crate) fn new(cfg: &HbmConfig) -> Self {
        Channel {
            queue: Fifo::new(cfg.queue_depth),
            in_service: None,
            banks: vec![Bank::default(); cfg.banks_per_channel],
            stats: ChannelStats::default(),
            scan_at: Cycle(0),
        }
    }

    /// Whether another fragment can be accepted this cycle.
    #[cfg_attr(not(test), allow(dead_code))] // part of the channel API, exercised in tests
    pub(crate) fn can_accept(&self) -> bool {
        !self.queue.is_full()
    }

    /// Free queue slots, used by `Hbm` to admit multi-fragment requests
    /// atomically.
    pub(crate) fn free_slots(&self) -> usize {
        self.queue.free()
    }

    /// Current queue occupancy, surfaced in deadlock diagnostics.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a fragment.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers must check
    /// [`Channel::can_accept`] first (hardware backpressure).
    pub(crate) fn enqueue(&mut self, frag: Fragment, cfg: &HbmConfig) {
        self.queue
            .try_push(frag)
            // conformance:allow(panic-safety): documented contract: callers must check can_accept first
            .unwrap_or_else(|_| panic!("channel queue overflow; check can_accept first"));
        if self.queue.len() <= cfg.bank_lookahead {
            // The fragment landed inside the lookahead window.
            self.scan_at = Cycle(0);
        }
    }

    /// Advances one cycle. Returns a fragment whose burst completed at
    /// exactly this cycle, if any.
    pub(crate) fn tick(&mut self, now: Cycle, cfg: &HbmConfig) -> Option<Fragment> {
        // Complete the in-flight burst first so the bus frees this cycle.
        let completed = match self.in_service {
            Some((frag, done_at)) if done_at <= now => {
                self.in_service = None;
                Some(frag)
            }
            _ => None,
        };

        // Start activations for fragments near the head of the queue, but
        // only when a scan can: the outcome of a scan changes only with the
        // window, the bank states, or a waiting bank's timer.
        if now >= self.scan_at {
            let (started, wake) = self.lookahead(now, cfg, true);
            self.stats.row_misses.add(started);
            self.scan_at = wake;
        } else {
            debug_assert_eq!(self.lookahead(now, cfg, false).0, 0, "skipped a scan that activates");
        }

        // Put the head fragment on the bus when it is free.
        if self.in_service.is_none() {
            if let Some(&Fragment { row, bank, .. }) = self.queue.front() {
                let b = &mut self.banks[bank];
                let start = if b.open_row == Some(row) || b.prep_row == Some(row) {
                    now.max(b.ready_at)
                } else if b.prep_row.is_none() && now >= b.ready_at {
                    // Activation could not be pre-started (e.g. lookahead
                    // window of 0 or bank conflict): pay it inline.
                    b.open_row = None;
                    b.prep_row = Some(row);
                    b.ready_at = now + cfg.row_miss_penalty;
                    self.stats.row_misses.incr();
                    b.ready_at
                } else {
                    // Bank busy with a different row's activation; wait.
                    return completed;
                };
                // conformance:allow(panic-safety): invariant: loop condition proved the queue is non-empty
                let frag = self.queue.pop().expect("front exists");
                self.scan_at = Cycle(0);
                let end = start + cfg.burst_cycles();
                self.in_service = Some((frag, end));
                let b = &mut self.banks[bank];
                b.open_row = Some(row);
                b.prep_row = None;
                b.ready_at = end;
                self.stats.busy_cycles.add(end - now);
                self.stats.bursts.incr();
                match frag.kind {
                    MemKind::Read => {
                        self.stats.read_bytes.add(frag.bytes as u64);
                        self.stats.read_bursts.incr();
                    }
                    MemKind::Write => {
                        self.stats.write_bytes.add(frag.bytes as u64);
                        self.stats.write_bursts.incr();
                    }
                }
            }
        }
        completed
    }

    /// The bank-lookahead scan over the first `bank_lookahead` queued
    /// fragments. The first fragment touching a bank "claims" it, so a
    /// later fragment can never close a row an earlier one still needs. A
    /// claimed bank with another row (or none) open and no activation
    /// under way starts activating the claimed row once it is free — only
    /// if `activate`, so a dry run can check that a skipped scan would
    /// have started none.
    /// Returns the activations due and the cycle at which a rescan of the
    /// unchanged window could start another: the earliest `ready_at` of a
    /// bank left waiting on its timer, or never. A bank left waiting on
    /// another row's activation frees only when a fragment is popped,
    /// which forces a rescan anyway.
    fn lookahead(&mut self, now: Cycle, cfg: &HbmConfig, activate: bool) -> (u64, Cycle) {
        let (mut started, mut wake) = (0, Cycle(u64::MAX));
        let mut claimed = 0u64; // bitset over banks (≤ 64 banks)
        for &Fragment { row, bank, .. } in self.queue.iter().take(cfg.bank_lookahead) {
            let bit = 1u64 << bank;
            if claimed & bit != 0 {
                continue;
            }
            claimed |= bit;
            let b = &mut self.banks[bank];
            if b.open_row == Some(row) || b.prep_row.is_some() {
                continue;
            }
            if now < b.ready_at {
                wake = wake.min(b.ready_at);
            } else {
                started += 1;
                if activate {
                    b.open_row = None;
                    b.prep_row = Some(row);
                    b.ready_at = now + cfg.row_miss_penalty;
                }
            }
        }
        (started, wake)
    }

    /// Whether the channel has no queued or in-flight work.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Captures the full mutable state as plain data.
    pub(crate) fn snapshot(&self) -> ChannelState {
        let (items, queue_pushed) = self.queue.snapshot();
        ChannelState {
            queue: items.iter().map(frag_state).collect(),
            queue_pushed,
            in_service: self.in_service.as_ref().map(|(f, done)| (frag_state(f), done.as_u64())),
            banks: self
                .banks
                .iter()
                .map(|b| BankState {
                    open_row: b.open_row,
                    prep_row: b.prep_row,
                    ready_at: b.ready_at.as_u64(),
                })
                .collect(),
            stats: ChannelStatsState {
                busy_cycles: self.stats.busy_cycles.get(),
                read_bytes: self.stats.read_bytes.get(),
                write_bytes: self.stats.write_bytes.get(),
                bursts: self.stats.bursts.get(),
                read_bursts: self.stats.read_bursts.get(),
                write_bursts: self.stats.write_bursts.get(),
                row_misses: self.stats.row_misses.get(),
            },
        }
    }

    /// Rebuilds a channel from a [`Channel::snapshot`] capture.
    ///
    /// # Panics
    ///
    /// Panics if the capture is inconsistent with `cfg` (queue deeper
    /// than `cfg.queue_depth`, bank count mismatch).
    pub(crate) fn restore(cfg: &HbmConfig, state: &ChannelState) -> Self {
        assert_eq!(
            state.banks.len(),
            cfg.banks_per_channel,
            "channel restore: bank count mismatch"
        );
        let items: Vec<Fragment> = state.queue.iter().map(|f| fragment_of(cfg, f)).collect();
        let mut stats = ChannelStats::default();
        stats.busy_cycles.add(state.stats.busy_cycles);
        stats.read_bytes.add(state.stats.read_bytes);
        stats.write_bytes.add(state.stats.write_bytes);
        stats.bursts.add(state.stats.bursts);
        stats.read_bursts.add(state.stats.read_bursts);
        stats.write_bursts.add(state.stats.write_bursts);
        stats.row_misses.add(state.stats.row_misses);
        Channel {
            queue: Fifo::from_snapshot(cfg.queue_depth, items, state.queue_pushed),
            in_service: state
                .in_service
                .as_ref()
                .map(|(f, done)| (fragment_of(cfg, f), Cycle(*done))),
            banks: state
                .banks
                .iter()
                .map(|b| Bank {
                    open_row: b.open_row,
                    prep_row: b.prep_row,
                    ready_at: Cycle(b.ready_at),
                })
                .collect(),
            stats,
            scan_at: Cycle(0),
        }
    }
}

fn frag_state(f: &Fragment) -> FragmentState {
    FragmentState { req_id: f.req_id.0, kind: f.kind, addr: f.addr, bytes: f.bytes }
}

fn fragment_of(cfg: &HbmConfig, f: &FragmentState) -> Fragment {
    Fragment::new(cfg, RequestId(f.req_id), f.kind, f.addr, f.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(cfg: &HbmConfig, id: u64, addr: u64, bytes: u32) -> Fragment {
        Fragment::new(cfg, RequestId(id), MemKind::Read, addr, bytes)
    }

    fn drive(ch: &mut Channel, cfg: &HbmConfig, until: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for t in 0..until {
            if let Some(f) = ch.tick(Cycle(t), cfg) {
                done.push((f.req_id.0, t));
            }
        }
        done
    }

    #[test]
    fn cold_burst_pays_activation_plus_burst() {
        let cfg = HbmConfig::default(); // burst 4, activation 22
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64), &cfg);
        let done = drive(&mut ch, &cfg, 100);
        // Prep starts at t=0 (in the lookahead window), transfer waits for
        // it: ready at 22, burst done at 26.
        assert_eq!(done, vec![(1, 26)]);
    }

    #[test]
    fn open_row_hits_are_back_to_back() {
        let cfg = HbmConfig::default();
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64), &cfg);
        ch.enqueue(frag(&cfg, 2, 64, 64), &cfg);
        let done = drive(&mut ch, &cfg, 200);
        assert_eq!(done[0], (1, 26));
        assert_eq!(done[1], (2, 30));
        assert_eq!(ch.stats().row_misses.get(), 1);
    }

    #[test]
    fn activations_on_different_banks_overlap_with_transfers() {
        // Rows 0 and 1 live in different banks; bank 1's activation should
        // run while bank 0's bursts are on the bus. One channel, so flat
        // addresses equal channel-local offsets.
        let cfg = HbmConfig::with_channels(1); // row = 1 KB = 16 bursts
        let mut ch = Channel::new(&cfg);
        // Four bursts in row 0, then one in row 1.
        for i in 0..4 {
            ch.enqueue(frag(&cfg, i, i * 64, 64), &cfg);
        }
        ch.enqueue(frag(&cfg, 9, 1024, 64), &cfg);
        let done = drive(&mut ch, &cfg, 300);
        let last = done.last().unwrap();
        // Row-0 bursts finish at 26,30,34,38. Row 1's activation started
        // once it entered the 4-deep window (t=4, after the first pop),
        // ready at 4+22=26 ≤ 38, so its burst is not delayed: done at 42.
        assert_eq!(last, &(9, 42));
        assert_eq!(ch.stats().row_misses.get(), 2);
    }

    #[test]
    fn same_bank_conflict_serialises() {
        // Two different rows in the SAME bank (row stride = banks * row).
        // One channel keeps flat == channel-local addressing.
        let cfg = HbmConfig::with_channels(1);
        let nbanks = cfg.banks_per_channel as u64;
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64), &cfg);
        ch.enqueue(frag(&cfg, 2, nbanks * cfg.row_bytes, 64), &cfg);
        let done = drive(&mut ch, &cfg, 300);
        // Second activation cannot start until the first transfer ends
        // (t=26): ready 48, done 52.
        assert_eq!(done, vec![(1, 26), (2, 52)]);
        assert_eq!(ch.stats().row_misses.get(), 2);
    }

    #[test]
    fn narrow_read_still_occupies_full_burst() {
        let cfg = HbmConfig::default();
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 8), &cfg);
        ch.enqueue(frag(&cfg, 2, 8, 8), &cfg);
        let done = drive(&mut ch, &cfg, 200);
        // Same row: 4-cycle bursts back to back despite 8 B payloads.
        assert_eq!(done[1].1 - done[0].1, 4);
        assert_eq!(ch.stats().useful_bytes(), 16);
    }

    #[test]
    fn idle_and_backpressure() {
        let cfg = HbmConfig { queue_depth: 2, ..HbmConfig::default() };
        let mut ch = Channel::new(&cfg);
        assert!(ch.is_idle());
        ch.enqueue(frag(&cfg, 1, 0, 64), &cfg);
        ch.enqueue(frag(&cfg, 2, 64, 64), &cfg);
        assert!(!ch.can_accept());
        assert_eq!(ch.free_slots(), 0);
        assert!(!ch.is_idle());
    }
}
