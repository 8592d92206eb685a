//! The lane-side handle to the shared memory system (the crossbar of
//! Fig. 5a).

use matraptor_mem::{Hbm, MemRequest};
use matraptor_sim::{Cycle, IdMap};

/// A borrowed view of the memory system handed to each lane during its
/// tick. Allocates globally unique request ids and records which lane each
/// request belongs to so responses can be routed back (the crossbar is
/// partial — each SpAL/PE talks to one channel — which the address layout
/// already encodes; the route map is the model's bookkeeping, not extra
/// hardware).
#[derive(Debug)]
pub(crate) struct MemPort<'a> {
    pub hbm: &'a mut Hbm,
    /// Memory-domain time of the current accelerator cycle.
    pub mem_now: Cycle,
    pub next_id: &'a mut u64,
    /// Request id → lane index, for response routing.
    pub route: &'a mut IdMap<usize>,
    /// The lane currently ticking.
    pub lane: usize,
}

impl MemPort<'_> {
    /// Attempts to issue a read on `channel`, the channel of `addr`'s
    /// first byte; returns the request id if accepted.
    pub(crate) fn try_read(&mut self, channel: usize, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(channel, MemRequest::read(*self.next_id, addr, bytes))
    }

    /// Attempts to issue a write on `channel`, the channel of `addr`'s
    /// first byte; returns the request id if accepted.
    pub(crate) fn try_write(&mut self, channel: usize, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(channel, MemRequest::write(*self.next_id, addr, bytes))
    }

    /// Submits `req`, or refuses it without building a fragment when its
    /// first fragment's channel is full: the device would refuse it too.
    fn try_submit(&mut self, channel: usize, req: MemRequest) -> Option<u64> {
        debug_assert_eq!(channel, self.hbm.config().channel_of_addr(req.addr), "{req:?}");
        if self.hbm.full_channels() & 1 << channel != 0 || !self.hbm.submit(self.mem_now, req) {
            return None;
        }
        let id = req.id.0;
        self.route.insert(id, self.lane);
        *self.next_id += 1;
        Some(id)
    }
}
