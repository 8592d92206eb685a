//! HBM configuration.

/// The deepest lookahead window the channel controller supports.
pub const MAX_BANK_LOOKAHEAD: usize = 16;

/// The most channels a device supports: [`crate::Hbm`] tracks full
/// channel queues, and requesters their waiting work, in `u64` bitmasks
/// over channels.
pub const MAX_CHANNELS: usize = 64;

/// Parameters of the HBM model.
///
/// Defaults reproduce the paper's evaluated configuration (Section V): up
/// to eight 128-bit physical channels at 1 GHz for a 128 GB/s peak, 64 B
/// channel interleaving, and 64-entry request/response queues.
///
/// # Example
///
/// ```rust
/// use matraptor_mem::HbmConfig;
///
/// let cfg = HbmConfig::default();
/// assert_eq!(cfg.peak_bandwidth_gbs(), 128.0);
/// assert_eq!(cfg.burst_cycles(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Number of independent physical channels.
    pub num_channels: usize,
    /// Data bus width per channel in bytes (128-bit = 16 B).
    pub channel_width_bytes: u32,
    /// Memory clock in GHz.
    pub clock_ghz: f64,
    /// Burst (access-granularity) size in bytes: a channel occupies the
    /// bus for a whole burst regardless of how few bytes were requested.
    pub burst_bytes: u32,
    /// Address-interleave granularity across channels for flat (CSR-style)
    /// address spaces.
    pub interleave_bytes: u32,
    /// Pipeline latency from request issue to first data, in memory-clock
    /// cycles.
    pub access_latency: u64,
    /// Depth of each channel's request queue.
    pub queue_depth: usize,
    /// DRAM row (page) size in bytes; crossing a row boundary pays
    /// [`HbmConfig::row_miss_penalty`].
    pub row_bytes: u64,
    /// Extra cycles charged when a burst targets a different DRAM row than
    /// the one open in its bank (precharge + activate).
    pub row_miss_penalty: u64,
    /// Banks per channel, each with an independent open row. Multiple
    /// banks let interleaved streams from different requesters keep their
    /// rows open simultaneously, as real HBM does.
    pub banks_per_channel: usize,
    /// How many queued fragments the controller scans to pre-start bank
    /// activations (in-order transfers, overlapped preparation — a
    /// light-weight FR-FCFS). At most [`MAX_BANK_LOOKAHEAD`].
    pub bank_lookahead: usize,
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            num_channels: 8,
            channel_width_bytes: 16,
            clock_ghz: 1.0,
            burst_bytes: 64,
            interleave_bytes: 64,
            access_latency: 20,
            queue_depth: 64,
            row_bytes: 1024,
            row_miss_penalty: 22,
            banks_per_channel: 16,
            bank_lookahead: 12,
        }
    }
}

impl HbmConfig {
    /// A configuration with `n` channels and everything else default —
    /// the 2-/4-/8-channel sweep of Fig. 6.
    pub fn with_channels(n: usize) -> Self {
        HbmConfig { num_channels: n, ..HbmConfig::default() }
    }

    /// Peak bandwidth in GB/s: `channels × width × clock`.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.num_channels as f64 * self.channel_width_bytes as f64 * self.clock_ghz
    }

    /// Cycles a channel's data bus is occupied per burst.
    pub fn burst_cycles(&self) -> u64 {
        (self.burst_bytes as u64).div_ceil(self.channel_width_bytes as u64)
    }

    /// The channel that owns flat address `addr` under cyclic
    /// interleaving.
    pub fn channel_of_addr(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes as u64) % self.num_channels as u64) as usize
    }

    /// Maps a channel-local byte offset to the flat address owned by
    /// `channel` — the inverse of [`HbmConfig::channel_of_addr`] restricted
    /// to one channel. This is how C²SR's per-channel streams are laid out
    /// in the shared address space.
    pub fn channel_local_to_flat(&self, channel: usize, local_offset: u64) -> u64 {
        let il = self.interleave_bytes as u64;
        let block = local_offset / il;
        let within = local_offset % il;
        (block * self.num_channels as u64 + channel as u64) * il + within
    }

    /// The byte offset of `addr` within its channel's own address space —
    /// the inverse of [`HbmConfig::channel_local_to_flat`].
    ///
    /// DRAM row-buffer locality is a *per-channel* property: data that is
    /// contiguous in a channel is physically contiguous in that channel's
    /// DRAM, even though it appears strided in the flat interleaved space.
    pub fn channel_local_offset(&self, addr: u64) -> u64 {
        let il = self.interleave_bytes as u64;
        let block = addr / il;
        (block / self.num_channels as u64) * il + addr % il
    }

    /// Validates internal consistency; called by [`crate::Hbm::new`].
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, there are more than [`MAX_CHANNELS`]
    /// channels, the interleave is smaller than the burst (which would
    /// make single-burst requests span channels), or the bank lookahead
    /// exceeds [`MAX_BANK_LOOKAHEAD`].
    pub fn validate(&self) {
        assert!(self.num_channels > 0, "need at least one channel");
        assert!(
            self.num_channels <= MAX_CHANNELS,
            "{} channels exceed the {MAX_CHANNELS}-channel bitmasks",
            self.num_channels
        );
        assert!(self.channel_width_bytes > 0, "zero channel width");
        assert!(self.clock_ghz > 0.0, "zero clock");
        assert!(self.burst_bytes > 0, "zero burst");
        assert!(self.queue_depth > 0, "zero queue depth");
        assert!(
            self.interleave_bytes >= self.burst_bytes,
            "interleave ({}) must be at least one burst ({})",
            self.interleave_bytes,
            self.burst_bytes
        );
        assert!(self.row_bytes >= self.burst_bytes as u64, "row smaller than burst");
        assert!(self.banks_per_channel > 0, "need at least one bank");
        assert!(self.banks_per_channel <= 64, "bank bitset supports at most 64 banks");
        assert!(
            self.bank_lookahead <= MAX_BANK_LOOKAHEAD,
            "bank lookahead ({}) exceeds the controller's {MAX_BANK_LOOKAHEAD}-fragment window",
            self.bank_lookahead
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let cfg = HbmConfig::default();
        cfg.validate();
        assert_eq!(cfg.peak_bandwidth_gbs(), 128.0);
        assert_eq!(HbmConfig::with_channels(2).peak_bandwidth_gbs(), 32.0);
        assert_eq!(HbmConfig::with_channels(4).peak_bandwidth_gbs(), 64.0);
    }

    #[test]
    fn address_interleaving_round_trip() {
        let cfg = HbmConfig::default();
        for ch in 0..cfg.num_channels {
            for local in [0u64, 8, 63, 64, 1000, 4096] {
                let flat = cfg.channel_local_to_flat(ch, local);
                assert_eq!(cfg.channel_of_addr(flat), ch, "ch={ch} local={local}");
            }
        }
    }

    #[test]
    fn consecutive_interleave_blocks_rotate_channels() {
        let cfg = HbmConfig::with_channels(4);
        let channels: Vec<usize> =
            (0..8).map(|i| cfg.channel_of_addr(i * cfg.interleave_bytes as u64)).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn channel_local_streaming_is_contiguous_blocks() {
        // Consecutive local blocks of a channel are spaced num_channels
        // apart in flat space.
        let cfg = HbmConfig::with_channels(8);
        let a0 = cfg.channel_local_to_flat(3, 0);
        let a1 = cfg.channel_local_to_flat(3, 64);
        assert_eq!(a1 - a0, 8 * 64);
    }

    #[test]
    #[should_panic(expected = "bank lookahead (17) exceeds")]
    fn bank_lookahead_above_the_window_rejected() {
        let cfg = HbmConfig { bank_lookahead: MAX_BANK_LOOKAHEAD + 1, ..HbmConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "65 channels exceed the 64-channel bitmasks")]
    fn channels_above_the_bitmask_rejected() {
        HbmConfig::with_channels(MAX_CHANNELS).validate();
        HbmConfig::with_channels(MAX_CHANNELS + 1).validate();
    }

    #[test]
    #[should_panic(expected = "interleave")]
    fn interleave_below_burst_rejected() {
        let cfg = HbmConfig { interleave_bytes: 32, ..HbmConfig::default() };
        cfg.validate();
    }
}
