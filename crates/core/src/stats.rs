//! Run statistics: the raw material for Figs. 7, 8, 9 and 11.

use matraptor_sim::stats::CycleBreakdown;
use matraptor_sim::trace::StageBreakdown;

/// Per-lane, per-stage cycle attribution for one run.
///
/// Each breakdown charges exactly one bucket per accelerator cycle, so on
/// a completed run every stage's `total()` equals
/// [`MatRaptorStats::total_cycles`] — the invariant the `trace_report`
/// bench bin asserts across the whole synthetic suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneAttribution {
    /// SpAL (A-loader) attribution.
    pub spal: StageBreakdown,
    /// SpBL (B-loader) attribution.
    pub spbl: StageBreakdown,
    /// PE attribution (the PE's merge stall maps to queue-stall).
    pub pe: StageBreakdown,
    /// Writer attribution.
    pub writer: StageBreakdown,
}

impl LaneAttribution {
    /// The four stages as `(name, breakdown)` pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, &StageBreakdown); 4] {
        [("spal", &self.spal), ("spbl", &self.spbl), ("pe", &self.pe), ("writer", &self.writer)]
    }
}

/// Everything measured during one accelerator run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatRaptorStats {
    /// Total accelerator-clock cycles from start to full drain.
    pub total_cycles: u64,
    /// Accelerator clock in GHz (for time conversion).
    pub clock_ghz: f64,
    /// Aggregate busy/stall breakdown summed over all PEs (Fig. 9).
    pub breakdown: CycleBreakdown,
    /// Per-PE breakdowns.
    pub per_pe_breakdown: Vec<CycleBreakdown>,
    /// Useful scalar multiplies retired.
    pub multiplies: u64,
    /// Additions retired (merge + adder tree).
    pub additions: u64,
    /// Useful bytes read from HBM.
    pub bytes_read: u64,
    /// Useful bytes written to HBM.
    pub bytes_written: u64,
    /// Burst-quantized DRAM read traffic (pin bytes).
    pub traffic_read: u64,
    /// Burst-quantized DRAM write traffic (pin bytes).
    pub traffic_written: u64,
    /// DRAM bursts serviced, summed over channels.
    pub bursts: u64,
    /// Bursts that had to open a new DRAM row, summed over channels.
    pub row_misses: u64,
    /// Non-zeros of A assigned to each PE (Fig. 11's imbalance input).
    pub per_pe_nnz: Vec<u64>,
    /// Output rows that overflowed the sorting queues and fell back to
    /// the CPU (Section VII).
    pub overflow_rows: usize,
    /// Upper-bound gap entries left in the output stream for overflowed
    /// rows (Section VII's padding; zero when nothing overflowed).
    pub overflow_padding_entries: u64,
    /// Cycles with Phase I active (any PE), for the paper's phase-ratio
    /// observation.
    pub phase1_cycles: u64,
    /// Cycles with Phase II active (any PE).
    pub phase2_cycles: u64,
    /// Per-lane, per-stage busy/mem-stall/queue-stall/idle attribution.
    pub per_lane_attribution: Vec<LaneAttribution>,
}

impl MatRaptorStats {
    /// Wall-clock seconds of the run.
    pub fn elapsed_seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Total arithmetic operations, paper-style (multiplies + additions).
    pub fn total_ops(&self) -> u64 {
        self.multiplies + self.additions
    }

    /// Achieved throughput in GOP/s — the y-axis of the roofline (Fig. 7).
    pub fn achieved_gops(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / self.elapsed_seconds() / 1e9
    }

    /// Operation intensity in OPs/byte — the x-axis of the roofline
    /// (Fig. 7). Uses *pin traffic* (burst-quantized bytes), which is what
    /// gem5's DRAM counters report and what the paper's roofline is drawn
    /// against.
    pub fn op_intensity(&self) -> f64 {
        let bytes = self.traffic_read + self.traffic_written;
        if bytes == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / bytes as f64
    }

    /// Achieved memory bandwidth in GB/s over the run (pin traffic).
    pub fn achieved_bandwidth_gbs(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        (self.traffic_read + self.traffic_written) as f64 / self.elapsed_seconds() / 1e9
    }

    /// Achieved *useful* bandwidth in GB/s (requested bytes only).
    pub fn useful_bandwidth_gbs(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.bytes_read.saturating_add(self.bytes_written) as f64 / self.elapsed_seconds() / 1e9
    }

    /// Load imbalance as the paper defines it for Fig. 11: max/min of the
    /// per-PE non-zero counts of A (1.0 = perfectly balanced).
    ///
    /// Returns `f64::INFINITY` when some PE received no work at all.
    pub fn load_imbalance(&self) -> f64 {
        let max = self.per_pe_nnz.iter().copied().max().unwrap_or(0);
        let min = self.per_pe_nnz.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }

    /// Ratio of Phase I to Phase II cycles; the paper measures this in
    /// `[2, 15]` across the suite.
    pub fn phase_ratio(&self) -> f64 {
        if self.phase2_cycles == 0 {
            f64::INFINITY
        } else {
            self.phase1_cycles as f64 / self.phase2_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatRaptorStats {
        MatRaptorStats {
            total_cycles: 2_000,
            clock_ghz: 2.0,
            breakdown: CycleBreakdown::default(),
            per_pe_breakdown: vec![],
            multiplies: 1_000,
            additions: 500,
            bytes_read: 8_000,
            bytes_written: 2_000,
            traffic_read: 8_000,
            traffic_written: 2_000,
            bursts: 160,
            row_misses: 12,
            per_pe_nnz: vec![100, 110, 90, 105],
            overflow_rows: 0,
            overflow_padding_entries: 0,
            phase1_cycles: 1_500,
            phase2_cycles: 300,
            per_lane_attribution: vec![],
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample();
        assert!((s.elapsed_seconds() - 1e-6).abs() < 1e-15);
        assert_eq!(s.total_ops(), 1_500);
        assert!((s.achieved_gops() - 1.5).abs() < 1e-9);
        assert!((s.op_intensity() - 0.15).abs() < 1e-12);
        assert!((s.achieved_bandwidth_gbs() - 10.0).abs() < 1e-9);
        assert!((s.load_imbalance() - 110.0 / 90.0).abs() < 1e-12);
        assert!((s.phase_ratio() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let mut s = sample();
        s.per_pe_nnz = vec![0, 0];
        assert_eq!(s.load_imbalance(), 1.0);
        s.per_pe_nnz = vec![5, 0];
        assert_eq!(s.load_imbalance(), f64::INFINITY);
        s.phase2_cycles = 0;
        assert_eq!(s.phase_ratio(), f64::INFINITY);
    }
}
