//! What an untraced workload run measures, and the round loop that sizes
//! a run to `--seconds`.

/// The raw measurements of one untraced workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed region (the calls into the program).
    pub timed_s: f64,
    /// Jobs completed per second in each window of the timed region: a
    /// round on `suite` and `sliced`, a tenth of the run on `wire`.
    pub window_rates: Vec<f64>,
    /// Submit-to-resolved seconds of each latency sample, in the order
    /// the jobs resolved.
    pub latencies_s: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that resolved `Completed` with a correct output.
    pub completed: u64,
    /// Every failed check, as a message.
    pub failures: Vec<String>,
    /// Σ simulated cycles of the run's fixed job set (see each workload).
    pub sim_cycles: u64,
    /// `fingerprint_inputs` of every job's operand pair, in submit order.
    pub input_fingerprints: Vec<u64>,
    /// Worker threads or client connections used.
    pub threads: usize,
    /// Rounds run (one round is one pass over the workload's job set).
    pub rounds: u64,
    /// What the inputs are, for the run context.
    pub inputs: String,
}

impl Outcome {
    /// Share of jobs whose operand pair already appeared earlier in the run.
    pub fn repeat_frac(&self) -> f64 {
        let mut seen = std::collections::BTreeSet::new();
        let repeats = self.input_fingerprints.iter().filter(|&&f| !seen.insert(f)).count();
        repeats as f64 / self.input_fingerprints.len().max(1) as f64
    }
}

/// Calls `round(r)` for `r = 0, 1, …` until the summed timed seconds the
/// rounds return are as close to `seconds` as whole rounds allow, and at
/// least `min_rounds` rounds (at least one) have run. Returns the number of
/// rounds.
pub fn rounds(seconds: f64, min_rounds: u64, mut round: impl FnMut(u64) -> f64) -> u64 {
    let mut total = 0.0;
    let mut r = 0u64;
    loop {
        total += round(r);
        r += 1;
        // Stop when one more round of the mean length would end further
        // past the target than stopping now falls short of it.
        if r >= min_rounds && total + total / r as f64 / 2.0 >= seconds {
            return r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_end_nearest_the_target() {
        assert_eq!(rounds(20.0, 1, |_| 9.0), 2); // 18 s beats 27 s
        assert_eq!(rounds(20.0, 1, |_| 11.0), 2); // 22 s beats 11 s
        assert_eq!(rounds(20.0, 1, |_| 30.0), 1); // at least one round
        assert_eq!(rounds(20.0, 0, |_| 30.0), 1);
        assert_eq!(rounds(20.0, 1, |_| 1.0), 20);
        assert_eq!(rounds(20.0, 3, |_| 11.0), 3); // the minimum wins
    }

    #[test]
    fn repeat_frac_counts_later_copies() {
        let o = Outcome { input_fingerprints: vec![1, 1, 2, 2, 3, 3], ..Outcome::default() };
        assert_eq!(o.repeat_frac(), 0.5);
        assert_eq!(Outcome::default().repeat_frac(), 0.0);
    }
}
