//! `suite`: all 14 Table II matrices squared, one unsliced
//! `Accelerator::try_run` each, on one thread. Nearly all the time goes to
//! the core drive loop; service, slicing and wire do no work.

use std::time::Instant;

use matraptor_core::{fingerprint_inputs, Accelerator, MatRaptorStats};
use matraptor_sparse::spgemm;

use crate::check::same_product;
use crate::inputs::{accel_config, suite_inputs, Square, SUITE_SCALE};
use crate::run::{rounds, Outcome};
use crate::trace::Tracer;

/// Every run makes at least this many rounds, and `sim_cycles` sums them:
/// the seed's fixed job set. Several rounds of fresh operands narrow the
/// spread of `sim_cycles` between seeds, which the larger R-MAT matrices
/// set.
const FIXED_ROUNDS: u64 = 3;

/// Set-up is timed this many times per run and reported as the median.
const SETUP_REPEATS: usize = 11;

/// One pass over a round's matrices.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of each `try_run`, in matrix order.
    pub run_s: Vec<f64>,
    /// Statistics of each run that completed with a correct output.
    pub stats: Vec<Option<MatRaptorStats>>,
    /// Failed runs and wrong outputs.
    pub failures: Vec<String>,
}

/// Runs every matrix of `inputs` squared, timing each `try_run`; checks
/// each output against the Gustavson reference outside the timing.
pub fn run_pass(acc: &Accelerator, inputs: &[Square], first_job: u64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    for (i, sq) in inputs.iter().enumerate() {
        let job = first_job + i as u64;
        let t0 = Instant::now();
        let res = tracer.span("core", "try_run", job, |_| acc.try_run(&sq.a, &sq.a));
        pass.run_s.push(t0.elapsed().as_secs_f64());
        let stats = match res {
            Ok(out) => {
                let want =
                    tracer.span("sparse", "gustavson", job, |_| spgemm::gustavson(&sq.a, &sq.a));
                match same_product(&out.c, &want) {
                    Ok(()) => Some(out.stats),
                    Err(e) => {
                        pass.failures.push(format!("suite {}: wrong output: {e}", sq.id));
                        None
                    }
                }
            }
            Err(e) => {
                pass.failures.push(format!("suite {}: try_run failed: {e}", sq.id));
                None
            }
        };
        pass.stats.push(stats);
    }
    pass
}

/// The untraced `suite` run. A round's 14 jobs are one batch, submitted
/// together and served in order on one thread, so a latency sample is a
/// round's wall (per-job service times differ 40× across the matrices, and
/// their median jumps between neighbouring sizes), so on this workload the
/// latency restates `jobs_per_s`; `sim_cycles` sums the first
/// [`FIXED_ROUNDS`] rounds.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: 1,
        inputs: format!("Table II at scale {SUITE_SCALE}"),
        ..Outcome::default()
    };
    let mut first = Vec::new();
    let mut acc = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        first = suite_inputs(seed, 0);
        acc = Some(Accelerator::try_new(accel_config()).map_err(|e| format!("{e:?}"))?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let acc = acc.ok_or("no set-up ran")?;
    let mut first = Some(first);
    let mut tracer = Tracer::off();
    let n = rounds(seconds, FIXED_ROUNDS, |r| {
        let inputs = first.take().unwrap_or_else(|| suite_inputs(seed, r));
        let pass = run_pass(&acc, &inputs, r * inputs.len() as u64, &mut tracer);
        out.input_fingerprints.extend(inputs.iter().map(|sq| fingerprint_inputs(&sq.a, &sq.a)));
        out.attempted += inputs.len() as u64;
        out.completed += pass.stats.iter().flatten().count() as u64;
        if r < FIXED_ROUNDS {
            out.sim_cycles += pass.stats.iter().flatten().map(|s| s.total_cycles).sum::<u64>();
        }
        out.failures.extend(pass.failures);
        let timed: f64 = pass.run_s.iter().sum();
        out.window_rates.push(pass.stats.iter().flatten().count() as f64 / timed);
        out.latencies_s.push(timed);
        out.timed_s += timed;
        timed
    });
    out.rounds = n;
    Ok(out)
}
