//! `sliced`: the large-output Table II matrices as `ParJob`s through the
//! threaded executor, each operand pair submitted twice. Every 4096-cycle
//! slice repeats validation, C²SR conversion, fingerprinting and a
//! checkpoint snapshot/restore, so per-slice costs, dispatch/merge and
//! thread scaling show here.

use std::time::Instant;

use matraptor_core::fingerprint_inputs;
use matraptor_service::{parallel, Disposition, ParCounters, ParJob, ParReport};

use crate::host::available_parallelism;
use crate::inputs::{parallel_config, sliced_inputs, Square, SLICED_SCALE};
use crate::run::{rounds, Outcome};
use crate::trace::Tracer;

/// Every operand pair is submitted this many times.
pub const COPIES: usize = 2;

/// Every run makes at least this many rounds, and `sim_cycles` sums them:
/// the seed's fixed job set.
const FIXED_ROUNDS: u64 = 2;

/// Set-up is timed this many times per run and reported as the median.
const SETUP_REPEATS: usize = 41;

/// One `parallel::run` call over a round's jobs.
#[derive(Debug)]
pub struct Batch {
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Jobs resolved `Completed` with matching copies.
    pub completed: u64,
    /// Σ cycles the completed jobs executed.
    pub executed_cycles: u64,
    /// Output fingerprint of each pair, in input order (`None` if unresolved).
    pub fingerprints: Vec<Option<u64>>,
    /// The executor's counters.
    pub counters: ParCounters,
    /// Failed checks.
    pub failures: Vec<String>,
}

/// The jobs of one round: each operand squared, [`COPIES`] times.
fn jobs(inputs: &[Square], round: u64) -> Vec<ParJob> {
    let first = round * (inputs.len() * COPIES) as u64;
    (0..inputs.len() * COPIES)
        .map(|j| ParJob {
            id: first + j as u64,
            a: inputs[j / COPIES].a.clone(),
            b: inputs[j / COPIES].a.clone(),
            plan: None,
            deadline_cycles: u64::MAX,
        })
        .collect()
}

/// Worker threads for `jobs` jobs on this host.
pub fn threads_for(jobs: usize) -> usize {
    available_parallelism().min(jobs).max(1)
}

/// Runs one round on `threads` workers and checks that every job
/// completed and both copies of each pair produced the same output.
pub fn run_batch(threads: usize, inputs: &[Square], round: u64, tracer: &mut Tracer) -> Batch {
    let jobs = jobs(inputs, round);
    let first = jobs.first().map_or(0, |j| j.id);
    let t0 = Instant::now();
    let res =
        tracer.span("parallel", "run", round, |_| parallel::run(parallel_config(threads), jobs));
    let wall_s = t0.elapsed().as_secs_f64();
    let mut batch = Batch {
        wall_s,
        completed: 0,
        executed_cycles: 0,
        fingerprints: vec![None; inputs.len()],
        counters: ParCounters::default(),
        failures: Vec::new(),
    };
    match res {
        Ok(report) => check(&report, inputs, first, &mut batch),
        Err(e) => batch.failures.push(format!("sliced round {round}: executor error: {e}")),
    }
    batch
}

fn check(report: &ParReport, inputs: &[Square], first: u64, batch: &mut Batch) {
    batch.counters = report.counters;
    if report.records.len() != inputs.len() * COPIES {
        batch.failures.push(format!(
            "sliced: {} of {} jobs resolved",
            report.records.len(),
            inputs.len() * COPIES
        ));
    }
    for r in &report.records {
        let Some(pair) = r.id.checked_sub(first).map(|j| j as usize / COPIES) else {
            batch.failures.push(format!("sliced: unknown job id {}", r.id));
            continue;
        };
        let Some(sq) = inputs.get(pair) else {
            batch.failures.push(format!("sliced: unknown job id {}", r.id));
            continue;
        };
        if r.disposition != Disposition::Completed || r.output_fingerprint.is_none() {
            batch.failures.push(format!(
                "sliced {}: job {} resolved {}",
                sq.id,
                r.id,
                r.disposition.label()
            ));
            continue;
        }
        match batch.fingerprints[pair] {
            None => batch.fingerprints[pair] = r.output_fingerprint,
            Some(fp) if Some(fp) != r.output_fingerprint => {
                batch.failures.push(format!("sliced {}: the two copies' outputs differ", sq.id));
                continue;
            }
            Some(_) => {}
        }
        batch.completed += 1;
        batch.executed_cycles += r.executed_cycles;
    }
    if report.counters.duplicate_completions != 0 {
        batch.failures.push("sliced: duplicate completions in the merge".to_string());
    }
}

/// The untraced `sliced` run. Latency samples are per-batch walls (every
/// job of a round is submitted at once; the last resolution ends the
/// batch), so on this workload the latency restates `jobs_per_s`;
/// `sim_cycles` sums the executed cycles of the first [`FIXED_ROUNDS`]
/// rounds.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome {
        inputs: format!(
            "Table II {:?} at scale {SLICED_SCALE}, {COPIES} copies each",
            crate::inputs::SLICED_IDS
        ),
        ..Outcome::default()
    };
    let mut first = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        first = sliced_inputs(seed, 0);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let threads = threads_for(first.len() * COPIES);
    out.threads = threads;
    let mut first = Some(first);
    let mut tracer = Tracer::off();
    let n = rounds(seconds, FIXED_ROUNDS, |r| {
        let inputs = first.take().unwrap_or_else(|| sliced_inputs(seed, r));
        let batch = run_batch(threads, &inputs, r, &mut tracer);
        for sq in &inputs {
            let fp = fingerprint_inputs(&sq.a, &sq.a);
            out.input_fingerprints.extend([fp; COPIES]);
        }
        out.attempted += (inputs.len() * COPIES) as u64;
        out.completed += batch.completed;
        if r < FIXED_ROUNDS {
            out.sim_cycles += batch.executed_cycles;
        }
        out.failures.extend(batch.failures);
        out.window_rates.push(batch.completed as f64 / batch.wall_s);
        out.latencies_s.push(batch.wall_s);
        out.timed_s += batch.wall_s;
        batch.wall_s
    });
    out.rounds = n;
    Ok(out)
}
