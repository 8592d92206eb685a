//! `wire`: a closed loop of one `WireClient` per core over loopback. Each
//! client submits a small job it has never sent before, polls until it
//! resolves, then sends the next. Per-job costs dominate: run set-up,
//! admission, the frame codec, two round trips, and the hand-off to the
//! server's single engine thread.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use matraptor_core::fingerprint_inputs;
use matraptor_service::wire::frame::disposition_code;
use matraptor_service::wire::{
    JobState, Response, RetryPolicy, WireClient, WireCountersSnapshot, WireServer,
};
use matraptor_service::Disposition;
use matraptor_sparse::Csr;

use crate::host::available_parallelism;
use crate::inputs::{mix, server_config, wire_job, WIRE_DIM};
use crate::run::Outcome;
use crate::trace::Tracer;

/// The run's first this-many jobs (by global job index) are generated
/// during set-up, and `sim_cycles` sums them: a job set fixed by the seed
/// alone, whatever the run's length and the client count.
pub const FIRST_JOBS: u64 = 256;

/// Set-up is timed this many times per run and reported as the median.
const SETUP_REPEATS: usize = 61;

/// `jobs_per_s` is the median completion rate over this many equal slices
/// of the run.
const RATE_WINDOWS: usize = 10;

/// A started server, its connected clients, and the run's first
/// [`FIRST_JOBS`] operand pairs.
#[derive(Debug)]
pub struct Rig {
    server: WireServer,
    clients: Vec<WireClient>,
    first_jobs: Vec<(Csr<f64>, Csr<f64>)>,
}

/// When a client stops sending new jobs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long, counted from the common start.
    After(Duration),
    /// Once the run's first this-many jobs (by global index) are sent,
    /// whatever the client count.
    Jobs(u64),
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// `(seconds from the common start to resolution, submit-to-resolved
    /// seconds)` of each job that completed.
    pub latencies_s: Vec<(f64, f64)>,
    /// `(global job index, simulated cycle it resolved at)` for every
    /// resolved job.
    pub resolved: Vec<(u64, u64)>,
    /// Jobs submitted or attempted.
    pub attempted: u64,
    /// Jobs resolved `Completed`.
    pub completed: u64,
    /// Poll calls made.
    pub polls: u64,
    /// Failed calls and jobs that did not complete.
    pub failures: Vec<String>,
}

/// One closed-loop run.
#[derive(Debug)]
pub struct LoopRun {
    /// Wall seconds from the common start until every client finished.
    pub wall_s: f64,
    /// Per-client logs, in client order.
    pub logs: Vec<ClientLog>,
    /// Σ error and refusal counters of the server after the run.
    pub wire_errors: u64,
}

impl Rig {
    /// Generates the run's first jobs, starts a loopback server, and
    /// connects `clients` clients, each answering one ping.
    pub fn start(clients: usize, seed: u64) -> Result<Rig, String> {
        let first_jobs = (0..FIRST_JOBS).map(|g| wire_job(seed, g)).collect();
        let server = WireServer::start(server_config(clients), "127.0.0.1:0")
            .map_err(|e| format!("wire server start: {e}"))?;
        let addr: SocketAddr = server.addr();
        let mut rig = Rig { server, clients: Vec::with_capacity(clients), first_jobs };
        for c in 0..clients {
            let mut client =
                WireClient::connect(addr, RetryPolicy::default_local(), mix(seed, &[c as u64]))
                    .map_err(|e| format!("wire client {c} connect: {e:?}"))?;
            match client.ping() {
                Ok(Response::Pong) => {}
                other => return Err(format!("wire client {c} ping: {other:?}")),
            }
            rig.clients.push(client);
        }
        Ok(rig)
    }

    /// Runs every client's closed loop until `stop`.
    pub fn closed_loop(&mut self, seed: u64, stop: Stop, tracer: &mut Tracer) -> LoopRun {
        let clients = self.clients.len() as u64;
        let barrier = Barrier::new(self.clients.len() + 1);
        let first = self.first_jobs.as_slice();
        let (wall_s, results) = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let mut t = tracer.fork(c as u32 + 1);
                    let barrier = &barrier;
                    s.spawn(move || {
                        let run = ClientRun { seed, c: c as u64, clients, first, stop };
                        let log = run.go(client, barrier, &mut t);
                        (log, t)
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (t0.elapsed().as_secs_f64(), results)
        });
        let mut logs = Vec::with_capacity(results.len());
        for (c, r) in results.into_iter().enumerate() {
            match r {
                Ok((log, t)) => {
                    tracer.absorb(t);
                    logs.push(log);
                }
                Err(_) => logs.push(ClientLog {
                    failures: vec![format!("wire client {c} panicked")],
                    ..ClientLog::default()
                }),
            }
        }
        LoopRun { wall_s, logs, wire_errors: wire_errors(&self.server.counters()) }
    }

    /// Disconnects the clients and shuts the server down; fails if any
    /// server thread panicked.
    pub fn stop(self) -> Result<(), String> {
        drop(self.clients);
        let shutdown = self.server.shutdown();
        if shutdown.thread_panics != 0 {
            return Err(format!("wire server: {} thread panics", shutdown.thread_panics));
        }
        Ok(())
    }
}

/// Σ of the error and refusal fields of the server's counters.
fn wire_errors(c: &WireCountersSnapshot) -> u64 {
    [
        c.busy_rejected,
        c.drain_rejected,
        c.bad_magic,
        c.bad_version,
        c.bad_checksum,
        c.frame_too_large,
        c.truncated,
        c.timed_out,
        c.idle_closed,
        c.malformed,
        c.unknown_op,
        c.io_errors,
    ]
    .iter()
    .sum()
}

/// One client's side of a closed loop. Client `c` of `clients` sends the
/// jobs whose global index is `c`, `c + clients`, `c + 2·clients`, …, so the
/// run's jobs are one sequence fixed by the seed, dealt out across clients.
struct ClientRun<'a> {
    seed: u64,
    c: u64,
    clients: u64,
    first: &'a [(Csr<f64>, Csr<f64>)],
    stop: Stop,
}

impl ClientRun<'_> {
    fn go(&self, client: &mut WireClient, barrier: &Barrier, tracer: &mut Tracer) -> ClientLog {
        let c = self.c;
        barrier.wait();
        let start = Instant::now();
        let mut log = ClientLog::default();
        for k in 0.. {
            let job = c + k * self.clients;
            let done = match self.stop {
                Stop::After(d) => start.elapsed() >= d,
                Stop::Jobs(n) => job >= n,
            };
            if done {
                break;
            }
            let fresh;
            let (a, b) = match self.first.get(job as usize) {
                Some((a, b)) => (a, b),
                None => {
                    fresh = tracer.span("sparse", "generate", job, |_| wire_job(self.seed, job));
                    (&fresh.0, &fresh.1)
                }
            };
            log.attempted += 1;
            let t0 = Instant::now();
            let id = match tracer.span("wire", "submit", job, |_| client.submit(0, a, b)) {
                Ok(Response::Submitted { job }) => job,
                other => {
                    log.failures.push(format!("wire client {c} job {k}: submit: {other:?}"));
                    break;
                }
            };
            let resolved = loop {
                log.polls += 1;
                match tracer.span("wire", "poll", job, |_| client.poll(id)) {
                    Ok(Response::Status { state: JobState::Queued, .. }) => {}
                    Ok(Response::Status {
                        state: JobState::Resolved { disposition, finished_at, .. },
                        ..
                    }) => break Some((disposition, finished_at)),
                    other => {
                        log.failures.push(format!("wire client {c} job {k}: poll: {other:?}"));
                        break None;
                    }
                }
            };
            let Some((disposition, finished_at)) = resolved else { break };
            let latency_s = t0.elapsed().as_secs_f64();
            log.resolved.push((job, finished_at));
            if disposition == disposition_code(Disposition::Completed) {
                log.completed += 1;
                log.latencies_s.push((start.elapsed().as_secs_f64(), latency_s));
            } else {
                log.failures
                    .push(format!("wire client {c} job {k}: resolved with code {disposition}"));
            }
        }
        log
    }
}

/// Per-job simulated cycles, recovered from resolution cycles: the
/// server's engine runs one job at a time and advances its simulated
/// clock by exactly each completed job's cycles, so consecutive
/// resolution cycles differ by the later job's cycles. Returns
/// `(global job index, cycles)` in resolution order.
fn job_cycles(logs: &[ClientLog]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> =
        logs.iter().flat_map(|log| log.resolved.iter().map(|&(k, fin)| (fin, k))).collect();
    all.sort_unstable();
    let mut prev = 0;
    all.into_iter()
        .map(|(fin, job)| {
            let cycles = fin - prev;
            prev = fin;
            (job, cycles)
        })
        .collect()
}

/// The untraced `wire` run: the closed loop for `seconds`. Latency
/// samples are per job, in resolution order; `sim_cycles` sums the run's
/// first [`FIRST_JOBS`] jobs, which must all resolve.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let clients = available_parallelism();
    let mut out = Outcome {
        threads: clients,
        inputs: format!("uniform {WIRE_DIM}x{WIRE_DIM}, 4 nnz/row, one new pair per job"),
        ..Outcome::default()
    };
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(r) = rig.take() {
            Rig::stop(r)?;
        }
        let t0 = Instant::now();
        rig = Some(Rig::start(clients, seed)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.ok_or("no set-up ran")?;
    let run =
        rig.closed_loop(seed, Stop::After(Duration::from_secs_f64(seconds)), &mut Tracer::off());
    rig.stop()?;

    out.rounds = 1;
    out.timed_s = run.wall_s;
    if run.wire_errors != 0 {
        out.failures.push(format!("wire: {} server-side errors", run.wire_errors));
    }
    let fixed: Vec<u64> = job_cycles(&run.logs)
        .into_iter()
        .filter(|&(job, _)| job < FIRST_JOBS)
        .map(|(_, cycles)| cycles)
        .collect();
    if (fixed.len() as u64) < FIRST_JOBS {
        out.failures
            .push(format!("wire: only {} of the first {FIRST_JOBS} jobs resolved", fixed.len()));
    }
    out.sim_cycles = fixed.iter().sum();
    let mut latencies: Vec<(f64, f64)> = Vec::new();
    for (c, log) in run.logs.into_iter().enumerate() {
        out.attempted += log.attempted;
        out.completed += log.completed;
        latencies.extend(log.latencies_s);
        out.failures.extend(log.failures);
        out.input_fingerprints.extend((0..log.attempted).map(|k| {
            let (a, b) = wire_job(seed, c as u64 + k * clients as u64);
            fingerprint_inputs(&a, &b)
        }));
    }
    latencies.sort_by(|x, y| x.0.total_cmp(&y.0));
    let window_s = run.wall_s / RATE_WINDOWS as f64;
    let mut done = [0u64; RATE_WINDOWS];
    for &(end_s, _) in &latencies {
        done[((end_s / window_s) as usize).min(RATE_WINDOWS - 1)] += 1;
    }
    out.window_rates = done.iter().map(|&n| n as f64 / window_s).collect();
    out.latencies_s = latencies.into_iter().map(|(_, l)| l).collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_cycles_are_gaps_between_resolutions() {
        let logs = vec![
            ClientLog { resolved: vec![(0, 100), (1, 350)], ..ClientLog::default() },
            ClientLog { resolved: vec![(0, 160)], ..ClientLog::default() },
        ];
        assert_eq!(job_cycles(&logs), vec![(0, 100), (0, 60), (1, 190)]);
    }
}
