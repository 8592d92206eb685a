//! The traced run: per-layer metrics, each measured from outside by timing
//! the benchmark's own calls into one layer's public API.
//!
//! Every traced run reports every per-layer metric, from the same probes
//! whatever the workload. The workload picks the *unit* — one round of
//! its own work — that is run untraced and then traced, which gives the
//! tracing overhead and the top-level span coverage for that workload.

use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use matraptor_core::{fingerprint_inputs, Accelerator, Checkpoint, SliceRun};
use matraptor_service::wire::frame::{
    decode_request, encode_frame, encode_request, read_frame, ReadBudget, DEFAULT_MAX_FRAME_LEN,
};
use matraptor_service::wire::Request;
use matraptor_service::{fingerprint_output, Disposition, JobSpec, Service, TenantId};
use matraptor_sparse::C2sr;

use crate::host::available_parallelism;
use crate::inputs::{
    accel_config, service_config, sliced_inputs, suite_inputs, wire_job, SLICE_CYCLES,
};
use crate::report::Metrics;
use crate::sliced::{run_batch, threads_for, COPIES};
use crate::stats::median;
use crate::suite::run_pass;
use crate::trace::{layer_self_seconds, to_json, top_level_coverage, Span, Tracer};
use crate::wire::{Rig, Stop};

/// Jobs in the traced `wire` unit, dealt out across the clients.
const WIRE_UNIT_JOBS: u64 = 600;

/// Operand pairs the direct core/service/codec probes run.
const SMALL_JOBS: u64 = 200;

/// Calls per sample for the C²SR-conversion and fingerprint probes.
const REPEATS: u64 = 5;

/// Top-level spans must cover at least this share of the unit's wall.
const MIN_COVERAGE: f64 = 0.95;

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Jobs run across all probes.
    pub attempted: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

/// Runs `workload`'s unit untraced and traced, then every probe, and
/// writes the spans to `spans_path`.
pub fn run(workload: &str, seed: u64, spans_path: &Path) -> Result<Traced, String> {
    let mut t = Tracer::new(Instant::now(), true);
    let mut out = Traced::default();
    let acc = Accelerator::try_new(accel_config()).map_err(|e| format!("{e:?}"))?;

    // The workload's unit: untraced, then traced.
    let unit = |t: &mut Tracer, out: &mut Traced| -> Result<f64, String> {
        let t0 = Instant::now();
        match workload {
            "suite" => suite_probe(&acc, seed, t, out),
            "sliced" => {
                let inputs = t.span("sparse", "generate", 0, |_| sliced_inputs(seed, 0));
                let batch = run_batch(threads_for(inputs.len() * COPIES), &inputs, 0, t);
                out.attempted += (inputs.len() * COPIES) as u64;
                out.failures.extend(batch.failures);
            }
            "wire" => wire_probe(seed, t, out)?,
            other => return Err(format!("unknown workload `{other}`")),
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    let mut untraced = Traced::default();
    let untraced_s = unit(&mut Tracer::off(), &mut untraced)?;
    out.attempted = untraced.attempted;
    out.failures = untraced.failures;
    let start_ns = t.now_ns();
    let traced_s = unit(&mut t, &mut out)?;
    let end_ns = t.now_ns();
    out.metrics.insert("trace.overhead_frac".into(), traced_s / untraced_s);
    let coverage = top_level_coverage(t.spans(), start_ns, end_ns);
    out.metrics.insert("trace.span_coverage".into(), coverage);
    if coverage < MIN_COVERAGE {
        out.failures.push(format!("top-level spans cover {coverage:.3} of the {workload} unit"));
    }

    // The probes the unit did not already run.
    if workload != "suite" {
        suite_probe(&acc, seed, &mut t, &mut out);
    }
    slice_and_executor_probe(&acc, seed, &mut t, &mut out);
    small_job_probe(&acc, seed, &mut t, &mut out)?;
    if workload != "wire" {
        wire_probe(seed, &mut t, &mut out)?;
    }

    let spans = t.spans();
    out.metrics.insert("trace.spans".into(), spans.len() as f64);
    let self_s = layer_self_seconds(spans);
    for layer in ["sparse", "core", "service", "parallel", "wire"] {
        out.metrics.insert(format!("self_s.{layer}"), self_s.get(layer).copied().unwrap_or(0.0));
    }
    if let Some(dir) = spans_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(spans_path, to_json(spans))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    Ok(out)
}

/// Durations in µs of the spans named `name` in `layer`.
fn span_us(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

fn median_span_us(spans: &[Span], layer: &str, name: &str) -> f64 {
    median(&span_us(spans, layer, name)).unwrap_or(f64::NAN)
}

/// One `suite` pass: simulator throughput, per-matrix cost per simulated
/// cycle, and the simulated counters of `MatRaptorStats`.
fn suite_probe(acc: &Accelerator, seed: u64, t: &mut Tracer, out: &mut Traced) {
    let inputs = t.span("sparse", "generate", 0, |_| suite_inputs(seed, 0));
    let pass = run_pass(acc, &inputs, 0, t);
    out.attempted += inputs.len() as u64;
    out.failures.extend(pass.failures);
    let m = &mut out.metrics;
    let (mut run_s, mut cycles) = (0.0, 0u64);
    let (mut busy, mut merge, mut mem, mut total) = (0u64, 0u64, 0u64, 0u64);
    let (mut overflow, mut read, mut written, mut useful_read) = (0u64, 0u64, 0u64, 0u64);
    for ((sq, &s), stats) in inputs.iter().zip(&pass.run_s).zip(&pass.stats) {
        let Some(st) = stats else { continue };
        run_s += s;
        cycles += st.total_cycles;
        m.insert(format!("core.us_per_cycle.{}", sq.id), s * 1e6 / st.total_cycles.max(1) as f64);
        busy += st.breakdown.busy.get();
        merge += st.breakdown.merge_stall.get();
        mem += st.breakdown.memory_stall.get();
        total += st.breakdown.total();
        overflow += st.overflow_rows as u64;
        read += st.traffic_read;
        written += st.traffic_written;
        useful_read += st.bytes_read;
    }
    let total = total.max(1) as f64;
    m.insert("core.run_s".into(), run_s);
    m.insert("core.sim_cycles_per_s".into(), cycles as f64 / run_s);
    m.insert("core.busy_frac".into(), busy as f64 / total);
    m.insert("core.merge_stall_frac".into(), merge as f64 / total);
    m.insert("core.mem_stall_frac".into(), mem as f64 / total);
    m.insert("core.overflow_rows".into(), overflow as f64);
    m.insert("mem.traffic_read_bytes".into(), read as f64);
    m.insert("mem.traffic_written_bytes".into(), written as f64);
    m.insert("mem.read_efficiency".into(), useful_read as f64 / read.max(1) as f64);
}

/// The cheapest `sliced` pair: C²SR conversion and input fingerprinting
/// (both repeated on every slice today), an unsliced `try_run`, the
/// benchmark's own `try_run_slice` loop over the same operands, and the
/// executor on both copies at one thread and at `threads_for(2)`.
fn slice_and_executor_probe(acc: &Accelerator, seed: u64, t: &mut Tracer, out: &mut Traced) {
    let Some(sq) = t.span("sparse", "generate", 0, |_| sliced_inputs(seed, 0)).pop() else {
        return;
    };
    let a = &*sq.a;
    let job = u64::MAX;
    let channels = acc.config().mem.num_channels;
    for _ in 0..REPEATS {
        t.span("sparse", "c2sr_from_csr", job, |_| black_box(C2sr::from_csr(a, channels)));
        t.span("sparse", "fingerprint_inputs", job, |_| black_box(fingerprint_inputs(a, a)));
    }
    let m = &mut out.metrics;
    m.insert("sparse.c2sr_us".into(), median_span_us(t.spans(), "sparse", "c2sr_from_csr"));
    m.insert(
        "sparse.fingerprint_us".into(),
        median_span_us(t.spans(), "sparse", "fingerprint_inputs"),
    );

    out.attempted += 2;
    let t0 = Instant::now();
    let unsliced = t.span("core", "try_run", job, |_| acc.try_run(a, a));
    let run_s = t0.elapsed().as_secs_f64();
    let want = match unsliced {
        Ok(o) => fingerprint_output(&o.c),
        Err(e) => {
            out.failures.push(format!("slice probe {}: try_run failed: {e}", sq.id));
            return;
        }
    };

    let (mut loop_s, mut slices, mut bytes) = (0.0, 0u64, 0u64);
    let mut from: Option<Box<Checkpoint>> = None;
    let mut until = SLICE_CYCLES;
    loop {
        let t0 = Instant::now();
        let res = t.span("core", "try_run_slice", job, |_| {
            acc.try_run_slice(a, a, None, from.as_deref(), until)
        });
        loop_s += t0.elapsed().as_secs_f64();
        match res {
            Ok(SliceRun::Paused(cp)) => {
                slices += 1;
                bytes += t.span("core", "checkpoint_to_bytes", job, |_| cp.to_bytes().len()) as u64;
                from = Some(cp);
                until += SLICE_CYCLES;
            }
            Ok(SliceRun::Completed(o)) => {
                if fingerprint_output(&o.c) != want {
                    out.failures.push(format!("slice probe {}: sliced output differs", sq.id));
                }
                break;
            }
            Err(e) => {
                out.failures.push(format!("slice probe {}: try_run_slice failed: {e}", sq.id));
                return;
            }
        }
    }
    let m = &mut out.metrics;
    m.insert("core.slice_overhead_ratio".into(), loop_s / run_s);
    m.insert("core.slices".into(), slices as f64);
    m.insert("core.checkpoint_bytes".into(), bytes as f64 / slices.max(1) as f64);

    let pair = [sq.clone()];
    let threads = threads_for(COPIES);
    let one = run_batch(1, &pair, 0, t);
    let many = run_batch(threads, &pair, 1, t);
    out.attempted += 2 * COPIES as u64;
    for b in [&one, &many] {
        out.failures.extend(b.failures.iter().cloned());
        if b.fingerprints[0].is_some_and(|fp| fp != want) {
            out.failures.push(format!("executor probe {}: output differs from try_run", sq.id));
        }
    }
    let m = &mut out.metrics;
    m.insert("parallel.overhead_ratio".into(), one.wall_s / (COPIES as f64 * loop_s));
    let cores = threads.min(available_parallelism()) as f64;
    m.insert("parallel.scaling_efficiency".into(), one.wall_s / many.wall_s / cores);
    let c = |f: fn(&matraptor_service::ParCounters) -> u64| {
        (f(&one.counters) + f(&many.counters)) as f64
    };
    m.insert("parallel.redispatches".into(), c(|x| x.redispatches));
    m.insert("parallel.hangs_detected".into(), c(|x| x.hangs_detected));
    m.insert("parallel.worker_restarts".into(), c(|x| x.worker_restarts));
    m.insert("parallel.ring_full_backoffs".into(), c(|x| x.ring_full_backoffs));
}

/// The `wire` operands driven straight through the core, the service,
/// and the frame codec, without sockets or threads. Each job goes through
/// all three in turn, so host noise hits the three alike.
fn small_job_probe(
    acc: &Accelerator,
    seed: u64,
    t: &mut Tracer,
    out: &mut Traced,
) -> Result<(), String> {
    let mut svc = Service::new(service_config(1)).map_err(|e| e.to_string())?;
    let budget = ReadBudget { idle_reads: 16, frame_reads: 16 };
    let mut frame_bytes = 0usize;
    out.attempted += 3 * SMALL_JOBS;
    for k in 0..SMALL_JOBS {
        let (a, b) = wire_job(seed, k);
        if let Err(e) = t.span("core", "try_run_small", k, |_| acc.try_run(&a, &b)) {
            out.failures.push(format!("small probe job {k}: try_run failed: {e}"));
        }

        let spec = JobSpec {
            tenant: TenantId(0),
            a: Rc::new(a.clone()),
            b: Rc::new(b.clone()),
            plan: None,
        };
        if let Err(e) = t.span("service", "submit", k, |_| svc.submit(spec)) {
            out.failures.push(format!("service probe job {k}: refused: {e}"));
        } else {
            let d = t.span("service", "step", k, |_| svc.step().map(|r| r.disposition));
            if d != Some(Disposition::Completed) {
                out.failures.push(format!("service probe job {k}: resolved {d:?}"));
            }
        }

        let req = Request::Submit { tenant: 0, a: a.clone(), b: b.clone() };
        let frame = t
            .span("wire", "encode", k, |_| {
                encode_request(&req).map(|(op, p)| encode_frame(op, k, &p))
            })
            .map_err(|e| format!("encode: {e}"))?;
        frame_bytes += frame.len();
        let decoded = t.span("wire", "decode", k, |_| {
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_LEN, budget)
                .map_err(|(_, e)| e)
                .and_then(|raw| decode_request(&raw))
        });
        match decoded {
            Ok(Request::Submit { a: da, b: db, .. }) if da == a && db == b => {}
            other => out.failures.push(format!("codec probe job {k}: round trip gave {other:?}")),
        }
    }
    let counters = *svc.counters();

    let s = t.spans();
    let m = &mut out.metrics;
    let run_us = median_span_us(s, "core", "try_run_small");
    let step_us = median_span_us(s, "service", "step");
    m.insert("core.run_us_small".into(), run_us);
    m.insert("service.submit_us".into(), median_span_us(s, "service", "submit"));
    m.insert("service.step_us".into(), step_us);
    m.insert("service.step_overhead_us".into(), step_us - run_us);
    m.insert("service.completed_accel".into(), counters.completed_accel as f64);
    m.insert("service.cpu_fallback".into(), counters.completed_cpu as f64);
    m.insert("service.deadline_exceeded".into(), counters.deadline_exceeded as f64);
    let rejected =
        counters.rejected_queue_full + counters.rejected_quarantined + counters.rejected_invalid;
    m.insert("service.rejected".into(), rejected as f64);
    m.insert("wire.encode_us".into(), median_span_us(s, "wire", "encode"));
    m.insert("wire.decode_us".into(), median_span_us(s, "wire", "decode"));
    m.insert("wire.frame_bytes".into(), frame_bytes as f64 / SMALL_JOBS as f64);
    Ok(())
}

/// A short closed loop over loopback: per-call client cost, polls per
/// resolved job, and the server's error counters.
fn wire_probe(seed: u64, t: &mut Tracer, out: &mut Traced) -> Result<(), String> {
    let mut rig = t.span("wire", "start", 0, |_| Rig::start(available_parallelism(), seed))?;
    let first_span = t.spans().len();
    let run = rig.closed_loop(seed, Stop::Jobs(WIRE_UNIT_JOBS), t);
    t.span("wire", "stop", 0, |_| rig.stop())?;
    let s = &t.spans()[first_span..];
    let polls: u64 = run.logs.iter().map(|l| l.polls).sum();
    let resolved: usize = run.logs.iter().map(|l| l.resolved.len()).sum();
    let m = &mut out.metrics;
    m.insert("wire.submit_us".into(), median_span_us(s, "wire", "submit"));
    m.insert("wire.poll_us".into(), median_span_us(s, "wire", "poll"));
    m.insert("wire.polls_per_job".into(), polls as f64 / resolved.max(1) as f64);
    m.insert("wire.errors".into(), run.wire_errors as f64);
    if run.wire_errors != 0 {
        out.failures.push(format!("wire probe: {} server-side errors", run.wire_errors));
    }
    for log in run.logs {
        out.attempted += log.attempted;
        out.failures.extend(log.failures);
    }
    Ok(())
}
