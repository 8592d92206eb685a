//! The MatRaptor reproduction's benchmark: one command per workload that
//! prints every metric by name with its unit and checks every output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite|sliced|wire> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that measures the per-layer metrics and writes its
//! spans under `perfbench/out/`. The last stdout line is the result as one
//! JSON object; the exit code is non-zero when any output check failed.
//! See `perfbench/README.md`.

mod check;
mod host;
mod inputs;
mod report;
mod run;
mod sliced;
mod stats;
mod suite;
mod trace;
mod traced;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_str, per_layer, result_line, Metrics, END_TO_END, WORKLOADS};
use run::Outcome;
use stats::Latency;

const USAGE: &str =
    "usage: perfbench --workload <suite|sliced|wire> --seed <n> --seconds <n> [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (expected one of {WORKLOADS:?})"));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Worker threads or client connections the workload uses on this host.
fn workload_threads(workload: &str) -> usize {
    match workload {
        "suite" => 1,
        "sliced" => sliced::threads_for(inputs::SLICED_IDS.len() * sliced::COPIES),
        _ => host::available_parallelism(),
    }
}

/// Run-context fields: name and JSON value.
type Context = Vec<(&'static str, String)>;

/// The end-to-end metrics of an untraced run, plus the context fields
/// that qualify them.
fn end_to_end(o: &Outcome) -> Result<(Metrics, Context), String> {
    let lat = Latency::of(&o.latencies_s).ok_or("no job completed")?;
    let mut m = Metrics::new();
    m.insert("setup_s".into(), stats::median(&o.setup_s).ok_or("no set-up timed")?);
    m.insert("jobs_per_s".into(), stats::median(&o.window_rates).ok_or("no window timed")?);
    m.insert("job_latency_p50_ms".into(), lat.p50 * 1e3);
    m.insert("sim_cycles".into(), o.sim_cycles as f64);
    m.insert("completed_frac".into(), o.completed as f64 / o.attempted.max(1) as f64);
    m.insert("peak_rss_mb".into(), host::peak_rss_mb().ok_or("VmHWM unavailable")?);
    let ctx = vec![
        ("inputs", json_str(&o.inputs)),
        ("repeat_frac", o.repeat_frac().to_string()),
        ("rounds", o.rounds.to_string()),
        ("timed_s", o.timed_s.to_string()),
        ("setup_repeats", o.setup_s.len().to_string()),
        // The tail is reported here, not as a bounded metric: on a shared
        // host its run-to-run spread is wider than any useful bound.
        ("job_latency_tail_ms", (lat.tail * 1e3).to_string()),
        ("latency_tail_percentile", lat.tail_pct.to_string()),
        ("latency_samples", lat.samples.to_string()),
    ];
    Ok((m, ctx))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when an output
/// check failed.
fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload.as_str();
    let mut ctx: Context = vec![
        ("workload", json_str(w)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("available_parallelism", host::available_parallelism().to_string()),
        ("threads", workload_threads(w).to_string()),
        ("os", json_str(std::env::consts::OS)),
        ("arch", json_str(std::env::consts::ARCH)),
    ];
    let (registry, metrics, attempted, failures, failed) = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{w}-seed{}.json", args.seed));
        let t = traced::run(w, args.seed, &spans)?;
        ctx.push(("spans_file", json_str(&spans.display().to_string())));
        let failed = (t.failures.len() as u64).min(t.attempted);
        (per_layer(), t.metrics, t.attempted, t.failures, failed)
    } else {
        let seconds = args.seconds as f64;
        let o = match w {
            "suite" => suite::measure(args.seed, seconds)?,
            "sliced" => sliced::measure(args.seed, seconds)?,
            _ => wire::measure(args.seed, seconds)?,
        };
        let (m, extra) = end_to_end(&o)?;
        ctx.extend(extra);
        let registry = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        // Jobs that did not complete correctly, and at least one if any
        // check outside a job (server errors, merge accounting) failed.
        let failed = (o.attempted - o.completed).max(u64::from(!o.failures.is_empty()));
        (registry, m, o.attempted, o.failures, failed)
    };

    let ctx_body: Vec<String> = ctx.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"context\": {{{}}}}}", ctx_body.join(", "));
    for (name, unit) in &registry {
        if let Some(v) = metrics.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &registry, &metrics)?);
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            parse_args(&argv("--workload wire --seed 7 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(a, Args { workload: "wire".into(), seed: 7, seconds: 20, trace: true });
        let a = parse_args(&argv("--seed 1 --seconds 5 --workload suite")).expect("valid");
        assert!(!a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 5",
            "--workload suite --seconds 5",
            "--workload suite --seed x --seconds 5",
            "--workload suite --seed 1 --seconds 0",
            "--workload suite --seed 1 --seconds 5 --trace 2",
            "--workload suite --seed 1 --seconds 5 --extra",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
