//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same workloads and
//! metrics; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use matraptor_sparse::gen::suite::table2;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["suite", "sliced", "wire"];

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-matrix `core.us_per_cycle.<id>`
/// family: every traced run reports all of them.
const PER_LAYER_FIXED: [(&str, &str); 43] = [
    ("core.sim_cycles_per_s", "cycles/s"),
    ("core.run_s", "s"),
    ("core.run_us_small", "us"),
    ("core.slice_overhead_ratio", "ratio"),
    ("core.slices", "count"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.busy_frac", "frac"),
    ("core.merge_stall_frac", "frac"),
    ("core.mem_stall_frac", "frac"),
    ("core.overflow_rows", "count"),
    ("mem.traffic_read_bytes", "bytes"),
    ("mem.traffic_written_bytes", "bytes"),
    ("mem.read_efficiency", "frac"),
    ("sparse.c2sr_us", "us"),
    ("sparse.fingerprint_us", "us"),
    ("parallel.overhead_ratio", "ratio"),
    ("parallel.scaling_efficiency", "frac"),
    ("parallel.redispatches", "count"),
    ("parallel.hangs_detected", "count"),
    ("parallel.worker_restarts", "count"),
    ("parallel.ring_full_backoffs", "count"),
    ("service.submit_us", "us"),
    ("service.step_us", "us"),
    ("service.step_overhead_us", "us"),
    ("service.completed_accel", "count"),
    ("service.cpu_fallback", "count"),
    ("service.deadline_exceeded", "count"),
    ("service.rejected", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("wire.submit_us", "us"),
    ("wire.poll_us", "us"),
    ("wire.polls_per_job", "ratio"),
    ("wire.errors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage", "frac"),
    ("trace.spans", "count"),
    ("self_s.sparse", "s"),
    ("self_s.core", "s"),
    ("self_s.service", "s"),
    ("self_s.parallel", "s"),
    ("self_s.wire", "s"),
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(table2().iter().map(|s| (format!("core.us_per_cycle.{}", s.id), "us/cycle")));
    out
}

/// Measured values by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// The final stdout line: the verdict, the operation counts, and every
/// metric of `registry` with its unit, in registry order.
///
/// # Errors
///
/// Names a registry metric that was not measured or is not finite —
/// a benchmark bug, reported instead of a result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: &[(String, &'static str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in registry.iter().enumerate() {
        let value = *metrics.get(name).ok_or_else(|| format!("metric `{name}` not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{value}` prints every digit of the shortest round-trip form.
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every string value of `"key": "…"` in `text`, in order. Enough for
    /// `BENCHMARK.json`, whose names and units hold no escapes.
    fn string_values(text: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\":");
        text.match_indices(&pattern)
            .filter_map(|(i, _)| {
                let rest = text[i + pattern.len()..].trim_start().strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        // Names in file order: the workloads, then the end-to-end metrics,
        // then the per-layer ones; only the metrics carry units.
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        let mut units = Vec::new();
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(per_layer()) {
            names.push(name);
            units.push(unit.to_string());
        }
        assert_eq!(string_values(&text, "name"), names);
        assert_eq!(string_values(&text, "unit"), units);
    }

    #[test]
    fn string_values_reads_keys_in_order() {
        let text = r#"{"a": [{"name": "x", "unit": "s"}, {"name":"y"}], "name": 3}"#;
        assert_eq!(string_values(text, "name"), ["x", "y"]);
        assert_eq!(string_values(text, "unit"), ["s"]);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let registry = vec![("a_s".to_string(), "s"), ("b".to_string(), "count")];
        let mut m = Metrics::new();
        m.insert("a_s".into(), 0.8127);
        m.insert("b".into(), 3.0);
        m.insert("unlisted".into(), 1.0);
        let line = result_line(true, 10, 0, &registry, &m).expect("all measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );

        m.remove("b");
        assert!(result_line(true, 10, 0, &registry, &m).is_err());
        m.insert("b".into(), f64::NAN);
        assert!(result_line(true, 10, 0, &registry, &m).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_str("x\t"), "\"x\\u0009\"");
    }
}
