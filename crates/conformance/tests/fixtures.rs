//! Fixture tests: each synthetic workspace under `tests/fixtures/` triggers
//! exactly one rule, and each also demonstrates the `conformance:allow`
//! suppression for that rule. The real workspace walker skips these trees.

use std::path::PathBuf;

use matraptor_conformance::{run, Report};

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    run(&root).unwrap_or_else(|e| panic!("failed to scan fixture `{name}`: {e}"))
}

#[test]
fn determinism_rule_fires_and_suppresses() {
    let report = fixture("determinism");
    assert_eq!(
        report.violations.len(),
        2,
        "expected exactly the HashMap import and the environment read:\n{}",
        report.human()
    );
    let v = &report.violations[0];
    assert_eq!(v.rule, "determinism");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 3);
    assert!(v.message.contains("HashMap"));
    let v = &report.violations[1];
    assert_eq!(v.rule, "determinism");
    assert_eq!(v.line, 13);
    assert!(v.message.contains("env::var_os"));
    // The HashSet on line 6 carries an allow comment; the HashMap inside
    // `#[cfg(test)]` is exempt without one.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn panic_safety_rule_fires_and_suppresses() {
    let report = fixture("panic_safety");
    assert_eq!(report.violations.len(), 1, "{}", report.human());
    let v = &report.violations[0];
    assert_eq!(v.rule, "panic-safety");
    assert_eq!(v.file, "crates/mem/src/lib.rs");
    assert_eq!(v.line, 4);
    assert!(v.message.contains(".unwrap()"));
    // The `.expect(` on line 9 is justified with an allow comment; the
    // unwrap inside the test module needs none.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn unsafe_without_safety_comment_fires_and_suppresses() {
    let report = fixture("unsafe_safety");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the bare block and the test-module block:\n{}",
        report.human()
    );
    let bare = &report.violations[0];
    assert_eq!(bare.rule, "panic-safety");
    assert_eq!(bare.file, "crates/core/src/lib.rs");
    assert_eq!(bare.line, 6);
    assert!(bare.message.contains("SAFETY"));
    // Memory safety does not care about `#[cfg(test)]`: the unjustified
    // block inside the test module is audited like any other.
    let in_test = &report.violations[1];
    assert_eq!(in_test.line, 34);
    assert!(in_test.message.contains("SAFETY"));
    // The single-line rationale, the multi-line rationale above the
    // `unsafe impl`, and the doc-comment prose all stay silent; the
    // allow-commented block is suppressed.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn layering_rule_fires_on_manifest_and_source_back_edges() {
    let report = fixture("layering");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the sim->core manifest edge and import:\n{}",
        report.human()
    );
    let manifest = report
        .violations
        .iter()
        .find(|v| v.file == "crates/sim/Cargo.toml")
        .expect("manifest back-edge flagged");
    assert_eq!(manifest.rule, "layering");
    assert_eq!(manifest.line, 6);
    assert!(manifest.message.contains("matraptor-core"));
    let source = report
        .violations
        .iter()
        .find(|v| v.file == "crates/sim/src/lib.rs")
        .expect("source back-edge flagged");
    assert_eq!(source.line, 4);
    assert!(source.message.contains("matraptor_core"));
    // mem's allow-commented core edge is suppressed; its sim dep, its
    // dev-dep on sparse, and the sparse use in tests/ are all legal.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn doc_drift_rule_fires_and_suppresses() {
    let report = fixture("doc_drift");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the undocumented fig and trace binaries:\n{}",
        report.human()
    );
    let fig = report
        .violations
        .iter()
        .find(|v| v.file == "crates/bench/src/bin/fig99_missing.rs")
        .expect("undocumented fig binary flagged");
    assert_eq!(fig.rule, "doc-drift");
    assert_eq!(fig.line, 1);
    assert!(fig.message.contains("fig99_missing"));
    assert!(fig.message.contains("EXPERIMENTS.md"));
    // Observability binaries are tracked too: trace* joined the prefix
    // list with the cycle-level trace layer.
    let trace = report
        .violations
        .iter()
        .find(|v| v.file == "crates/bench/src/bin/trace_undocumented.rs")
        .expect("undocumented trace binary flagged");
    assert!(trace.message.contains("trace_undocumented"));
    // fig01_present is documented, sweep_extra is untracked, and
    // ablation_allowed carries a line-1 allow comment.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn checkpoint_coverage_rule_fires_and_suppresses() {
    let report = fixture("checkpoint_coverage");
    assert_eq!(
        report.violations.len(),
        3,
        "expected the plain_struct! gap, the snapshot/restore gap, and the \
         fleet-worker heartbeat gap:\n{}",
        report.human()
    );
    // `GadgetState.drained` is declared but absent from the plain_struct!
    // invocation that serializes the type.
    let macro_gap = &report.violations[0];
    assert_eq!(macro_gap.rule, "checkpoint-coverage");
    assert_eq!(macro_gap.file, "crates/core/src/lib.rs");
    assert_eq!(macro_gap.line, 10);
    assert!(macro_gap.message.contains("`drained`"));
    assert!(macro_gap.message.contains("plain_struct!"));
    // `Gadget.drained` is mentioned by neither `snapshot` nor `restore`.
    let walk_gap = &report.violations[1];
    assert_eq!(walk_gap.line, 19);
    assert!(walk_gap.message.contains("missing from the checkpoint walk (snapshot, restore)"));
    // The fleet-worker shaped fixture: `FleetWorker.beats` (the heartbeat
    // counter the real service::Worker carries across restarts) is
    // mentioned by neither `snapshot` nor `restore`.
    let beat_gap = &report.violations[2];
    assert_eq!(beat_gap.file, "crates/service/src/lib.rs");
    assert!(beat_gap.message.contains("`beats`"));
    assert!(beat_gap.message.contains("missing from the checkpoint walk"));
    // `Gadget.capacity` and `FleetWorker.watchdog` are transient and
    // carry allow comments.
    assert_eq!(report.suppressed, 2);
}

#[test]
fn attribution_totality_rule_fires_and_suppresses() {
    let report = fixture("attribution");
    assert_eq!(report.violations.len(), 1, "{}", report.human());
    let v = &report.violations[0];
    assert_eq!(v.rule, "attribution-totality");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 18);
    assert!(v.message.contains("`Stage::tick`"));
    assert!(v.message.contains("does not charge immediately before returning"));
    // `Helper::tick` defers charging by design and carries an allow comment.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn cast_safety_rule_fires_and_suppresses() {
    let report = fixture("cast_safety");
    assert_eq!(report.violations.len(), 4, "{}", report.human());
    let compound = &report.violations[0];
    assert_eq!(compound.rule, "cast-safety");
    assert_eq!(compound.line, 10);
    assert!(compound.message.contains("unchecked `+=` on counter-like `stall_cycles`"));
    let cast = &report.violations[1];
    assert_eq!(cast.line, 14);
    assert!(cast.message.contains("narrowing cast `stall_cycles as u32`"));
    // Wire-protocol identifiers (len/frame/offset/payload/port segments)
    // are in scope since the TCP front end landed.
    let wire_sum = &report.violations[2];
    assert_eq!(wire_sum.line, 26);
    assert!(wire_sum.message.contains("unchecked `+` after wire-protocol `payload_len`"));
    let wire_cast = &report.violations[3];
    assert_eq!(wire_cast.line, 30);
    assert!(wire_cast.message.contains("narrowing cast `frame_offset as u16`"));
    // `report + 1` on line 35 matches no whole segment and must NOT fire;
    // the bounded `bytes_hint as u16` carries an allow comment.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn tokens_inside_strings_and_doc_comments_do_not_fire() {
    // Regression for the substring-era false positives: `HashMap`,
    // `.unwrap()`, `Instant::now()` etc. appear only in prose (string
    // literals, doc comments, line comments) and must report nothing —
    // with no allow comments needed.
    let report = fixture("lexer_prose");
    assert!(report.is_clean(), "prose tokens misread as code:\n{}", report.human());
    assert_eq!(report.suppressed, 0);
}

#[test]
fn violations_sort_stably_by_file_line_rule() {
    for name in ["checkpoint_coverage", "cast_safety", "layering"] {
        let report = fixture(name);
        let keys: Vec<_> =
            report.violations.iter().map(|v| (v.file.clone(), v.line, v.rule)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "unsorted report for fixture `{name}`");
    }
}

#[test]
fn json_report_round_trips_rule_names() {
    let json = fixture("determinism").json();
    assert!(json.contains("\"rule\": \"determinism\""));
    assert!(json.contains("\"file\": \"crates/core/src/lib.rs\""));
    assert!(json.contains("\"line\": 3"));
    assert!(json.contains("\"ok\": false"));
}
