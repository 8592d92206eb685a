//! Workspace-wide static-analysis pass for the MatRaptor reproduction.
//!
//! The suite runs in two layers. [`workspace`] loads every source file and
//! manifest into a line-oriented text model (with `#[cfg(test)]` tracking
//! and `conformance:allow` markers); [`lexer`] and [`model`] then build a
//! *source model* on top — a comment/string-accurate token stream per file,
//! item-parsed into structs with field lists, impl methods with bodies as
//! token streams, and item-level macro invocations. Rules pick whichever
//! layer fits.
//!
//! Seven named rules guard the invariants the simulator's credibility
//! rests on (see DESIGN.md "Invariants & static analysis"):
//!
//! * **determinism** — simulator-state crates (`core`, `sim`, `mem`,
//!   `service`) must not use `HashMap`/`HashSet`, wall-clock time,
//!   OS-seeded randomness, or environment variables; same seed, same
//!   cycle count, always.
//! * **panic-safety** — `core`, `mem`, `service`, and the `sparse`
//!   SpGEMM/C²SR hot paths must propagate errors (`Result<_, SparseError>`)
//!   instead of calling `unwrap`/`expect`/`panic!` outside test code.
//! * **layering** — crate dependencies must follow the DAG
//!   `sparse → sim → mem → core → {service, baselines, energy} → bench`;
//!   checked in both `Cargo.toml` `[dependencies]` tables and
//!   `matraptor_*` paths in source. Dev-dependencies are exempt.
//! * **doc-drift** — every `fig*`/`table*`/`ablation*`/`trace*` binary in
//!   `crates/bench/src/bin/` must have a matching entry in `EXPERIMENTS.md`.
//! * **checkpoint-coverage** — every field of a struct walked by
//!   `snapshot`/`restore`, serialized by `plain_struct!`, or folded by a
//!   `fingerprint*` function must actually ride that walk; transient
//!   fields carry an allow comment naming why.
//! * **attribution-totality** — every `tick()` of a stage holding a
//!   `StageBreakdown`/`CycleBreakdown` must charge exactly one bucket on
//!   every path (Fig. 9's fractions only sum to 1 if no cycle goes
//!   unattributed or double-counted).
//! * **cast-safety** — no narrowing `as` casts or unchecked `+`/`-` on
//!   cycle/byte counters in sim-state crates; use `saturating_*` /
//!   `checked_*` / `try_from`.
//!
//! Individual findings are silenced with a justification comment on the
//! flagged line or the line above:
//!
//! ```text
//! // conformance:allow(panic-safety): documented panic at the API boundary
//! try_gustavson(a, b).unwrap_or_else(|e| panic!("gustavson: {e}"))
//! ```
//!
//! Two entry points: `cargo run -p matraptor-conformance` (CLI, `--json`
//! for machine-readable output) and the `workspace_gate` integration test,
//! which makes `cargo test` fail on any violation.

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::Path;

pub use model::SourceModel;
pub use report::Report;
pub use rules::{registry, Rule, Violation};
pub use workspace::Workspace;

/// Everything a rule can see: the line-oriented workspace text model plus
/// the lexed/item-parsed source model built from it.
pub struct Analysis {
    pub ws: Workspace,
    pub model: SourceModel,
}

impl Analysis {
    /// Loads the workspace at `root` and builds the source model.
    pub fn load(root: &Path) -> io::Result<Analysis> {
        let ws = Workspace::load(root)?;
        let model = SourceModel::build(&ws);
        Ok(Analysis { ws, model })
    }

    /// Whether `line` (1-based) of the source file `rel` is inside a
    /// `#[cfg(test)]` region. Unknown files count as non-test.
    pub fn is_test_line(&self, rel: &str, line: usize) -> bool {
        self.ws
            .sources
            .iter()
            .find(|s| s.rel == rel)
            .and_then(|s| s.lines.get(line.wrapping_sub(1)))
            .is_some_and(|l| l.is_test)
    }
}

/// Loads the workspace at `root` and runs every registered rule,
/// applying `conformance:allow` suppressions.
pub fn run(root: &Path) -> io::Result<Report> {
    let a = Analysis::load(root)?;
    Ok(run_on(&a, &registry()))
}

/// Runs `rules` over an already-loaded analysis.
pub fn run_on(a: &Analysis, rules: &[Box<dyn Rule>]) -> Report {
    let mut violations = Vec::new();
    let mut suppressed = 0;
    for rule in rules {
        for v in rule.check(a) {
            if is_suppressed(&a.ws, &v) {
                suppressed += 1;
            } else {
                violations.push(v);
            }
        }
    }
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        violations,
        suppressed,
        files_scanned: a.ws.sources.len(),
        manifests_scanned: a.ws.manifests.len(),
        rules: rules.iter().map(|r| (r.name(), r.description())).collect(),
    }
}

/// A violation is suppressed when the flagged line (or the one above it)
/// carries `conformance:allow(<rule>)`. Works for manifests too — there the
/// marker rides in a `#` TOML comment.
fn is_suppressed(ws: &Workspace, v: &Violation) -> bool {
    if v.line == 0 {
        return false;
    }
    if let Some(src) = ws.sources.iter().find(|f| f.rel == v.file) {
        return src.is_allowed(v.rule, v.line);
    }
    if let Some(m) = ws.manifests.iter().find(|m| m.rel == v.file) {
        // Re-read the manifest text lazily; manifests are tiny.
        let text = std::fs::read_to_string(ws.root.join(&m.rel)).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        let marker = format!("conformance:allow({})", v.rule);
        let idx = v.line.saturating_sub(1);
        return [idx.checked_sub(1), Some(idx)]
            .into_iter()
            .flatten()
            .any(|i| lines.get(i).is_some_and(|l| l.contains(&marker)));
    }
    false
}
