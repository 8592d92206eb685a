//! The rule registry: each rule walks the [`Analysis`] (workspace text
//! model + lexed/parsed source model) and emits [`Violation`]s.
//! Suppression via `conformance:allow(<rule>)` comments is applied
//! centrally by the engine ([`crate::run`]), not by the rules.

mod attribution;
mod cast_safety;
mod checkpoint_coverage;

pub use attribution::AttributionTotality;
pub use cast_safety::CastSafety;
pub use checkpoint_coverage::CheckpointCoverage;

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::workspace::{Manifest, SourceFile};
use crate::Analysis;

/// First occurrence of `prefix` preceded by a word boundary (the text after
/// it may be anything — this matches `matraptor_core` given `matraptor_`).
fn find_prefix(code: &str, prefix: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(prefix) {
        let abs = start + pos;
        if abs == 0 || !(bytes[abs - 1].is_ascii_alphanumeric() || bytes[abs - 1] == b'_') {
            return Some(abs);
        }
        start = abs + 1;
    }
    None
}

/// One rule violation, attributed to a file and (when line-level) a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name, e.g. `"determinism"`.
    pub rule: &'static str,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line number; 0 for file-level findings.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

/// A named, individually-allowlistable conformance rule.
pub trait Rule {
    /// Stable rule name used in reports and `conformance:allow(...)`.
    fn name(&self) -> &'static str;
    /// One-line description shown in reports.
    fn description(&self) -> &'static str;
    /// Runs the rule over the analyzed workspace. Emits raw findings;
    /// suppression is the engine's job.
    fn check(&self, a: &Analysis) -> Vec<Violation>;
}

/// All rules, in report order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Determinism),
        Box::new(PanicSafety),
        Box::new(Layering),
        Box::new(DocDrift),
        Box::new(CheckpointCoverage),
        Box::new(AttributionTotality),
        Box::new(CastSafety),
    ]
}

/// Crates holding cycle-level simulator state — or, for `service`,
/// simulated-time scheduling state: any iteration-order or wall-clock
/// dependence here silently breaks run-to-run reproducibility.
pub(crate) const SIM_STATE_CRATES: [&str; 4] = ["core", "sim", "mem", "service"];

/// Source-model files of the sim-state crates (library code only — tests
/// and benches are exempt like everywhere else in the suite).
pub(crate) fn sim_state_models(a: &Analysis) -> impl Iterator<Item = &FileModel> {
    a.model.files.iter().filter(|f| {
        f.crate_name.as_deref().is_some_and(|c| SIM_STATE_CRATES.contains(&c))
            && f.rel.contains("/src/")
    })
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Forbids non-deterministic constructs in simulator-state crates.
///
/// Runs on the lexed token stream, so `HashMap` in a doc comment or an
/// error-message string can never fire.
pub struct Determinism;

const DETERMINISM_TOKENS: [(&str, &str); 8] = [
    ("HashMap", "iteration order varies between runs; use BTreeMap"),
    ("HashSet", "iteration order varies between runs; use BTreeSet"),
    ("Instant::now", "wall-clock reads make cycle counts irreproducible"),
    ("SystemTime", "wall-clock reads make cycle counts irreproducible"),
    ("thread_rng", "OS-seeded randomness; use a seeded matraptor_sparse::rng::ChaCha8Rng"),
    ("env::var", ENV_WHY),
    ("env::var_os", ENV_WHY),
    ("env::vars", ENV_WHY),
];

const ENV_WHY: &str = "the process environment differs between runs; pass settings in the config";

fn determinism_why(token: &str) -> &'static str {
    DETERMINISM_TOKENS
        .iter()
        .find(|(t, _)| *t == token)
        .map(|(_, why)| *why)
        .unwrap_or("non-deterministic construct")
}

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }
    fn description(&self) -> &'static str {
        "simulator-state crates (core, sim, mem, service) must not use \
         HashMap/HashSet, wall-clock time, OS-seeded randomness, or \
         environment variables"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let mut out = Vec::new();
        for fm in sim_state_models(a) {
            let toks = &fm.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || a.is_test_line(&fm.rel, t.line) {
                    continue;
                }
                let token = match t.text.as_str() {
                    "HashMap" | "HashSet" | "SystemTime" | "thread_rng" => t.text.as_str(),
                    "Instant"
                        if toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
                            && toks.get(i + 2).is_some_and(|n| n.is_ident("now")) =>
                    {
                        "Instant::now"
                    }
                    "env" if toks.get(i + 1).is_some_and(|p| p.is_punct("::")) => {
                        match toks.get(i + 2).map(|n| n.text.as_str()) {
                            Some("var") => "env::var",
                            Some("var_os") => "env::var_os",
                            Some("vars") => "env::vars",
                            _ => continue,
                        }
                    }
                    _ => continue,
                };
                out.push(Violation {
                    rule: "determinism",
                    file: fm.rel.clone(),
                    line: t.line,
                    message: format!("`{token}` in simulator state: {}", determinism_why(token)),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// panic-safety
// ---------------------------------------------------------------------------

/// Forbids `unwrap()`, `expect(...)`, and `panic!` in non-test code of the
/// hot paths: all of `core`, `mem`, and `service`, plus the `sparse` SpGEMM
/// kernels and the C²SR converter. Token-stream based: `panic!` inside a
/// string literal or doc comment does not count.
///
/// Also audits `unsafe` **workspace-wide** (test code included — memory
/// safety does not care about `#[cfg(test)]`): every `unsafe` token must
/// be justified by a `// SAFETY:` comment, either on the same line or in
/// the contiguous comment block immediately above it.
pub struct PanicSafety;

fn panic_safety_applies(crate_name: Option<&str>, rel: &str) -> bool {
    match crate_name {
        Some("core") | Some("mem") | Some("service") => rel.contains("/src/"),
        Some("sparse") => rel.contains("/src/spgemm/") || rel.ends_with("/src/c2sr.rs"),
        _ => false,
    }
}

/// Whether the `unsafe` on 1-based `line` is covered by a `SAFETY:`
/// comment: on the line itself, or anywhere in the unbroken run of `//`
/// comment lines (or attributes) directly above it — multi-line SAFETY
/// rationales are the norm.
fn has_safety_comment(src: &SourceFile, line: usize) -> bool {
    let idx = line.saturating_sub(1);
    if src.lines.get(idx).is_some_and(|l| l.raw.contains("SAFETY:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let raw = src.lines[i].raw.trim_start();
        if raw.starts_with("//") || raw.starts_with("#[") {
            if raw.contains("SAFETY:") {
                return true;
            }
        } else {
            return false;
        }
    }
    false
}

impl Rule for PanicSafety {
    fn name(&self) -> &'static str {
        "panic-safety"
    }
    fn description(&self) -> &'static str {
        "core, mem, service, and the sparse SpGEMM/C2SR hot paths must propagate \
         errors instead of calling unwrap/expect/panic! outside test code; every \
         `unsafe` workspace-wide must carry a `// SAFETY:` comment"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let mut out = Vec::new();
        // Workspace-wide: every `unsafe` needs a SAFETY rationale. One
        // violation per line even when a line stacks several tokens.
        for fm in &a.model.files {
            let Some(src) = a.ws.sources.iter().find(|s| s.rel == fm.rel) else {
                continue;
            };
            let mut flagged = 0usize;
            for t in &fm.tokens {
                if t.kind != TokKind::Ident || !t.is_ident("unsafe") || t.line == flagged {
                    continue;
                }
                flagged = t.line;
                if has_safety_comment(src, t.line) {
                    continue;
                }
                out.push(Violation {
                    rule: "panic-safety",
                    file: fm.rel.clone(),
                    line: t.line,
                    message: "`unsafe` without a `// SAFETY:` comment on the preceding \
                              line(s); justify the invariants that make it sound"
                        .to_string(),
                });
            }
        }
        for fm in
            a.model.files.iter().filter(|f| panic_safety_applies(f.crate_name.as_deref(), &f.rel))
        {
            let toks = &fm.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || a.is_test_line(&fm.rel, t.line) {
                    continue;
                }
                let token = if t.is_ident("unwrap")
                    && i >= 1
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
                    && toks.get(i + 2).is_some_and(|p| p.is_punct(")"))
                {
                    ".unwrap()"
                } else if t.is_ident("expect")
                    && i >= 1
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
                {
                    ".expect("
                } else if t.is_ident("panic") && toks.get(i + 1).is_some_and(|p| p.is_punct("!")) {
                    "panic!"
                } else {
                    continue;
                };
                out.push(Violation {
                    rule: "panic-safety",
                    file: fm.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{token}` in non-test hot-path code; return a Result \
                         (or justify with a conformance:allow comment)"
                    ),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

/// The allowed `[dependencies]` edges between workspace crates, by short
/// name. Dev-dependencies are exempt (tests may reach down the stack).
/// Direction: sparse → sim → mem → core → {service, baselines, energy} →
/// bench. `conformance` sits outside the simulator DAG but borrows the
/// shared FNV-1a hash from `sim`.
fn allowed_deps(short: &str) -> Option<&'static [&'static str]> {
    match short {
        "sparse" | "sim" | "energy" => Some(&[]),
        "conformance" => Some(&["sim"]),
        "mem" => Some(&["sim"]),
        "core" => Some(&["sparse", "sim", "mem"]),
        "service" => Some(&["sparse", "sim", "mem", "core"]),
        "baselines" => Some(&["sparse", "energy"]),
        "bench" => Some(&["sparse", "sim", "mem", "core", "service", "baselines", "energy"]),
        _ => None,
    }
}

/// Enforces the crate-layering DAG via both manifests and `use` statements.
pub struct Layering;

impl Rule for Layering {
    fn name(&self) -> &'static str {
        "layering"
    }
    fn description(&self) -> &'static str {
        "crate dependencies must follow sparse -> sim -> mem -> core -> \
         {service, baselines, energy} -> bench; no back-edges"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let mut out = Vec::new();
        for m in &a.ws.manifests {
            out.extend(check_manifest_edges(m));
        }
        for f in &a.ws.sources {
            out.extend(check_source_edges(f));
        }
        out
    }
}

fn short_name(package: &str) -> Option<&str> {
    package.strip_prefix("matraptor-")
}

fn check_manifest_edges(m: &Manifest) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(pkg) = m.package_name.as_deref() else {
        return out;
    };
    // The root facade re-exports everything; only `matraptor-*` crates are
    // constrained.
    let Some(short) = short_name(pkg) else {
        return out;
    };
    let allowed = allowed_deps(short).unwrap_or(&[]);
    for (dep, line) in &m.deps {
        let Some(dep_short) = short_name(dep) else {
            continue;
        };
        if !allowed.contains(&dep_short) {
            out.push(Violation {
                rule: "layering",
                file: m.rel.clone(),
                line: *line,
                message: format!(
                    "`{pkg}` must not depend on `{dep}`: edge violates the layering \
                     DAG (allowed deps of `{short}`: {allowed:?})"
                ),
            });
        }
    }
    out
}

fn check_source_edges(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(short) = f.crate_name.as_deref() else {
        return out; // root facade sources may use anything
    };
    if !f.rel.contains("/src/") {
        return out; // tests/benches run on dev-dependencies, which are exempt
    }
    let Some(allowed) = allowed_deps(short) else {
        return out;
    };
    for (idx, line) in f.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        // A `matraptor_<name>::` path reference is a compile-time edge.
        // Plain `matraptor_*` identifiers (local function names) are not.
        let mut code: &str = &line.code;
        while let Some(pos) = find_prefix(code, "matraptor_") {
            let rest = &code[pos + "matraptor_".len()..];
            let used: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            let is_path = rest[used.len()..].starts_with("::");
            if is_path && !used.is_empty() && used != short && !allowed.contains(&used.as_str()) {
                out.push(Violation {
                    rule: "layering",
                    file: f.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "crate `{short}` references `matraptor_{used}`, which is not \
                         among its allowed dependencies {allowed:?}"
                    ),
                });
            }
            code = &code[pos + "matraptor_".len()..];
        }
    }
    out
}

// ---------------------------------------------------------------------------
// doc-drift
// ---------------------------------------------------------------------------

/// Every `fig*`/`table*`/`ablation*`/`trace*` binary under
/// `crates/bench/src/bin/` must be documented in `EXPERIMENTS.md`.
pub struct DocDrift;

impl Rule for DocDrift {
    fn name(&self) -> &'static str {
        "doc-drift"
    }
    fn description(&self) -> &'static str {
        "every fig*/table*/ablation*/trace* binary in crates/bench/src/bin/ must \
         have a matching entry in EXPERIMENTS.md"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let experiments =
            std::fs::read_to_string(a.ws.root.join("EXPERIMENTS.md")).unwrap_or_default();
        let mut out = Vec::new();
        for f in &a.ws.sources {
            let Some(stem) =
                f.rel.strip_prefix("crates/bench/src/bin/").and_then(|n| n.strip_suffix(".rs"))
            else {
                continue;
            };
            let tracked = ["fig", "table", "ablation", "trace"].iter().any(|p| stem.starts_with(p));
            if tracked && !experiments.contains(stem) {
                out.push(Violation {
                    rule: "doc-drift",
                    file: f.rel.clone(),
                    line: 1,
                    message: format!(
                        "experiment binary `{stem}` has no matching entry in \
                         EXPERIMENTS.md; document what it reproduces"
                    ),
                });
            }
        }
        out
    }
}
