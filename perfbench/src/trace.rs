//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The simulator crates must not read the clock (the conformance
//! determinism rule), so every span here is recorded from outside: the
//! benchmark wraps each call it makes into a layer's public API. A span
//! records its layer, name, job id, parent span, and start/end offsets
//! from a shared origin. Spans stay in memory and are written out once,
//! after the measured work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the wrapped call belongs to (`sparse`, `core`, `service`,
    /// `parallel`, `wire`).
    pub layer: &'static str,
    /// The wrapped call.
    pub name: &'static str,
    /// Job the call served; every span of one job shares it.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Recording thread (0 is the main thread).
    pub thread: u32,
    /// Start, in nanoseconds after the origin.
    pub start_ns: u64,
    /// End, in nanoseconds after the origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per wrapped call, so untraced runs use the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing from `origin`; records only when `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer { origin, enabled, thread: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    /// A tracer for another thread, sharing this one's origin and switch.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer { thread, ..Tracer::new(self.origin, self.enabled) }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; spans `f` opens become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let thread = self.thread;
        self.spans.push(Span { layer, name, job, parent, thread, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Moves another thread's spans into this tracer, keeping their tree.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length covered by the union of `[start, end)` intervals.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (children on other threads may overlap each other,
/// hence the union).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns().saturating_sub(union_len(kids)))
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Share of the window `[start_ns, end_ns)` that top-level spans cover.
pub fn top_level_coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let window = end_ns.saturating_sub(start_ns);
    if window == 0 {
        return 0.0;
    }
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
        .collect();
    union_len(roots) as f64 / window as f64
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
             \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.layer, s.name, s.job, s.thread, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { layer, name: "x", job: 0, parent, thread: 0, start_ns, end_ns }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(vec![(20, 30), (0, 10), (10, 12)]), 22);
        assert_eq!(union_len(vec![(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(vec![(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // root [0,100) with children [10,30) and [20,50) (overlapping,
        // e.g. two client threads) and a grandchild [12,18).
        let spans = vec![
            span("wire", None, 0, 100),
            span("service", Some(0), 10, 30),
            span("service", Some(0), 20, 50),
            span("core", Some(1), 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 30, 6]);
        let by_layer = layer_self_seconds(&spans);
        assert!((by_layer["wire"] - 60e-9).abs() < 1e-15);
        assert!((by_layer["service"] - 44e-9).abs() < 1e-15);
        assert!((by_layer["core"] - 6e-9).abs() < 1e-15);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = vec![span("core", None, 0, 10), span("sparse", Some(0), 5, 25)];
        assert_eq!(self_times_ns(&spans), vec![5, 20]);
    }

    #[test]
    fn coverage_counts_only_top_level_spans_inside_the_window() {
        let spans = vec![
            span("core", None, 0, 40),
            span("sparse", Some(0), 0, 40),
            span("core", None, 60, 120),
        ];
        assert_eq!(top_level_coverage(&spans, 0, 100), 0.8);
        assert_eq!(top_level_coverage(&spans, 0, 0), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_absorbs_other_threads() {
        let mut t = Tracer::new(Instant::now(), true);
        let v = t.span("core", "outer", 7, |t| t.span("sparse", "inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let mut other = t.fork(1);
        other.span("wire", "submit", 9, |t| t.span("wire", "encode", 9, |_| ()));
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), None, Some(2))
        );
        assert_eq!((s[2].thread, s[3].job), (1, 9));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let mut off = Tracer::off();
        assert_eq!(off.span("core", "x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
