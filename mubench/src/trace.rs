//! In-memory spans and the layer wrappers that record them.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! [`TracedMatcher`] wraps the `Match(S)` operator (Algorithm 1) and
//! [`TracedQef`] wraps each QEF, so the solver runs its normal path while
//! every call into those layers leaves a span. Spans stay in memory until
//! the run ends and are then written out as one TSV file.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mube_core::qef::{DeltaClass, EvalContext, EvalInput, Qef, WeightedQefs};
use mube_core::{Constraints, MatchOperator, MatchOutcome, SourceId, Universe};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u64,
    /// The layer or operation, e.g. `cluster`, `qef`, `solve`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Spans of one request (or one solve) share this identifier.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost open span on this thread and its request id; spans
    /// recorded meanwhile on this thread become its children.
    static CURRENT: Cell<(Option<u64>, u64)> = const { Cell::new((None, 0)) };
}

/// A span sink shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` for `request`. Spans recorded
    /// on this thread while `f` runs become its children. Returns `f`'s
    /// result and the span's duration in nanoseconds.
    pub fn in_span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace((Some(id), request)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        self.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: outer.0,
            request,
        });
        (out, end_ns - start_ns)
    }

    /// Records a span around `f` under this thread's open span (a root
    /// span of request 0 when none is open).
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = CURRENT.with(|c| c.get().1);
        self.in_span(name, request, f).0
    }

    /// Records an interval measured elsewhere, e.g. a request timed by the
    /// HTTP client, and returns its span id.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.push(Span {
            id,
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
        id
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as `id name start_ns end_ns parent request` TSV.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span of `(tracer, request)` when tracing, else
/// just runs it.
pub fn maybe_span<T>(
    tracer: Option<(&Tracer, u64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some((t, request)) => t.in_span(name, request, f).0,
        None => f(),
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(s, e)| s < e);
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            children
                .entry(parent.id)
                .or_default()
                .push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_len);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Count and summed self time (ns) of the spans named `name`.
pub fn self_total(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, t), s| {
            (n + 1, t + selfs.get(&s.id).copied().unwrap_or(0))
        })
}

/// The `Match(S)` operator with a `cluster` span around every call.
pub struct TracedMatcher {
    inner: Arc<dyn MatchOperator>,
    tracer: Arc<Tracer>,
}

impl TracedMatcher {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn MatchOperator>, tracer: Arc<Tracer>) -> Self {
        TracedMatcher { inner, tracer }
    }
}

impl MatchOperator for TracedMatcher {
    fn match_sources(
        &self,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        constraints: &Constraints,
    ) -> MatchOutcome {
        self.tracer.child("cluster", || {
            self.inner.match_sources(universe, sources, constraints)
        })
    }
}

/// A QEF with a `qef` span around every evaluation. It forwards
/// [`Qef::delta_class`], so the delta evaluator takes the same path it
/// takes for the unwrapped QEF.
pub struct TracedQef {
    inner: Arc<dyn Qef>,
    tracer: Arc<Tracer>,
}

impl Qef for TracedQef {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, ctx: &EvalContext, input: &EvalInput<'_>) -> f64 {
        self.tracer.child("qef", || self.inner.evaluate(ctx, input))
    }

    fn delta_class(&self) -> DeltaClass {
        self.inner.delta_class()
    }
}

/// `qefs` with every member wrapped in a [`TracedQef`], weights unchanged.
pub fn traced_qefs(qefs: &WeightedQefs, tracer: &Arc<Tracer>) -> WeightedQefs {
    let entries = qefs
        .iter()
        .map(|(q, w)| {
            let traced = TracedQef {
                inner: Arc::clone(q),
                tracer: Arc::clone(tracer),
            };
            (Arc::new(traced) as Arc<dyn Qef>, w)
        })
        .collect();
    WeightedQefs::new(entries).expect("the wrapped set has the original names and weights")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_once() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(vec![(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(vec![(0, 30), (5, 10), (12, 14)]), 30);
        assert_eq!(union_len(vec![(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, 0, 100, None),
            // Overlapping children cover [10, 40) once: 30 ns.
            span(2, 10, 30, Some(1)),
            span(3, 20, 40, Some(1)),
            // A grandchild is charged to its own parent, not to span 1.
            span(4, 22, 25, Some(3)),
            // A child running past its parent is clipped to [90, 100).
            span(5, 90, 120, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20 - 3);
        assert_eq!(selfs[&4], 3);
        assert_eq!(selfs[&5], 30);
    }

    #[test]
    fn nested_spans_record_parent_and_request() {
        let tracer = Tracer::new();
        let ((), _) = tracer.in_span("solve", 7, || {
            tracer.child("cluster", || ());
            tracer.child("qef", || ());
        });
        tracer.child("orphan", || ());
        let spans = tracer.spans();
        let solve = spans.iter().find(|s| s.name == "solve").unwrap();
        for name in ["cluster", "qef"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(solve.id));
            assert_eq!(s.request, 7);
            assert!(s.start_ns >= solve.start_ns && s.end_ns <= solve.end_ns);
        }
        let orphan = spans.iter().find(|s| s.name == "orphan").unwrap();
        assert_eq!((orphan.parent, orphan.request), (None, 0));
        let selfs = self_times(&spans);
        let (n, _) = self_total(&spans, &selfs, "cluster");
        assert_eq!(n, 1);
    }
}
