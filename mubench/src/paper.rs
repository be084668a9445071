//! `paper_solve`: cold single-thread tabu solves of 700-source paper-scale
//! catalogs, in-process, through `Problem::solve` — the library path
//! `mube solve` takes. Algorithm 1 does nearly all of the work; HTTP, JSON,
//! the WAL and replication do none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::catalog;
use mube_core::qefs::{data_only_qefs, paper_default_qefs};
use mube_core::{Constraints, MatchOperator, Problem, SolutionValidator, Universe, WeightedQefs};
use mube_match::{ClusterMatcher, JaccardNGram, SimilarityCache};
use mube_opt::TabuSearch;

use crate::client::Ledger;
use crate::reference;
use crate::report::{metric, Report};
use crate::stats::median;
use crate::synth::{self, Stream};
use crate::trace::{self, Tracer};
use crate::{secs, Layers, Options};

/// `m`: at most this many sources per solution (paper §7).
pub const MAX_SOURCES: usize = 20;
/// `θ`: the matching threshold.
pub const THETA: f64 = 0.75;
/// `β`: the smallest GA kept.
pub const BETA: usize = 2;

/// The QEF mix `mube solve` and `mube serve` pick for a universe: the
/// characteristic-aware mix when sources carry an MTTF, else data-only.
pub fn qefs_for(universe: &Universe) -> WeightedQefs {
    if universe
        .sources()
        .any(|s| s.characteristic("mttf").is_some())
    {
        paper_default_qefs("mttf")
    } else {
        data_only_qefs()
    }
}

/// A parsed catalog with its similarity cache.
pub struct Parsed {
    /// The catalog's universe.
    pub universe: Arc<Universe>,
    /// Its name-similarity cache (trigram Jaccard, as `mube` builds it).
    pub cache: Arc<SimilarityCache>,
}

/// Parses `text` and builds its similarity cache, each step inside a span
/// when a tracer is given.
pub fn parse_catalog(text: &str, tracer: Option<(&Tracer, u64)>) -> Result<Parsed, String> {
    let universe = trace::maybe_span(tracer, "catalog.parse", || catalog::from_text(text))
        .map_err(|e| format!("catalog: {e}"))?;
    let cache = trace::maybe_span(tracer, "cache.build", || {
        SimilarityCache::build(&universe, &JaccardNGram::trigram())
    });
    Ok(Parsed {
        universe: Arc::new(universe),
        cache: Arc::new(cache),
    })
}

fn problem(parsed: &Parsed, tracer: Option<&Arc<Tracer>>) -> Result<Problem, String> {
    let matcher: Arc<dyn MatchOperator> = Arc::new(ClusterMatcher::with_cache(
        &parsed.universe,
        Arc::clone(&parsed.cache),
    ));
    let qefs = qefs_for(&parsed.universe);
    let (matcher, qefs) = match tracer {
        Some(t) => (
            Arc::new(trace::TracedMatcher::new(matcher, Arc::clone(t))) as Arc<dyn MatchOperator>,
            trace::traced_qefs(&qefs, t),
        ),
        None => (matcher, qefs),
    };
    let constraints = Constraints::with_max_sources(MAX_SOURCES)
        .theta(THETA)
        .beta(BETA);
    Problem::new(Arc::clone(&parsed.universe), matcher, qefs, constraints)
        .map_err(|e| format!("problem: {e}"))
}

/// One solve of one catalog.
#[derive(Default)]
struct Sample {
    setup_s: f64,
    solve_s: f64,
    /// Median time of the reference computation beside the solve.
    ref_s: f64,
    evaluations: u64,
    digest: u64,
    /// Traced runs only: the traced solve, its memo size, serialization.
    traced_solve_s: f64,
    memo_entries: u64,
    matrix_bytes: usize,
    serialize_s: f64,
    response_bytes: usize,
}

/// Solves catalog `index` of the run: set up, solve cold, check.
fn solve_one(
    opts: &Options,
    index: u64,
    tracer: Option<&Arc<Tracer>>,
    ledger: &mut Ledger,
) -> Option<Sample> {
    ledger.attempted += 1;
    let mut sample = Sample::default();
    let t0 = Instant::now();
    let text = synth::paper_catalog(synth::sub_seed(opts.seed, Stream::Catalog, index));
    let prepared = parse_catalog(&text.text, tracer.map(|t| (t.as_ref(), index)))
        .and_then(|parsed| problem(&parsed, None).map(|p| (parsed, p)));
    let (parsed, cold) = match prepared {
        Ok(v) => v,
        Err(e) => {
            ledger.fail(e);
            return None;
        }
    };
    sample.setup_s = secs(t0.elapsed());
    sample.matrix_bytes = parsed.cache.matrix_bytes();

    let tabu = TabuSearch::default();
    let seed = synth::sub_seed(opts.seed, Stream::Solver, index);
    let (solution, solve_s, ref_s) = reference::beside(|| cold.solve(&tabu, seed));
    sample.solve_s = solve_s;
    sample.ref_s = ref_s;
    let solution = match solution {
        Ok(s) => s,
        Err(e) => {
            ledger.fail(format!("solve {index}: {e}"));
            return None;
        }
    };
    if let Err(e) = SolutionValidator::for_problem(&cold).validate(&solution) {
        ledger.fail(format!("solve {index}: invalid solution: {e}"));
        return None;
    }
    let json = solution.to_json(&parsed.universe);
    sample.digest = synth::digest(json.as_bytes());
    sample.evaluations = solution.evaluations;

    // Repeat the solve with the same seed on the now-warm memo: the answer
    // must be byte-identical to the cold one.
    let again = cold
        .solve(&tabu, seed)
        .map(|s| synth::digest(s.to_json(&parsed.universe).as_bytes()));
    if again != Ok(sample.digest) {
        ledger.fail(format!(
            "solve {index}: repeated solve gave a different answer"
        ));
        return None;
    }

    if let Some(tracer) = tracer {
        // The same solve again, cold, through the traced matcher and QEFs.
        let traced = match problem(&parsed, Some(tracer)) {
            Ok(p) => p,
            Err(e) => {
                ledger.fail(e);
                return None;
            }
        };
        let (result, ns) = tracer.in_span("solve", index, || traced.solve(&tabu, seed));
        sample.traced_solve_s = ns as f64 / 1e9;
        sample.memo_entries = traced.distinct_evaluations() as u64;
        let Ok(traced_solution) = result else {
            ledger.fail(format!("traced solve {index} failed"));
            return None;
        };
        let (json, ns) = tracer.in_span("serialize", index, || {
            traced_solution.to_json(&parsed.universe)
        });
        sample.serialize_s = ns as f64 / 1e9;
        sample.response_bytes = json.len();
        if synth::digest(json.as_bytes()) != sample.digest {
            ledger.fail(format!(
                "solve {index}: the traced solve changed the answer"
            ));
            return None;
        }
    }
    Some(sample)
}

/// Runs `paper_solve` for `opts.seconds`: one cold solve at a time.
pub fn run(opts: &Options) -> Report {
    let tracer = opts.trace.then(Tracer::new);
    let start = Instant::now();
    let run_for = Duration::from_secs(opts.seconds);
    let mut samples = Vec::new();
    let mut ledger = Ledger::default();
    let mut last = Duration::ZERO;
    let mut index = 0;
    while crate::should_start(start.elapsed(), last, run_for) {
        let t = Instant::now();
        samples.extend(solve_one(opts, index, tracer.as_ref(), &mut ledger));
        index += 1;
        last = t.elapsed();
    }

    let mut report = Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        reasons: ledger.reasons,
        ..Report::default()
    };
    report.check(
        "solves completed",
        !samples.is_empty(),
        format!("{} solves", samples.len()),
    );
    report.note(
        "catalog",
        "mube-synth paper scale, 700 sources, one per solve",
    );
    report.note(
        "constraints",
        format!("m={MAX_SOURCES} theta={THETA} beta={BETA}, tabu defaults"),
    );
    let digests: Vec<String> = samples
        .iter()
        .map(|s| format!("{:016x}", s.digest))
        .collect();
    report.note("solution_digests", digests.join(","));

    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let solve_s = median(&col(|s| s.solve_s)).unwrap_or(f64::NAN);
    let total_solve: f64 = col(|s| s.solve_s).iter().sum();
    let total_evals: f64 = col(|s| s.evaluations as f64).iter().sum();
    let setup_s = median(&col(|s| s.setup_s)).unwrap_or(f64::NAN);
    // Solve time per 1,000 evaluations (their number varies from catalog
    // to catalog) in units of the reference computation beside each solve:
    // the run's solve time over its evaluations weighted by those units.
    let rel = total_solve / col(|s| s.evaluations as f64 / 1e3 * s.ref_s).iter().sum::<f64>();
    report.note(
        "reference_ms",
        median(&col(|s| s.ref_s)).unwrap_or(f64::NAN) * 1e3,
    );
    let rss = crate::env::peak_rss_mb(None).unwrap_or(f64::NAN);
    report.detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("solve_s", solve_s, "s"),
        metric("evals_per_s", total_evals / total_solve, "1/s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    match &tracer {
        None => {
            report.metrics = vec![
                metric("setup_s", setup_s, "s"),
                metric("op_time_rel", rel, "ratio"),
                metric("peak_rss_mb", rss, "MB"),
            ];
        }
        Some(tracer) => {
            let spans = tracer.spans();
            let mut layers = Layers::from_solve_spans(&spans);
            let traced = median(&col(|s| s.traced_solve_s)).unwrap_or(f64::NAN);
            let n = samples.len() as f64;
            layers.catalog_parse_ms = Layers::median_ms(&spans, "catalog.parse");
            layers.cache_build_ms = Layers::median_ms(&spans, "cache.build");
            layers.cache_matrix_bytes = median(&col(|s| s.matrix_bytes as f64)).unwrap_or(0.0);
            layers.search_evaluations = total_evals / n;
            layers.memo_entries = col(|s| s.memo_entries as f64).iter().sum::<f64>() / n;
            layers.match_calls_per_eval = layers.cluster_calls / (total_evals / n);
            layers.serialize_us = median(&col(|s| s.serialize_s)).unwrap_or(0.0) * 1e6;
            layers.response_bytes = median(&col(|s| s.response_bytes as f64)).unwrap_or(0.0);
            layers.trace_overhead_s = traced - solve_s;
            report.note(
                "trace_overhead",
                "median traced solve_s minus median untraced solve_s, same catalogs and seeds",
            );
            report.metrics = layers.metrics();
            let _ = crate::write_spans(tracer, opts);
        }
    }
    report
}
