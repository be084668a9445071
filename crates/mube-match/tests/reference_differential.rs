//! Differential tests: the θ-graph `ClusterMatcher` against the textbook
//! Algorithm 1 (`src/cluster/reference.rs`), which rescans every cluster
//! pair in every round. The two must return the same `MatchOutcome` bit for
//! bit — the same GAs in the same order and the same `quality` bits — on
//! any universe, threshold, subset and GA seed, under any measure,
//! including user measures that return NaN or negative values.
//!
//! `PROPTEST_CASES=4096 cargo test --release -p mube-match --test
//! reference_differential` runs the property over more cases.

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::ga::GlobalAttribute;
use mube_core::ids::{AttrId, SourceId};
use mube_core::matchop::{MatchOperator, MatchOutcome};
use mube_core::schema::Schema;
use mube_core::source::{SourceSpec, Universe};
use mube_match::similarity::{JaccardNGram, NormalizedLevenshtein, Similarity};
use mube_match::{ClusterMatcher, SimilarityCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[path = "../src/cluster/reference.rs"]
mod reference;

/// A user measure with NaN, negative and signed-zero values.
struct Erratic;

impl Similarity for Erratic {
    fn name(&self) -> &str {
        "erratic"
    }

    fn similarity(&self, a: &str, b: &str) -> f64 {
        match (a.len() * 7
            + b.len() * 7
            + a.bytes().chain(b.bytes()).map(usize::from).sum::<usize>())
            % 6
        {
            0 => f64::NAN,
            1 => -0.5,
            2 => -0.0,
            _ => JaccardNGram::trigram().similarity(a, b),
        }
    }
}

/// Compares the two matchers on one call; `Err` names the difference.
fn compare(
    matcher: &ClusterMatcher,
    universe: &Universe,
    sources: &BTreeSet<SourceId>,
    constraints: &Constraints,
) -> Result<(), String> {
    let got = matcher.match_sources(universe, sources, constraints);
    let want = reference::match_sources(matcher.cache(), universe, sources, constraints);
    match (&got, &want) {
        (
            MatchOutcome::Matched { schema, quality },
            MatchOutcome::Matched {
                schema: want_schema,
                quality: want_quality,
            },
        ) if schema == want_schema && quality.to_bits() == want_quality.to_bits() => Ok(()),
        (MatchOutcome::Infeasible, MatchOutcome::Infeasible) => Ok(()),
        _ => Err(format!(
            "θ = {}, sources {sources:?}, seeds {:?}: got {got:?}, want {want:?}",
            constraints.theta, constraints.required_gas
        )),
    }
}

/// Names over a small alphabet, so trigrams overlap often, with
/// near-duplicates (a suffix, a dropped first letter) of each base word.
fn vocabulary_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{1,6}", 2..7).prop_map(|bases| {
        let mut names = Vec::new();
        for base in bases {
            names.push(format!("{base}s"));
            names.push(format!("{base} x"));
            names.push(base.chars().skip(1).collect::<String>() + "a");
            names.push(base);
        }
        names
    })
}

/// One random `Match(S)` call over a universe drawn from `vocabulary`:
/// sources may repeat a name, the subset and the required sources are
/// random, and up to two attribute-disjoint GA seeds are drawn, sometimes
/// from unselected sources.
fn random_call(
    vocabulary: &[String],
    rng: &mut StdRng,
) -> (
    Universe,
    BTreeSet<SourceId>,
    Vec<SourceId>,
    Vec<GlobalAttribute>,
) {
    let mut b = Universe::builder();
    for s in 0..rng.random_range(1..7usize) {
        let attrs: Vec<&str> = (0..rng.random_range(1..7usize))
            .map(|_| vocabulary[rng.random_range(0..vocabulary.len())].as_str())
            .collect();
        b.add_source(SourceSpec::new(format!("s{s}"), Schema::new(attrs)));
    }
    let universe = b.build().expect("non-empty schemas");
    let sources: BTreeSet<SourceId> = universe
        .source_ids()
        .filter(|_| rng.random_bool(0.7))
        .collect();
    let required: Vec<SourceId> = universe
        .source_ids()
        .filter(|s| rng.random_bool(if sources.contains(s) { 0.2 } else { 0.05 }))
        .collect();
    let mut used: BTreeSet<AttrId> = BTreeSet::new();
    let mut seeds = Vec::new();
    for _ in 0..rng.random_range(0..3usize) {
        let mut pool: Vec<SourceId> = if rng.random_bool(0.9) {
            sources.iter().copied().collect()
        } else {
            universe.source_ids().collect()
        };
        pool.shuffle(rng);
        let attrs: Vec<AttrId> = pool
            .iter()
            .take(rng.random_range(1..4usize))
            .map(|&sid| {
                let n = universe.source(sid).schema().len() as u32;
                AttrId::new(sid, rng.random_range(0..n))
            })
            .filter(|a| !used.contains(a))
            .collect();
        if let Ok(ga) = GlobalAttribute::try_new(attrs) {
            used.extend(ga.attrs().iter().copied());
            seeds.push(ga);
        }
    }
    (universe, sources, required, seeds)
}

proptest! {
    #[test]
    fn theta_graph_matcher_equals_the_reference(
        vocabulary in vocabulary_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (universe, sources, required, seeds) = random_call(&vocabulary, &mut rng);
        let measure: Box<dyn Similarity> = match rng.random_range(0..3u32) {
            0 => Box::new(JaccardNGram::trigram()),
            1 => Box::new(NormalizedLevenshtein),
            _ => Box::new(Erratic),
        };
        let universe = Arc::new(universe);
        let cache = Arc::new(SimilarityCache::build(&universe, measure.as_ref()));
        let matcher = ClusterMatcher::with_cache(&universe, Arc::clone(&cache));

        // θ at the edges, at random, and exactly at a cached similarity
        // (where `sim ≥ θ` is decided by equality).
        let d = cache.distinct_names() as u32;
        let cell = cache.sim_by_name_id(rng.random_range(0..d), rng.random_range(0..d));
        let thetas = [0.0, 1.0, rng.random_range(0.0..1.0), cell, -0.25];
        for theta in thetas {
            let mut constraints = Constraints::with_max_sources(universe.len()).theta(theta);
            constraints.required_sources.extend(required.iter().copied());
            constraints.required_gas.extend(seeds.iter().cloned());
            if let Err(e) = compare(&matcher, &universe, &sources, &constraints) {
                prop_assert!(false, "{} ({}): {e}", measure.name(), universe.len());
            }
        }
    }
}

/// The shape the optimizer runs: subsets of the 700-source paper-scale
/// universe, with and without GA seeds drawn from the ground truth, at the
/// paper's θ = 0.75 and at a few others. The last two subsets have more than
/// 64 sources, so source bitsets span several words, and require their
/// highest source, whose bit is in the last word.
#[test]
fn paper_scale_subsets_equal_the_reference() {
    let synth = mube_synth::generate(&mube_synth::SynthConfig::paper(700), 2007);
    let universe = Arc::clone(&synth.universe);
    let matcher = ClusterMatcher::new(Arc::clone(&universe), JaccardNGram::trigram());
    let all: Vec<SourceId> = universe.source_ids().collect();
    let mut rng = StdRng::seed_from_u64(14);
    for case in 0..402 {
        let k = match case {
            400 => 90,
            401 => 140,
            _ => [5, 10, 20, 20, 40][case % 5],
        };
        let mut pool = all.clone();
        pool.shuffle(&mut rng);
        pool.truncate(k);
        let theta = [0.75, 0.75, 0.75, 0.5, 0.9, 0.3][case % 6];
        let mut constraints = Constraints::with_max_sources(k).theta(theta);
        if case % 4 == 0 {
            for concept in 0..2 {
                if let Some(ga) = synth
                    .ground_truth
                    .make_ga_constraint(&universe, &pool, concept, 4, &mut rng)
                {
                    constraints.required_gas.push(ga);
                }
            }
        }
        if case >= 400 {
            constraints
                .required_sources
                .extend(pool.iter().max().copied());
        } else if case % 7 == 0 {
            constraints.required_sources.insert(pool[0]);
        }
        let sources: BTreeSet<SourceId> = pool.into_iter().collect();
        if let Err(e) = compare(&matcher, &universe, &sources, &constraints) {
            panic!("case {case}: {e}");
        }
    }
}
