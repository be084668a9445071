//! The textbook Algorithm 1, kept as the test oracle for
//! [`ClusterMatcher`](super::ClusterMatcher).
//!
//! Every merge round rescans every cluster pair attribute by attribute and
//! builds a `GlobalAttribute` for every trial merge: O(k²·|A|·|B|) per
//! round. The production matcher must return a bit-identical
//! `MatchOutcome` (same GAs in the same order, same `quality` bits) for
//! every input; the unit tests in `cluster.rs` and
//! `tests/reference_differential.rs` check that. This file uses only public
//! APIs so that test crate can include it with `#[path]`; the including
//! module must have `SimilarityCache` in scope.

use std::collections::BTreeSet;

use mube_core::constraints::Constraints;
use mube_core::ga::{GlobalAttribute, MediatedSchema};
use mube_core::ids::SourceId;
use mube_core::matchop::MatchOutcome;
use mube_core::source::Universe;

use super::SimilarityCache;

/// One cluster during Algorithm 1.
struct Cluster {
    ga: GlobalAttribute,
    /// User-kept (seeded from a GA constraint): immune to elimination and
    /// to the θ bound.
    keep: bool,
    /// Ever produced by a merge (size ≥ 2 growth); immune to elimination.
    formed_by_merge: bool,
}

/// Max-linkage similarity between two clusters.
fn cluster_sim(cache: &SimilarityCache, a: &Cluster, b: &Cluster) -> f64 {
    let mut best = 0.0f64;
    for &x in a.ga.attrs() {
        for &y in b.ga.attrs() {
            let s = cache.attr_sim(x, y);
            if s > best {
                best = s;
            }
        }
    }
    best
}

/// Quality of one GA: the maximum similarity between any two of its
/// attributes (1.0 for singletons, which only arise from user constraints).
fn ga_quality(cache: &SimilarityCache, ga: &GlobalAttribute) -> f64 {
    let attrs: Vec<_> = ga.attrs().iter().copied().collect();
    if attrs.len() < 2 {
        return 1.0;
    }
    let mut best = 0.0f64;
    for i in 0..attrs.len() {
        for j in (i + 1)..attrs.len() {
            best = best.max(cache.attr_sim(attrs[i], attrs[j]));
        }
    }
    best
}

/// `Match(S)` by brute force. The caller checks that `cache` was built for
/// `universe`.
pub fn match_sources(
    cache: &SimilarityCache,
    universe: &Universe,
    sources: &BTreeSet<SourceId>,
    constraints: &Constraints,
) -> MatchOutcome {
    if !constraints
        .required_sources
        .iter()
        .all(|s| sources.contains(s))
    {
        return MatchOutcome::Infeasible;
    }
    let theta = constraints.theta;

    // Seed clusters: merged GA constraints (keep = true)...
    let seeds = constraints.merged_ga_seeds();
    let mut seeded_attrs: BTreeSet<_> = BTreeSet::new();
    let mut clusters: Vec<Cluster> = Vec::new();
    for seed in seeds {
        if !seed.sources().all(|s| sources.contains(&s)) {
            return MatchOutcome::Infeasible;
        }
        seeded_attrs.extend(seed.attrs().iter().copied());
        clusters.push(Cluster {
            ga: seed,
            keep: true,
            formed_by_merge: false,
        });
    }
    // ...then every remaining attribute as its own cluster.
    for &sid in sources {
        let Some(source) = universe.get(sid) else {
            return MatchOutcome::Infeasible;
        };
        for attr in source.attr_ids() {
            if !seeded_attrs.contains(&attr) {
                clusters.push(Cluster {
                    ga: GlobalAttribute::singleton(attr),
                    keep: false,
                    formed_by_merge: false,
                });
            }
        }
    }

    // The greedy merge loop.
    loop {
        let k = clusters.len();
        // All cluster pairs at or above the threshold, best first.
        // Deterministic tie-break on indices.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                let s = cluster_sim(cache, &clusters[i], &clusters[j]);
                if s >= theta {
                    pairs.push((s, i, j));
                }
            }
        }
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut merged = vec![false; k];
        let mut mergecand = vec![false; k];
        let mut new_clusters: Vec<Cluster> = Vec::new();
        let mut any_merge = false;

        for &(_, i, j) in &pairs {
            match (merged[i], merged[j]) {
                (false, false) => {
                    if let Some(ga) = clusters[i].ga.merge(&clusters[j].ga) {
                        merged[i] = true;
                        merged[j] = true;
                        any_merge = true;
                        new_clusters.push(Cluster {
                            ga,
                            keep: clusters[i].keep || clusters[j].keep,
                            formed_by_merge: true,
                        });
                    }
                }
                (true, false) => mergecand[j] = true,
                (false, true) => mergecand[i] = true,
                (true, true) => {}
            }
        }

        // Elimination: survivors are merge results, merge candidates
        // starved this round, previously merged clusters, and user-kept
        // clusters.
        let mut survivors = new_clusters;
        for (idx, cluster) in clusters.into_iter().enumerate() {
            if merged[idx] {
                continue;
            }
            if cluster.keep || cluster.formed_by_merge || mergecand[idx] {
                survivors.push(cluster);
            }
        }
        clusters = survivors;

        if !any_merge {
            break;
        }
    }

    let schema = MediatedSchema::new(clusters.into_iter().map(|c| c.ga));
    if !schema.is_valid_on(&constraints.required_sources) {
        return MatchOutcome::Infeasible;
    }
    let quality = if schema.is_empty() {
        0.0
    } else {
        schema
            .gas()
            .iter()
            .map(|g| ga_quality(cache, g))
            .sum::<f64>()
            / schema.len() as f64
    };
    MatchOutcome::Matched { schema, quality }
}
