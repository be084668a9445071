//! Greedy constrained similarity clustering — Algorithm 1 of the paper.
//!
//! Starting from one cluster per attribute (plus one *keep* cluster per user
//! GA constraint), the algorithm repeatedly merges the most similar pair of
//! clusters whose union is still a valid GA, where cluster similarity is the
//! **maximum** similarity between an attribute of one cluster and an
//! attribute of the other. Clusters whose best similarity to every other
//! cluster falls below the threshold `θ` are pruned. The surviving clusters
//! are the GAs of the generated mediated schema.
//!
//! The max-linkage definition is what makes GA constraints act as *bridges*:
//! a constraint cluster `{F name, Prenom}` attracts attributes similar to
//! either member without the dissimilar member penalizing them — "the user
//! provides an example of a matching, and `µBE` expands it".
//!
//! Two clarifications of the paper's pseudocode (its printed guards are
//! garbled by the PDF-to-text conversion) that we adopt, guided by the
//! stated termination condition and Figure 3:
//!
//! * another round runs whenever *any* merge happened, not only when a
//!   merge candidate was starved (so mutually-similar merged clusters can
//!   keep coalescing, as in Figure 3(b)→(c));
//! * elimination at the end of a round removes clusters that were never
//!   merged, are not pending merge candidates, and are not user-kept.
//!
//! # How a call runs: the θ-graph
//!
//! The textbook loop rescans every cluster pair attribute by attribute in
//! every round, O(k²·|A|·|B|), although at the paper's θ = 0.75 only a few
//! attribute pairs ever qualify. This matcher works from those pairs:
//!
//! 1. **Edges.** The candidate's attribute pairs with weight
//!    `max(0, sim) ≥ θ` are collected once per call by walking the prefix
//!    at or above θ of each name's neighbour list
//!    (`SimilarityCache::neighbours`). For `θ ≤ 0` every pair qualifies
//!    and the edge set is the complete graph.
//! 2. **Clusters as flat arrays.** A cluster is a chain of attribute
//!    indices plus a bitset of its sources. Clusters never share an
//!    attribute, so a merge is valid iff the source sets are disjoint.
//! 3. **Rounds.** Each edge is a link between the clusters of its two
//!    attributes. One link is kept per cluster pair, the heaviest (the
//!    Lance–Williams max rule: sim(A∪B, C) = max(sim(A,C), sim(B,C))), and
//!    links are sorted by (similarity desc, i, j). The greedy pass,
//!    merge-candidate marking, elimination and survivor order are the
//!    textbook's. After a round, links move to the survivors' positions;
//!    links to an eliminated cluster, or inside a merge result, are
//!    dropped.
//! 4. **Final schema.** `GlobalAttribute`s are built only for the
//!    survivors. A GA's quality is its best internal edge, tracked through
//!    the merges; a GA with no positive one is scanned as the textbook
//!    scans every GA.
//!
//! The result is bit-identical to the textbook's (`cluster/reference.rs`,
//! kept as the test oracle):
//!
//! * **Same pair set.** For θ > 0 a cluster pair reaches θ iff some
//!   attribute pair across it does, and that pair is an edge. For θ ≤ 0
//!   every pair is an edge, with the textbook's `max(0, sim)` weight, which
//!   also drops NaN.
//! * **Same similarity.** A pair's max over its above-θ edges equals its
//!   max over all attribute pairs, because that max is at least θ.
//! * **Same order.** The sort key is the textbook's (similarity desc, then
//!   cluster positions), on the same `f64` values.
//! * **No resurrection.** A dropped link belonged to an eliminated cluster,
//!   which never returns, or lies inside one cluster, which never splits.

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::ga::{GlobalAttribute, MediatedSchema};
use mube_core::ids::{AttrId, SourceId};
use mube_core::matchop::{MatchOperator, MatchOutcome};
use mube_core::source::Universe;

use crate::cache::SimilarityCache;
use crate::similarity::Similarity;

#[cfg(test)]
mod reference;

/// `µBE`'s reference `Match(S)` operator.
///
/// Holds a similarity cache precomputed over the universe it was built for;
/// calls with a different universe are rejected as infeasible (caches and
/// universes travel together).
pub struct ClusterMatcher {
    cache: Arc<SimilarityCache>,
    universe_len: usize,
}

impl ClusterMatcher {
    /// Builds a matcher (and its similarity cache) for a universe.
    pub fn new(universe: Arc<Universe>, measure: impl Similarity + 'static) -> Self {
        let cache = Arc::new(SimilarityCache::build(&universe, &measure));
        ClusterMatcher {
            cache,
            universe_len: universe.len(),
        }
    }

    /// Builds a matcher from an existing cache (sharing it with other
    /// components, e.g. diagnostics).
    pub fn with_cache(universe: &Universe, cache: Arc<SimilarityCache>) -> Self {
        ClusterMatcher {
            cache,
            universe_len: universe.len(),
        }
    }

    /// The underlying similarity cache.
    pub fn cache(&self) -> &Arc<SimilarityCache> {
        &self.cache
    }
}

/// Marks "no position" in the per-round position maps and ends an
/// attribute chain.
const NONE: u32 = u32::MAX;

/// One cluster during Algorithm 1, held flat: its attributes are a chain
/// through [`Candidate::next`], its sources a bitset row in
/// [`Clusters::sources`].
struct Cluster {
    /// First and last attribute (candidate-local indices) of the chain.
    head: u32,
    tail: u32,
    /// User-kept (seeded from a GA constraint): immune to elimination and
    /// to the θ bound.
    keep: bool,
    /// Ever produced by a merge (size ≥ 2 growth); immune to elimination.
    formed_by_merge: bool,
    /// The best similarity between two of its attributes (0.0 until it
    /// has a positive one).
    best_edge: f64,
}

/// A cluster pair `i < j` with its max-linkage similarity `w`, packed as
/// `(!w.to_bits(), i, j)` in one `u128`. Every `w` is a non-negative,
/// non-NaN `f64`, so ascending links are the textbook order: similarity
/// descending, then `i`, then `j`.
type Link = u128;

fn link(w: f64, a: u32, b: u32) -> Link {
    (u128::from(!w.to_bits()) << 64) | (u128::from(a.min(b)) << 32) | u128::from(a.max(b))
}

fn link_ends(l: Link) -> (usize, usize) {
    ((l >> 32) as u32 as usize, l as u32 as usize)
}

fn link_weight(l: Link) -> f64 {
    f64::from_bits(!((l >> 64) as u64))
}

/// Keeps one link per cluster pair, the one with the highest similarity
/// (the Lance–Williams max rule: sim(A∪B, C) = max(sim(A,C), sim(B,C))),
/// and sorts the rest into the textbook order.
fn rank(links: &mut Vec<Link>) {
    // Rotated, a link sorts by (i, j, similarity descending).
    links.sort_unstable_by_key(|l| l.rotate_left(64));
    links.dedup_by_key(|l| *l as u64);
    links.sort_unstable();
}

/// The attributes of one `Match(S)` call, numbered `0..len` in
/// (source, index) order.
struct Candidate {
    attrs: Vec<AttrId>,
    /// Interned name of each attribute.
    names: Vec<u32>,
    /// Position of each attribute's source in the selection.
    source_pos: Vec<u32>,
    /// Next attribute in the same cluster's chain, or [`NONE`].
    next: Vec<u32>,
}

/// The live clusters: `order[p]` is the slot of the cluster at position
/// `p` of the textbook cluster list. A merge reuses the slot of its
/// lower-positioned cluster, so there are never more slots than starting
/// clusters.
struct Clusters {
    slots: Vec<Cluster>,
    /// Row `slot` of `words` words: the cluster's source bitset.
    sources: Vec<u64>,
    words: usize,
    order: Vec<u32>,
}

impl Clusters {
    fn source_row(&self, slot: u32) -> &[u64] {
        let start = slot as usize * self.words;
        &self.sources[start..start + self.words]
    }

    /// Appends a cluster of the attributes in `chain` at the next position.
    fn push(&mut self, cand: &mut Candidate, owner: &mut [u32], chain: &[u32], keep: bool) {
        let slot = self.slots.len() as u32;
        let row = self.sources.len();
        self.sources.resize(row + self.words, 0);
        for (x, &a) in chain.iter().enumerate() {
            owner[a as usize] = slot;
            let p = cand.source_pos[a as usize] as usize;
            self.sources[row + p / 64] |= 1u64 << (p % 64);
            cand.next[a as usize] = chain.get(x + 1).copied().unwrap_or(NONE);
        }
        self.slots.push(Cluster {
            head: chain[0],
            tail: chain[chain.len() - 1],
            keep,
            formed_by_merge: false,
            best_edge: 0.0,
        });
        self.order.push(slot);
    }

    /// Clusters never share an attribute, so their union is a valid GA iff
    /// their source sets are disjoint.
    fn mergeable(&self, a: u32, b: u32) -> bool {
        self.source_row(a)
            .iter()
            .zip(self.source_row(b))
            .all(|(x, y)| x & y == 0)
    }

    /// Folds slot `b` into slot `a`, whose cross similarity is `w`.
    fn merge(&mut self, cand: &mut Candidate, a: u32, b: u32, w: f64) {
        let (au, bu) = (a as usize, b as usize);
        for k in 0..self.words {
            let bits = self.sources[bu * self.words + k];
            self.sources[au * self.words + k] |= bits;
        }
        let Cluster {
            head,
            tail,
            keep,
            best_edge,
            ..
        } = self.slots[bu];
        let ca = &mut self.slots[au];
        cand.next[ca.tail as usize] = head;
        ca.tail = tail;
        ca.keep |= keep;
        ca.formed_by_merge = true;
        for x in [best_edge, w] {
            if x > ca.best_edge {
                ca.best_edge = x;
            }
        }
    }
}

impl ClusterMatcher {
    /// Every attribute pair of the candidate whose weight `max(0, sim)` is
    /// at least `θ`, as a link between the clusters `owner` puts the two
    /// attributes in; pairs inside one cluster are skipped.
    ///
    /// For `θ > 0` the pairs come from a prefix of each name's neighbour
    /// list; for `θ ≤ 0` every pair qualifies (the complete graph).
    fn edges(&self, cand: &Candidate, owner: &[u32], theta: f64) -> Vec<Link> {
        let mut links = Vec::with_capacity(cand.attrs.len());
        let mut push = |w: f64, a: u32, b: u32| {
            let (ca, cb) = (owner[a as usize], owner[b as usize]);
            if ca != cb {
                links.push(link(w, ca, cb));
            }
        };
        let n = cand.attrs.len() as u32;
        if theta <= 0.0 {
            for a in 0..n {
                for b in (a + 1)..n {
                    let s = self
                        .cache
                        .sim_by_name_id(cand.names[a as usize], cand.names[b as usize]);
                    push(if s > 0.0 { s } else { 0.0 }, a, b);
                }
            }
            return links;
        }
        // Attributes grouped by name, packed `name << 32 | attribute`:
        // group `g` is `by_name[starts[g]..starts[g + 1]]`, all of name
        // `names[g]`.
        let mut by_name: Vec<u64> = (0..n)
            .map(|a| (u64::from(cand.names[a as usize]) << 32) | u64::from(a))
            .collect();
        by_name.sort_unstable();
        let mut starts = Vec::new();
        let mut names = Vec::new();
        for (x, &e) in by_name.iter().enumerate() {
            let name = (e >> 32) as u32;
            if names.last() != Some(&name) {
                starts.push(x);
                names.push(name);
            }
        }
        starts.push(by_name.len());
        let group = |g: usize| by_name[starts[g]..starts[g + 1]].iter().map(|&e| e as u32);
        for (g, &name) in names.iter().enumerate() {
            // The list is best first, so the names at or above θ are a
            // prefix (none when θ is NaN).
            let above = self
                .cache
                .neighbours(name)
                .iter()
                .map(|&other| (other, self.cache.sim_by_name_id(name, other)))
                .take_while(|&(_, s)| s >= theta);
            for (other, s) in above {
                if other == name {
                    for (x, a) in group(g).enumerate() {
                        for b in group(g).skip(x + 1) {
                            push(s, a, b);
                        }
                    }
                } else if other > name {
                    if let Ok(h) = names.binary_search(&other) {
                        for a in group(g) {
                            for b in group(h) {
                                push(s, a, b);
                            }
                        }
                    }
                }
            }
        }
        links
    }

    /// Quality of one GA, `attrs` ascending: the maximum similarity between
    /// any two of its attributes (1.0 for singletons, which only arise from
    /// user constraints).
    fn ga_quality(&self, attrs: &[AttrId], best_edge: f64) -> f64 {
        if attrs.len() < 2 {
            return 1.0;
        }
        if best_edge > 0.0 {
            return best_edge;
        }
        // No positive pair recorded (θ ≤ 0 merges of dissimilar clusters):
        // scan, folding with `f64::max` exactly as the textbook does.
        let mut best = 0.0f64;
        for i in 0..attrs.len() {
            for j in (i + 1)..attrs.len() {
                best = best.max(self.cache.attr_sim(attrs[i], attrs[j]));
            }
        }
        best
    }
}

impl MatchOperator for ClusterMatcher {
    fn match_sources(
        &self,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        constraints: &Constraints,
    ) -> MatchOutcome {
        if universe.len() != self.universe_len {
            return MatchOutcome::Infeasible;
        }
        // The caller must pass S ⊇ C (the paper ensures this for every call
        // to Match); a violating call can never produce a valid schema.
        if !constraints
            .required_sources
            .iter()
            .all(|s| sources.contains(s))
        {
            return MatchOutcome::Infeasible;
        }
        let theta = constraints.theta;

        let mut n = 0;
        for &sid in sources {
            let Some(source) = universe.get(sid) else {
                return MatchOutcome::Infeasible;
            };
            n += source.schema().len();
        }
        let mut cand = Candidate {
            attrs: Vec::with_capacity(n),
            names: Vec::with_capacity(n),
            source_pos: Vec::with_capacity(n),
            next: vec![NONE; n],
        };
        for (pos, &sid) in sources.iter().enumerate() {
            for attr in universe.source(sid).attr_ids() {
                cand.attrs.push(attr);
                cand.names.push(self.cache.name_id(attr));
                cand.source_pos.push(pos as u32);
            }
        }
        let words = sources.len().div_ceil(64).max(1);
        let mut clusters = Clusters {
            slots: Vec::with_capacity(n),
            sources: Vec::with_capacity(n * words),
            words,
            order: Vec::with_capacity(n),
        };
        // `owner[a]`: the starting position of attribute `a`'s cluster.
        let mut owner = vec![NONE; n];
        // Seed clusters: merged GA constraints (keep = true)...
        for seed in constraints.merged_ga_seeds() {
            let mut chain = Vec::with_capacity(seed.len());
            for attr in seed.attrs() {
                // GA constraints imply source constraints; an attribute from
                // an unselected source cannot be mediated.
                let Ok(a) = cand.attrs.binary_search(attr) else {
                    return MatchOutcome::Infeasible;
                };
                chain.push(a as u32);
            }
            clusters.push(&mut cand, &mut owner, &chain, true);
        }
        // ...then every remaining attribute as its own cluster.
        for a in 0..n as u32 {
            if owner[a as usize] == NONE {
                clusters.push(&mut cand, &mut owner, &[a], false);
            }
        }
        // A seed's best edge may lie below θ, so it is scanned once here.
        for slot in clusters.slots.iter_mut().filter(|c| c.keep) {
            let mut x = slot.head;
            while x != NONE {
                let mut y = cand.next[x as usize];
                while y != NONE {
                    let s = self
                        .cache
                        .sim_by_name_id(cand.names[x as usize], cand.names[y as usize]);
                    if s > slot.best_edge {
                        slot.best_edge = s;
                    }
                    y = cand.next[y as usize];
                }
                x = cand.next[x as usize];
            }
        }

        // The greedy merge loop over the θ-graph's cluster pairs.
        let mut links = self.edges(&cand, &owner, theta);
        rank(&mut links);
        let mut merged = Vec::new();
        let mut mergecand = Vec::new();
        let mut new_pos = Vec::new();
        loop {
            let k = clusters.order.len();
            merged.clear();
            merged.resize(k, false);
            mergecand.clear();
            mergecand.resize(k, false);
            new_pos.clear();
            new_pos.resize(k, NONE);
            let mut survivors: Vec<u32> = Vec::with_capacity(k);

            for &l in &links {
                let (i, j) = link_ends(l);
                match (merged[i], merged[j]) {
                    (false, false) => {
                        let (a, b) = (clusters.order[i], clusters.order[j]);
                        if clusters.mergeable(a, b) {
                            clusters.merge(&mut cand, a, b, link_weight(l));
                            merged[i] = true;
                            merged[j] = true;
                            new_pos[i] = survivors.len() as u32;
                            new_pos[j] = survivors.len() as u32;
                            survivors.push(a);
                        }
                    }
                    (true, false) => mergecand[j] = true,
                    (false, true) => mergecand[i] = true,
                    (true, true) => {}
                }
            }
            let any_merge = !survivors.is_empty();

            // Elimination: survivors are merge results, merge candidates
            // starved this round, previously merged clusters, and user-kept
            // clusters.
            for (p, &slot) in clusters.order.iter().enumerate() {
                let c = &clusters.slots[slot as usize];
                if !merged[p] && (c.keep || c.formed_by_merge || mergecand[p]) {
                    new_pos[p] = survivors.len() as u32;
                    survivors.push(slot);
                }
            }
            clusters.order = survivors;

            if !any_merge {
                break;
            }
            // Carry every link over to the new positions. A link to an
            // eliminated cluster is dropped for good: eliminated clusters
            // never return. A link inside a merge result is dropped too.
            links.retain_mut(|l| {
                let (i, j) = link_ends(*l);
                let (i, j) = (new_pos[i], new_pos[j]);
                *l = link(link_weight(*l), i, j);
                i != NONE && j != NONE && i != j
            });
            rank(&mut links);
        }

        // The final schema: one GA per surviving cluster, in list order.
        let mut covered = vec![0u64; words];
        let mut gas = Vec::with_capacity(clusters.order.len());
        let mut qualities = Vec::with_capacity(clusters.order.len());
        for &slot in &clusters.order {
            let c = &clusters.slots[slot as usize];
            for (w, bits) in covered.iter_mut().zip(clusters.source_row(slot)) {
                *w |= bits;
            }
            let mut attrs = Vec::new();
            let mut x = c.head;
            while x != NONE {
                attrs.push(cand.attrs[x as usize]);
                x = cand.next[x as usize];
            }
            attrs.sort_unstable();
            qualities.push(self.ga_quality(&attrs, c.best_edge));
            gas.push(
                GlobalAttribute::try_new(attrs).expect("a cluster holds one attribute per source"),
            );
        }
        let spans_required = constraints.required_sources.iter().all(|s| {
            let p = sources.range(..s).count();
            covered[p / 64] & (1u64 << (p % 64)) != 0
        });
        if !spans_required {
            return MatchOutcome::Infeasible;
        }
        let schema = MediatedSchema::new(gas);
        let quality = if schema.is_empty() {
            0.0
        } else {
            qualities.into_iter().sum::<f64>() / schema.len() as f64
        };
        MatchOutcome::Matched { schema, quality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::JaccardNGram;
    use mube_core::ids::AttrId;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;

    fn a(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    fn build(schemas: &[&[&str]]) -> (Arc<Universe>, ClusterMatcher) {
        let mut b = Universe::builder();
        for (i, attrs) in schemas.iter().enumerate() {
            b.add_source(SourceSpec::new(
                format!("s{i}"),
                Schema::new(attrs.iter().copied()),
            ));
        }
        let u = Arc::new(b.build().unwrap());
        let m = ClusterMatcher::new(Arc::clone(&u), JaccardNGram::trigram());
        (u, m)
    }

    fn run(
        u: &Universe,
        m: &ClusterMatcher,
        constraints: &Constraints,
    ) -> Option<(MediatedSchema, f64)> {
        let sources: BTreeSet<_> = u.source_ids().collect();
        match m.match_sources(u, &sources, constraints) {
            MatchOutcome::Matched { schema, quality } => Some((schema, quality)),
            MatchOutcome::Infeasible => None,
        }
    }

    #[test]
    fn clusters_identical_names() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"], &["title"]]);
        let c = Constraints::with_max_sources(3).theta(0.75);
        let (schema, quality) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(quality, 1.0);
        let title_ga = schema.ga_of(a(0, 0)).unwrap();
        assert_eq!(title_ga.len(), 3);
    }

    #[test]
    fn unmatched_singletons_are_pruned() {
        let (u, m) = build(&[&["title", "zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, _) = run(&u, &m, &c).unwrap();
        // "zzzz" matches nothing → eliminated; only the title GA remains.
        assert_eq!(schema.len(), 1);
        assert!(schema.ga_of(a(0, 1)).is_none());
    }

    #[test]
    fn one_attribute_per_source_per_ga() {
        // Both attributes of source 0 are similar to source 1's "title",
        // but a GA may contain at most one attribute per source.
        let (u, m) = build(&[&["title", "title x"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.3);
        let (schema, _) = run(&u, &m, &c).unwrap();
        for ga in schema.gas() {
            let sources: Vec<_> = ga.sources().collect();
            let distinct: BTreeSet<_> = sources.iter().copied().collect();
            assert_eq!(sources.len(), distinct.len());
        }
    }

    #[test]
    fn threshold_gates_merging() {
        let (u, m) = build(&[&["book title"], &["title"]]);
        // Jaccard3("book title", "title") ≈ 0.375: merges at θ=0.3, not at 0.6.
        let low = Constraints::with_max_sources(2).theta(0.3);
        let (schema, q) = run(&u, &m, &low).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(q >= 0.3);

        let high = Constraints::with_max_sources(2).theta(0.6);
        let (schema, q) = run(&u, &m, &high).unwrap();
        assert!(schema.is_empty());
        assert_eq!(q, 0.0);
    }

    #[test]
    fn ga_constraint_bridges_dissimilar_attributes() {
        // "f name" and "prenom" share no trigrams; a GA constraint bridges
        // them, and "first name" then joins via its similarity to "f name".
        let (u, m) = build(&[&["f name"], &["prenom"], &["first name"]]);
        let bridge = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(3)
            .theta(0.30)
            .require_ga(bridge.clone());

        // Without the constraint nothing merges with "prenom".
        let plain = Constraints::with_max_sources(3).theta(0.30);
        let (schema_plain, _) = run(&u, &m, &plain).unwrap();
        assert!(schema_plain.ga_of(a(1, 0)).is_none());

        let (schema, _) = run(&u, &m, &c).unwrap();
        let ga = schema.ga_of(a(1, 0)).expect("bridged GA must survive");
        assert!(ga.contains(a(0, 0)), "constraint preserved");
        assert!(ga.contains(a(2, 0)), "bridge attracted 'first name'");
        assert!(schema.covers_gas(&[bridge]));
    }

    #[test]
    fn keep_clusters_survive_even_unmatched() {
        let (u, m) = build(&[&["alpha"], &["omega"]]);
        let ga = GlobalAttribute::try_new([a(0, 0)]).unwrap();
        let c = Constraints::with_max_sources(2)
            .theta(0.9)
            .require_ga(ga.clone());
        let (schema, _) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(schema.covers_gas(&[ga]));
    }

    #[test]
    fn source_constraint_validity_checked() {
        // Source 1's only attribute matches nothing, so the schema cannot
        // span it; with source 1 in C the match is infeasible.
        let (u, m) = build(&[&["title"], &["zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(3)
            .theta(0.75)
            .require_source(SourceId(1));
        assert!(run(&u, &m, &c).is_none());
        // Without the constraint, matching succeeds (source 1 contributes
        // nothing to the schema).
        let c2 = Constraints::with_max_sources(3).theta(0.75);
        assert!(run(&u, &m, &c2).is_some());
    }

    #[test]
    fn subset_call_only_clusters_selected_sources() {
        let (u, m) = build(&[&["title"], &["title"], &["title"]]);
        let sources: BTreeSet<_> = [SourceId(0), SourceId(2)].into();
        let c = Constraints::with_max_sources(2).theta(0.75);
        match m.match_sources(&u, &sources, &c) {
            MatchOutcome::Matched { schema, .. } => {
                assert_eq!(schema.len(), 1);
                let ga = &schema.gas()[0];
                assert_eq!(ga.len(), 2);
                assert!(!ga.touches_source(SourceId(1)));
            }
            MatchOutcome::Infeasible => panic!("expected match"),
        }
    }

    #[test]
    fn missing_required_source_in_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let c = Constraints::with_max_sources(2).require_source(SourceId(1));
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn ga_constraint_source_outside_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let ga = GlobalAttribute::try_new([a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(2).require_ga(ga);
        // required_sources is empty (the GA implies source 1), but source 1
        // is not selected.
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn chained_merging_converges() {
        // a–b similar, c–d similar, and the merged pairs are mutually
        // similar through b–c: everything should coalesce into one GA.
        let (u, m) = build(&[
            &["order date"],
            &["order data"],
            &["order daze"],
            &["order dace"],
        ]);
        let c = Constraints::with_max_sources(4).theta(0.5);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.gas()[0].len(), 4);
        assert!(q >= 0.5);
    }

    #[test]
    fn quality_is_mean_of_ga_qualities() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(q, 1.0); // both GAs are exact-name matches
    }

    #[test]
    fn deterministic_output() {
        let (u, m) = build(&[
            &["title", "author", "isbn"],
            &["book title", "writer", "isbn"],
            &["title", "author name"],
        ]);
        let c = Constraints::with_max_sources(3).theta(0.3);
        let r1 = run(&u, &m, &c).unwrap();
        let r2 = run(&u, &m, &c).unwrap();
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
    }

    /// The θ-graph matcher against the textbook oracle, bit for bit.
    fn assert_matches_reference(u: &Universe, m: &ClusterMatcher, c: &Constraints) {
        let sources: BTreeSet<_> = u.source_ids().collect();
        let got = m.match_sources(u, &sources, c);
        let want = reference::match_sources(m.cache(), u, &sources, c);
        match (&got, &want) {
            (
                MatchOutcome::Matched { schema, quality },
                MatchOutcome::Matched {
                    schema: s2,
                    quality: q2,
                },
            ) => {
                assert_eq!(schema, s2, "θ = {}", c.theta);
                assert_eq!(quality.to_bits(), q2.to_bits(), "θ = {}", c.theta);
            }
            _ => assert_eq!(got, want, "θ = {}", c.theta),
        }
    }

    #[test]
    fn equals_reference_across_thresholds_and_seeds() {
        let (u, m) = build(&[
            &["title", "author", "isbn", "title"],
            &["book title", "writer", "isbn", "titles"],
            &["title", "author name", "price"],
            &["order date", "order data", "title x"],
            &["f name", "prenom"],
        ]);
        let bridge = GlobalAttribute::try_new([a(4, 0), a(1, 1)]).unwrap();
        let single = GlobalAttribute::try_new([a(3, 2)]).unwrap();
        for theta in [
            -0.5,
            0.0,
            0.1,
            0.25,
            0.3,
            0.375,
            0.5,
            0.75,
            0.9,
            1.0,
            1.5,
            f64::NAN,
        ] {
            let plain = Constraints::with_max_sources(5).theta(theta);
            assert_matches_reference(&u, &m, &plain);
            let seeded = plain
                .clone()
                .require_ga(bridge.clone())
                .require_ga(single.clone());
            assert_matches_reference(&u, &m, &seeded);
            assert_matches_reference(&u, &m, &plain.require_source(SourceId(4)));
        }
    }

    #[test]
    fn equals_reference_beyond_one_bitset_word() {
        // 70 sources: source bitsets take two words. Source 69 (bit 5 of
        // the second word) is the only one that can stay unspanned.
        let mut schemas: Vec<&[&str]> = vec![&["title", "price"]; 69];
        schemas.push(&["zzzz"]);
        let (u, m) = build(&schemas);
        let required = Constraints::with_max_sources(70)
            .theta(0.75)
            .require_source(SourceId(69));
        assert_matches_reference(&u, &m, &required);
        assert!(run(&u, &m, &required).is_none());
        let spanned = Constraints::with_max_sources(70)
            .theta(0.75)
            .require_source(SourceId(68));
        assert_matches_reference(&u, &m, &spanned);
        let (schema, _) = run(&u, &m, &spanned).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.gas()[0].len(), 69);
    }

    #[test]
    fn wrong_universe_rejected() {
        let (u1, m) = build(&[&["title"]]);
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("x", Schema::new(["a"])));
        b.add_source(SourceSpec::new("y", Schema::new(["b"])));
        let u2 = b.build().unwrap();
        let sources: BTreeSet<_> = u2.source_ids().collect();
        let c = Constraints::with_max_sources(2);
        assert_eq!(m.match_sources(&u2, &sources, &c), MatchOutcome::Infeasible);
        drop(u1);
    }
}
