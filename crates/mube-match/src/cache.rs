//! Universe-wide pairwise similarity cache.
//!
//! The clustering matcher runs once per objective evaluation inside the
//! optimizer's inner loop, so attribute similarities must be cheap. Two
//! observations make a precomputed cache practical at Internet scale:
//!
//! 1. similarity is a function of the *names* only, and
//! 2. names repeat massively across sources (the paper's 700 schemas are
//!    perturbed copies of 50 base schemas).
//!
//! So the cache interns every distinct attribute name once and stores a
//! dense `distinct × distinct` matrix of `f32` similarities. A universe
//! with thousands of sources but a few hundred distinct names costs well
//! under a megabyte.
//!
//! Next to the matrix the cache keeps, per name, a **neighbour list**: every
//! name whose similarity to it is above 0 (the name itself included, at
//! 1.0), sorted by similarity descending, then by name id. The lists do not
//! depend on `θ`: the names at or above any `θ > 0` are a prefix of the
//! list. They are built on first use (the first match or cross-source
//! audit), not by [`SimilarityCache::build`], so a cache that is only
//! stored costs nothing extra; everyone sharing the cache shares the lists.
//! They hold one `u32` per non-zero cell, so they never outgrow the matrix.

use std::collections::HashMap;
use std::sync::OnceLock;

use mube_core::ids::AttrId;
use mube_core::source::Universe;

use crate::similarity::Similarity;

/// A precomputed similarity oracle for all attributes of one universe.
pub struct SimilarityCache {
    /// `name_ids[source][attr_index]` → interned name id.
    name_ids: Vec<Vec<u32>>,
    /// Number of distinct names.
    distinct: usize,
    /// Dense row-major `distinct × distinct` similarity matrix.
    matrix: Vec<f32>,
    /// Name of the measure used, for reports.
    measure_name: String,
    /// Per-name neighbour lists, built on first use.
    neighbours: OnceLock<NeighbourLists>,
}

/// Every name's neighbours, concatenated: name `n`'s list is
/// `names[offsets[n]..offsets[n + 1]]`.
struct NeighbourLists {
    offsets: Vec<usize>,
    names: Vec<u32>,
}

/// Below this many distinct names the matrix is so small that thread
/// spawn overhead dominates; [`SimilarityCache::build_parallel`] falls
/// back to the serial fill.
const PARALLEL_BUILD_MIN_NAMES: usize = 64;

impl SimilarityCache {
    /// Computes the cache for a universe under a similarity measure.
    ///
    /// Once built, the cache is immutable: every read path
    /// ([`SimilarityCache::attr_sim`] and friends) is a plain indexed load
    /// with no locking, so a single cache can be shared freely across
    /// solver threads (it is `Send + Sync`; the portfolio solver and the
    /// server's catalog store rely on this).
    pub fn build(universe: &Universe, measure: &dyn Similarity) -> Self {
        Self::build_with_threads(universe, measure, 1)
    }

    /// Like [`SimilarityCache::build`], filling the similarity matrix with
    /// up to `threads` OS threads. The result is byte-identical to the
    /// serial build: each upper-triangle cell is computed by exactly one
    /// thread and mirrored afterwards, exactly as the serial fill defines
    /// `sim(j,i) := sim(i,j)`.
    pub fn build_parallel(universe: &Universe, measure: &dyn Similarity, threads: usize) -> Self {
        Self::build_with_threads(universe, measure, threads.max(1))
    }

    fn build_with_threads(universe: &Universe, measure: &dyn Similarity, threads: usize) -> Self {
        let mut intern: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut name_ids: Vec<Vec<u32>> = Vec::with_capacity(universe.len());
        for source in universe.sources() {
            let ids = source
                .schema()
                .iter()
                .map(|(_, attr)| {
                    *intern.entry(attr.name()).or_insert_with(|| {
                        names.push(attr.name());
                        (names.len() - 1) as u32
                    })
                })
                .collect();
            name_ids.push(ids);
        }
        let distinct = names.len();
        let mut matrix = vec![0.0f32; distinct * distinct];
        if threads <= 1 || distinct < PARALLEL_BUILD_MIN_NAMES {
            for i in 0..distinct {
                matrix[i * distinct + i] = 1.0;
                for j in (i + 1)..distinct {
                    let s = measure.similarity(names[i], names[j]) as f32;
                    matrix[i * distinct + j] = s;
                    matrix[j * distinct + i] = s;
                }
            }
        } else {
            // Split the matrix into contiguous row bands, one scoped thread
            // per band, each filling its rows' diagonal-and-above cells in
            // place — bands are disjoint `&mut` slices, so no cell is ever
            // written twice.
            let rows_per_band = distinct.div_ceil(threads);
            let names = &names;
            std::thread::scope(|scope| {
                for (band_idx, band) in matrix.chunks_mut(rows_per_band * distinct).enumerate() {
                    let first_row = band_idx * rows_per_band;
                    scope.spawn(move || {
                        for (r, row) in band.chunks_mut(distinct).enumerate() {
                            let i = first_row + r;
                            row[i] = 1.0;
                            for (j, cell) in row.iter_mut().enumerate().skip(i + 1) {
                                *cell = measure.similarity(names[i], names[j]) as f32;
                            }
                        }
                    });
                }
            });
            // Mirror the upper triangle below the diagonal; symmetry is the
            // cache's contract, not necessarily the measure's.
            for i in 0..distinct {
                for j in (i + 1)..distinct {
                    matrix[j * distinct + i] = matrix[i * distinct + j];
                }
            }
        }
        SimilarityCache {
            name_ids,
            distinct,
            matrix,
            measure_name: measure.name().to_string(),
            neighbours: OnceLock::new(),
        }
    }

    /// Number of distinct attribute names interned.
    pub fn distinct_names(&self) -> usize {
        self.distinct
    }

    /// The measure this cache was built with.
    pub fn measure_name(&self) -> &str {
        &self.measure_name
    }

    /// Interned name id of an attribute.
    ///
    /// # Panics
    ///
    /// Panics if the attribute does not belong to the universe the cache was
    /// built from (a logic error: caches and universes travel together).
    #[inline]
    pub fn name_id(&self, attr: AttrId) -> u32 {
        self.name_ids[attr.source.index()][attr.index as usize]
    }

    /// Cached similarity of two attributes.
    #[inline]
    pub fn attr_sim(&self, a: AttrId, b: AttrId) -> f64 {
        self.sim_by_name_id(self.name_id(a), self.name_id(b))
    }

    /// Cached similarity of two interned names.
    #[inline]
    pub fn sim_by_name_id(&self, a: u32, b: u32) -> f64 {
        f64::from(self.matrix[a as usize * self.distinct + b as usize])
    }

    /// Approximate memory use of the matrix, in bytes.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix.len() * std::mem::size_of::<f32>()
    }

    /// The names whose similarity to name `name` is above 0 — `name`
    /// itself included — by similarity descending, then by name id. NaN and
    /// non-positive similarities are left out.
    pub(crate) fn neighbours(&self, name: u32) -> &[u32] {
        let lists = self.neighbours.get_or_init(|| self.build_neighbours());
        let n = name as usize;
        &lists.names[lists.offsets[n]..lists.offsets[n + 1]]
    }

    fn build_neighbours(&self) -> NeighbourLists {
        let d = self.distinct;
        let mut offsets = Vec::with_capacity(d + 1);
        let mut names = Vec::new();
        offsets.push(0);
        for row in self.matrix.chunks_exact(d.max(1)).take(d) {
            let start = names.len();
            names.extend((0..d as u32).filter(|&j| row[j as usize] > 0.0));
            // Stable sort of ids taken in ascending order: equal
            // similarities stay by name id.
            names[start..].sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]));
            offsets.push(names.len());
        }
        NeighbourLists { offsets, names }
    }

    /// Each source's distinct interned names, ascending.
    fn source_name_sets(&self) -> Vec<Vec<u32>> {
        self.name_ids
            .iter()
            .map(|ids| {
                let mut set = ids.clone();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    }

    /// For each source (indexed by source id), the best similarity any of
    /// its attributes reaches against an attribute of a *different* source.
    ///
    /// This is the per-source upper bound on cluster cohesion: a source
    /// whose best cross-source similarity is below `θ` can never join a
    /// non-seed GA. Sources of a single-source universe score `0.0`.
    ///
    /// For each of a source's names, the first entry of its neighbour list
    /// that some other source holds is that name's best cross-source
    /// partner, so the scan costs one short list walk per name instead of
    /// one pass over every pair of sources.
    pub fn per_source_best_cross_sim(&self) -> Vec<f64> {
        let sets = self.source_name_sets();
        let mut holders = vec![0u32; self.distinct];
        for &n in sets.iter().flatten() {
            holders[n as usize] += 1;
        }
        sets.iter()
            .map(|set| {
                let mut best = 0.0f64;
                for &n in set {
                    let partner = self
                        .neighbours(n)
                        .iter()
                        .find(|&&m| holders[m as usize] > u32::from(set.binary_search(&m).is_ok()));
                    if let Some(&m) = partner {
                        let s = self.sim_by_name_id(n, m);
                        if s > best {
                            best = s;
                        }
                    }
                }
                best
            })
            .collect()
    }

    /// The best similarity achievable between attributes of two *different*
    /// sources — an upper bound on any usable matching threshold `θ`: above
    /// this value no pair of attributes can co-cluster, so every non-seed GA
    /// is a singleton and dies to any `β ≥ 2`.
    pub fn max_cross_source_sim(&self) -> f64 {
        self.per_source_best_cross_sim()
            .into_iter()
            .fold(0.0, f64::max)
    }
}

/// Convenience for one-shot audits: the highest cross-source attribute
/// similarity in `universe` under `measure` (see
/// [`SimilarityCache::max_cross_source_sim`]). A `θ` above this bound is
/// unsatisfiable: the matcher can never form a multi-source GA outside the
/// user's seed GAs.
pub fn theta_upper_bound(universe: &Universe, measure: &dyn Similarity) -> f64 {
    SimilarityCache::build(universe, measure).max_cross_source_sim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::JaccardNGram;

    /// The pairwise definition of [`SimilarityCache::per_source_best_cross_sim`]:
    /// every pair of sources, every pair of their names. O(S²·a²).
    fn per_source_best_cross_sim_pairwise(cache: &SimilarityCache) -> Vec<f64> {
        let sets = cache.source_name_sets();
        let mut best = vec![0.0f64; sets.len()];
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                for &a in &sets[i] {
                    for &b in &sets[j] {
                        let s = cache.sim_by_name_id(a, b);
                        if s > best[i] {
                            best[i] = s;
                        }
                        if s > best[j] {
                            best[j] = s;
                        }
                    }
                }
            }
        }
        best
    }
    use mube_core::ids::SourceId;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["title", "author"])));
        b.add_source(SourceSpec::new("b", Schema::new(["title", "writer"])));
        b.add_source(SourceSpec::new("c", Schema::new(["book title"])));
        b.build().unwrap()
    }

    fn attr(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    #[test]
    fn interns_duplicate_names() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        // 5 attributes but only 4 distinct names.
        assert_eq!(cache.distinct_names(), 4);
        assert_eq!(cache.name_id(attr(0, 0)), cache.name_id(attr(1, 0)));
        assert_ne!(cache.name_id(attr(0, 1)), cache.name_id(attr(1, 1)));
    }

    #[test]
    fn matches_measure_exactly() {
        let u = universe();
        let measure = JaccardNGram::trigram();
        let cache = SimilarityCache::build(&u, &measure);
        let expected = measure.similarity("title", "book title");
        let got = cache.attr_sim(attr(0, 0), attr(2, 0));
        assert!(
            (got - expected).abs() < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn identical_names_have_sim_one() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.attr_sim(attr(0, 0), attr(1, 0)), 1.0);
        assert_eq!(cache.attr_sim(attr(0, 0), attr(0, 0)), 1.0);
    }

    #[test]
    fn symmetric() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        let ab = cache.attr_sim(attr(0, 1), attr(1, 1));
        let ba = cache.attr_sim(attr(1, 1), attr(0, 1));
        assert_eq!(ab, ba);
    }

    #[test]
    fn reports_memory() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.matrix_bytes(), 4 * 4 * 4);
        assert_eq!(cache.measure_name(), "jaccard3");
    }

    #[test]
    fn cross_source_bound_finds_shared_names() {
        // "title" appears in sources a and b, so the bound is exactly 1.
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.max_cross_source_sim(), 1.0);
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 1.0);
        let per_source = cache.per_source_best_cross_sim();
        assert_eq!(per_source.len(), 3);
        assert_eq!(per_source[0], 1.0);
        assert_eq!(per_source[1], 1.0);
        // Source c's best partner is "title" vs "book title" < 1.
        assert!(per_source[2] < 1.0 && per_source[2] > 0.0, "{per_source:?}");
    }

    #[test]
    fn cross_source_bound_on_dissimilar_universe() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["aaaaaa"])));
        b.add_source(SourceSpec::new("b", Schema::new(["zzzzzz"])));
        let u = b.build().unwrap();
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 0.0);
    }

    /// A universe wide enough to exceed the parallel-build threshold.
    fn wide_universe() -> Universe {
        let mut b = Universe::builder();
        for s in 0..10u32 {
            let attrs: Vec<String> = (0..12).map(|a| format!("field {s} {a} name")).collect();
            b.add_source(SourceSpec::new(format!("src{s}"), Schema::new(attrs)));
        }
        b.build().unwrap()
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_serial() {
        let u = wide_universe();
        let measure = JaccardNGram::trigram();
        let serial = SimilarityCache::build(&u, &measure);
        assert!(serial.distinct_names() >= super::PARALLEL_BUILD_MIN_NAMES);
        for threads in [2, 3, 8] {
            let parallel = SimilarityCache::build_parallel(&u, &measure, threads);
            assert_eq!(parallel.distinct_names(), serial.distinct_names());
            let d = serial.distinct_names() as u32;
            for i in 0..d {
                for j in 0..d {
                    assert_eq!(
                        parallel.sim_by_name_id(i, j).to_bits(),
                        serial.sim_by_name_id(i, j).to_bits(),
                        "cell ({i},{j}) diverged at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimilarityCache>();
    }

    /// Contention regression test for the portfolio solver: many threads
    /// hammering the read path concurrently must observe exactly the values
    /// a single-threaded reader sees — reads are plain loads on an immutable
    /// matrix, with no lock to contend on or corrupt.
    #[test]
    fn concurrent_reads_match_serial_reads() {
        let u = wide_universe();
        let cache = std::sync::Arc::new(SimilarityCache::build(&u, &JaccardNGram::trigram()));
        let d = cache.distinct_names() as u32;
        let expected: Vec<f64> = (0..d)
            .flat_map(|i| (0..d).map(move |j| (i, j)))
            .map(|(i, j)| cache.sim_by_name_id(i, j))
            .collect();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let cache = std::sync::Arc::clone(&cache);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                // Each thread walks the matrix from a different offset so the
                // threads are always reading different cells at once.
                for round in 0..50u32 {
                    for i in 0..d {
                        for j in 0..d {
                            let ii = (i + t + round) % d;
                            let got = cache.sim_by_name_id(ii, j);
                            let want = expected[(ii * d + j) as usize];
                            assert_eq!(got.to_bits(), want.to_bits());
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread panicked");
        }
    }

    /// A measure with NaN, negative and signed-zero values, to check that
    /// the neighbour lists keep exactly the cells above 0.
    struct Erratic;

    impl Similarity for Erratic {
        fn name(&self) -> &str {
            "erratic"
        }

        fn similarity(&self, a: &str, b: &str) -> f64 {
            match (a.len() + b.len()) % 5 {
                0 => f64::NAN,
                1 => -0.5,
                2 => -0.0,
                _ => JaccardNGram::trigram().similarity(a, b),
            }
        }
    }

    #[test]
    fn neighbour_lists_hold_positive_cells_best_first() {
        for measure in [&JaccardNGram::trigram() as &dyn Similarity, &Erratic] {
            let u = wide_universe();
            let cache = SimilarityCache::build(&u, measure);
            let d = cache.distinct_names() as u32;
            for n in 0..d {
                let list = cache.neighbours(n);
                let expected: Vec<u32> = (0..d)
                    .filter(|&m| cache.sim_by_name_id(n, m) > 0.0)
                    .collect();
                let mut sorted = list.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, expected, "name {n} under {}", measure.name());
                assert!(list.contains(&n), "a name is its own neighbour");
                for w in list.windows(2) {
                    let (s0, s1) = (cache.sim_by_name_id(n, w[0]), cache.sim_by_name_id(n, w[1]));
                    assert!(s0 > s1 || (s0 == s1 && w[0] < w[1]), "{n}: {w:?}");
                }
            }
        }
    }

    #[test]
    fn cross_source_scan_equals_the_pairwise_definition() {
        let mut shared = Universe::builder();
        shared.add_source(SourceSpec::new(
            "a",
            Schema::new(["title", "title", "isbn"]),
        ));
        shared.add_source(SourceSpec::new("b", Schema::new(["isbn", "titles"])));
        shared.add_source(SourceSpec::new("c", Schema::new(["zzzzzz", "title"])));
        shared.add_source(SourceSpec::new("d", Schema::new(["qqqq"])));
        let mut single = Universe::builder();
        single.add_source(SourceSpec::new("only", Schema::new(["x", "x copy", "x"])));
        let universes = [
            universe(),
            wide_universe(),
            shared.build().unwrap(),
            single.build().unwrap(),
        ];
        for u in &universes {
            for measure in [&JaccardNGram::trigram() as &dyn Similarity, &Erratic] {
                let cache = SimilarityCache::build(u, measure);
                let fast: Vec<u64> = cache
                    .per_source_best_cross_sim()
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                let slow: Vec<u64> = per_source_best_cross_sim_pairwise(&cache)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(fast, slow, "{} on {} sources", measure.name(), u.len());
            }
        }
    }

    #[test]
    fn cross_source_bound_single_source_is_zero() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("only", Schema::new(["x", "x copy"])));
        let u = b.build().unwrap();
        // Similar attributes *within* one source do not count.
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 0.0);
    }
}
