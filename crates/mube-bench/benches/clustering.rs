//! Micro-benchmarks for Algorithm 1 (greedy constrained similarity
//! clustering): the dominant cost of every objective evaluation.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mube_bench::Setup;
use mube_core::constraints::Constraints;
use mube_core::matchop::MatchOperator;
use mube_core::SourceId;
use std::hint::black_box;

fn bench_match(c: &mut Criterion) {
    let setup = Setup::small(60);
    let mut group = c.benchmark_group("cluster_match");
    for &k in &[5usize, 10, 20, 40] {
        let sources: BTreeSet<SourceId> = setup.universe().source_ids().take(k).collect();
        let constraints = Constraints::with_max_sources(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                setup.matcher.match_sources(
                    setup.universe(),
                    black_box(&sources),
                    black_box(&constraints),
                )
            });
        });
    }
    group.finish();
}

/// The shape `paper_solve` runs: `k` sources of the 700-source paper-scale
/// universe at θ = 0.75.
fn bench_match_paper(c: &mut Criterion) {
    let setup = Setup::paper(700);
    let mut group = c.benchmark_group("cluster_match_paper");
    for &k in &[10usize, 20, 40] {
        let sources: BTreeSet<SourceId> = setup.universe().source_ids().take(k).collect();
        let constraints = Constraints::with_max_sources(k).theta(0.75);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                setup.matcher.match_sources(
                    setup.universe(),
                    black_box(&sources),
                    black_box(&constraints),
                )
            });
        });
    }
    group.finish();
}

fn bench_match_with_ga_constraints(c: &mut Criterion) {
    let setup = Setup::small(60);
    let sources: BTreeSet<SourceId> = setup.universe().source_ids().take(20).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let pool: Vec<SourceId> = sources.iter().copied().collect();
    let mut constraints = Constraints::with_max_sources(20);
    for concept in 0..2 {
        if let Some(ga) = setup.synth.ground_truth.make_ga_constraint(
            setup.universe(),
            &pool,
            concept,
            5,
            &mut rng,
        ) {
            constraints.required_gas.push(ga);
        }
    }
    c.bench_function("cluster_match_seeded", |b| {
        b.iter(|| {
            setup.matcher.match_sources(
                setup.universe(),
                black_box(&sources),
                black_box(&constraints),
            )
        });
    });
}

fn bench_similarity_cache_build(c: &mut Criterion) {
    use mube_match::similarity::JaccardNGram;
    use mube_match::SimilarityCache;
    let setup = Setup::small(60);
    c.bench_function("similarity_cache_build", |b| {
        b.iter(|| SimilarityCache::build(black_box(setup.universe()), &JaccardNGram::trigram()));
    });
}

criterion_group!(
    benches,
    bench_match,
    bench_match_paper,
    bench_match_with_ga_constraints,
    bench_similarity_cache_build
);
criterion_main!(benches);
