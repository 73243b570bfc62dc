//! Microbench: batched query execution (`DomainIndex::search_batch`)
//! versus the looped single-query default, at batch size 64 — the first
//! perf trajectory for the batch fast path (`BENCH_batch.json`).
//!
//! Per backend two cases run over the SAME 64 prepared queries:
//!
//! * `looped`  — `queries.iter().map(|q| index.search(q))`, i.e. what the
//!   default trait impl does: per-query scratch, per-query shard fan-out;
//! * `batched` — one `index.search_batch(&queries)` call: partitions
//!   probed partition-outer while hot, dedup scratch reused, and the
//!   shard/lane threads spawned once per batch.
//!
//! The sharded backends are where the amortization bites hardest: the
//! looped path pays `shards` thread spawns per query, the batched path
//! pays them once per batch.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lshe_bench::workload;
use lshe_core::{
    DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, RankedIndex,
    ShardedEnsemble, ShardedRanked,
};
use lshe_minhash::MinHasher;
use std::sync::Arc;

const DOMAINS: usize = 20_000;
const BATCH: usize = 64;
const SHARDS: usize = 4;

fn config(parts: usize) -> EnsembleConfig {
    EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: parts },
        ..EnsembleConfig::default()
    }
}

/// The 64-query workload: distinct query domains spread across the
/// corpus, thresholds cycling over the paper's useful range.
fn batch_queries(corpus: &workload::PerfCorpus) -> Vec<Query<'_>> {
    (0..BATCH)
        .map(|j| {
            let q = (j * 313) % corpus.sizes.len();
            let t = 0.5 + 0.1 * (j % 5) as f64;
            Query::threshold(&corpus.signatures[q], t).with_size(corpus.sizes[q])
        })
        .collect()
}

fn bench_pair(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    index: &dyn DomainIndex,
    queries: &[Query<'_>],
) {
    group.bench_function(format!("{name}/looped"), |b| {
        b.iter(|| {
            let results: Vec<_> = queries.iter().map(|q| index.search(q)).collect();
            assert_eq!(results.len(), BATCH);
            results
        })
    });
    group.bench_function(format!("{name}/batched"), |b| {
        b.iter(|| {
            let results = index.search_batch(queries);
            assert_eq!(results.len(), BATCH);
            results
        })
    });
}

fn batch_throughput(c: &mut Criterion) {
    let hasher = MinHasher::new(256);
    let corpus = workload::build_perf_corpus(DOMAINS, 11, &hasher);
    let ids: Vec<u32> = (0..corpus.sizes.len() as u32).collect();
    let sig_refs: Vec<&lshe_minhash::Signature> = corpus.signatures.iter().collect();
    let queries = batch_queries(&corpus);

    let mut group = c.benchmark_group("batch_throughput");
    group.throughput(Throughput::Elements(BATCH as u64));

    let ensemble = LshEnsemble::build_from_parts(config(32), &ids, &corpus.sizes, &sig_refs);
    bench_pair(&mut group, "ensemble32", &ensemble, &queries);
    drop(ensemble);

    let mut ranked_builder = RankedIndex::builder_with(config(32));
    for (i, sig) in corpus.signatures.iter().enumerate() {
        ranked_builder.add(i as u32, corpus.sizes[i], sig.clone());
    }
    let ranked = Arc::new(ranked_builder.build());
    bench_pair(&mut group, "ranked32", ranked.as_ref(), &queries);

    let sharded =
        ShardedEnsemble::build_from_parts(SHARDS, config(8), &ids, &corpus.sizes, &sig_refs);
    bench_pair(&mut group, "sharded4", &sharded, &queries);
    drop(sharded);

    let sharded_ranked = ShardedRanked::build(&ranked, SHARDS, config(8));
    bench_pair(&mut group, "sharded_ranked4", &sharded_ranked, &queries);

    group.finish();
}

criterion_group!(benches, batch_throughput);
criterion_main!(benches);
