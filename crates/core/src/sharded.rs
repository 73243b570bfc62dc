//! Data-parallel sharding — the in-process stand-in for the paper's 5-node
//! cluster deployment (§6.3).
//!
//! The paper splits the 262M-domain corpus into equal chunks, builds an
//! independent LSH Ensemble per node, fans a query out to all nodes, and
//! unions the answers. [`ShardedEnsemble`] reproduces that topology with
//! one shard per thread: the exact same partition → shard → union code
//! path, minus the network.
//!
//! Every layer places a domain by one rule, [`shard_of`]: the builders,
//! live inserts and removes, every rebuild, `lshe split` and the cluster
//! coordinator. So an in-process shard and a split-out shard file hold
//! the same domains after any mutation history, not just on fresh builds.

use crate::api::{
    CommitReport, DomainIndex, MutableIndex, MutationError, ProbeCounts, Query, QueryError,
    SearchOutcome, SegmentStats,
};
use crate::batch::ThresholdItem;
use crate::engine::{CandidateIndex, Candidates};
use crate::ensemble::{EnsembleConfig, LshEnsemble, LshEnsembleBuilder, PartitionStats};
use lshe_lsh::DomainId;
use lshe_minhash::Signature;

/// The shard that owns domain `id` in a `num_shards`-way topology.
///
/// # Panics
/// Panics if `num_shards == 0`.
#[must_use]
pub fn shard_of(id: DomainId, num_shards: usize) -> usize {
    assert!(num_shards > 0, "need at least one shard");
    id as usize % num_shards
}

/// One shard's domains as parallel arrays: ids, sizes and borrowed
/// signatures.
pub type ShardParts<'a> = (Vec<DomainId>, Vec<u64>, Vec<&'a Signature>);

/// Routes `(id, size, signature)` entries to shard `place(id, num_shards)`,
/// keeping their order within each shard — the one routing loop behind
/// every sharded build and every split.
///
/// # Errors
/// The first id `place` routes past the last shard.
pub fn route<'a>(
    entries: impl IntoIterator<Item = (DomainId, u64, &'a Signature)>,
    num_shards: usize,
    place: impl Fn(DomainId, usize) -> usize,
) -> Result<Vec<ShardParts<'a>>, DomainId> {
    let mut parts: Vec<ShardParts<'a>> = (0..num_shards).map(|_| Default::default()).collect();
    for (id, size, sig) in entries {
        let part = parts.get_mut(place(id, num_shards)).ok_or(id)?;
        part.0.push(id);
        part.1.push(size);
        part.2.push(sig);
    }
    Ok(parts)
}

/// A set of independently built LSH Ensembles queried in parallel.
#[derive(Debug, Clone)]
pub struct ShardedEnsemble {
    shards: Vec<LshEnsemble>,
}

/// Builder placing staged domains on `k` shards by [`shard_of`] — for
/// dense ids, the paper's "divided the domains into 5 equal chunks".
#[derive(Debug)]
pub struct ShardedEnsembleBuilder {
    num_shards: usize,
    staged: LshEnsembleBuilder,
}

impl ShardedEnsembleBuilder {
    /// Creates a builder with `num_shards` shards sharing one configuration.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the configuration is invalid.
    #[must_use]
    pub fn new(num_shards: usize, config: EnsembleConfig) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            num_shards,
            staged: LshEnsembleBuilder::new(config),
        }
    }

    /// Stages a domain; [`build`](Self::build) places it on the shard that
    /// owns its id.
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        self.staged.add(id, size, signature);
    }

    /// Total staged domains across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True if nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds every shard concurrently, as
    /// [`ShardedEnsemble::build_from_parts`].
    #[must_use]
    pub fn build(self) -> ShardedEnsemble {
        let num_shards = self.num_shards;
        self.staged.build_with(|config, ids, sizes, sigs| {
            ShardedEnsemble::build_from_parts(num_shards, config, ids, sizes, sigs)
        })
    }
}

impl ShardedEnsemble {
    /// A builder with `num_shards` shards and the given configuration.
    #[must_use]
    pub fn builder(num_shards: usize, config: EnsembleConfig) -> ShardedEnsembleBuilder {
        ShardedEnsembleBuilder::new(num_shards, config)
    }

    /// Zero-copy bulk load: places the parallel arrays on `num_shards`
    /// shards by [`shard_of`] (keeping their order within each shard) and
    /// builds all shards concurrently, without cloning any signature (the
    /// cluster-scale path). A shard that owns no domain starts empty, with
    /// no partitions, and fills from inserts like any other.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the array lengths differ.
    #[must_use]
    pub fn build_from_parts(
        num_shards: usize,
        config: EnsembleConfig,
        ids: &[DomainId],
        sizes: &[u64],
        signatures: &[&Signature],
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            ids.len() == sizes.len() && ids.len() == signatures.len(),
            "parallel arrays must have equal lengths"
        );
        let entries = ids
            .iter()
            .zip(sizes)
            .zip(signatures)
            .map(|((&id, &size), &sig)| (id, size, sig));
        let parts = route(entries, num_shards, shard_of).expect("shard_of stays in range");
        let shards: Vec<LshEnsemble> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|(ids, sizes, sigs)| {
                    scope.spawn(move || {
                        if ids.is_empty() {
                            LshEnsemble::empty(config)
                        } else {
                            LshEnsemble::build_from_parts(config, ids, sizes, sigs)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build panicked"))
                .collect()
        });
        Self { shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(LshEnsemble::len).sum()
    }

    /// True if nothing is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shards (for inspection).
    #[must_use]
    pub fn shards(&self) -> &[LshEnsemble] {
        &self.shards
    }

    /// Fans the query out to every shard in parallel and unions the
    /// answers — `Partitioned-Containment-Search` at cluster granularity.
    ///
    /// # Panics
    /// Propagates the per-shard query panics (invalid size/threshold).
    #[must_use]
    pub fn query_with_size(
        &self,
        signature: &Signature,
        query_size: u64,
        t_star: f64,
    ) -> Vec<DomainId> {
        self.query_counted(signature, query_size, t_star).0
    }

    /// Approximate heap memory across all shards, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(LshEnsemble::memory_bytes).sum()
    }

    /// True if `id` is indexed (on the shard that owns it).
    #[must_use]
    pub fn contains(&self, id: DomainId) -> bool {
        self.shards[shard_of(id, self.shards.len())].contains(id)
    }

    /// The shard that owns `id`, for mutation.
    fn owner_mut(&mut self, id: DomainId) -> &mut LshEnsemble {
        let shard = shard_of(id, self.shards.len());
        &mut self.shards[shard]
    }

    /// Runs one commit-shaped step on every shard and sums the reports.
    fn each_shard(&mut self, step: fn(&mut LshEnsemble) -> CommitReport) -> CommitReport {
        self.shards
            .iter_mut()
            .map(step)
            .fold(CommitReport::default(), |sum, r| CommitReport {
                merged: sum.merged + r.merged,
                rebalanced: false,
                sealed: sum.sealed || r.sealed,
                segments: sum.segments + r.segments,
                tombstones: sum.tombstones + r.tombstones,
            })
    }

    /// Instrumented fan-out query: sorted-unique ids plus probe counters
    /// summed across shards (each shard's query is already parallel over
    /// one thread here, matching the paper's one-ensemble-per-node model).
    pub(crate) fn query_counted(
        &self,
        signature: &Signature,
        query_size: u64,
        t_star: f64,
    ) -> (Vec<DomainId>, ProbeCounts) {
        let results: Vec<(Vec<DomainId>, ProbeCounts)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    scope.spawn(move || shard.sweep().query(signature, query_size, t_star, false))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard query panicked"))
                .collect()
        });
        let mut probe = ProbeCounts::default();
        let results: Vec<Vec<DomainId>> = results
            .into_iter()
            .map(|(ids, p)| {
                probe.probed += p.probed;
                probe.total += p.total;
                probe.candidates += p.candidates;
                ids
            })
            .collect();
        // Shards hold disjoint id sets (one owner per id), so a k-way
        // merge of sorted vectors suffices; ids stay sorted.
        (crate::batch::merge_sorted_disjoint(results), probe)
    }

    /// Batched instrumented fan-out: the shard threads are spawned ONCE
    /// for the whole batch — drawn from the process-wide
    /// [`lshe_minhash::lanes`] budget, so concurrent batches degrade to
    /// fewer lanes (down to a sequential shard loop on the calling
    /// thread) instead of multiplying `callers × shards` threads. Each
    /// shard sweeps every query partition-outer with its own scratch, and
    /// the per-shard answers are merged per query. Identical per-query
    /// results to looping [`query_counted`](Self::query_counted) — the
    /// fan-out cost is simply paid once per batch instead of once per
    /// query.
    pub(crate) fn batch_query_counted(
        &self,
        items: &[ThresholdItem<'_>],
    ) -> Vec<(Vec<DomainId>, ProbeCounts, u64)> {
        let sweep = |shard: &LshEnsemble| {
            shard
                .sweep()
                .batch_chunk(items, &|_, ids, probe, nanos| (ids, probe, nanos))
        };
        let guard = lshe_minhash::lanes::acquire(self.shards.len().saturating_sub(1));
        let lanes = guard.lanes().min(self.shards.len());
        // Shard order must be preserved for the per-query merge; lanes
        // each take a contiguous run of shards (the calling thread works
        // the first run itself).
        let per_shard: Vec<Vec<(Vec<DomainId>, ProbeCounts, u64)>> = if lanes <= 1 {
            self.shards.iter().map(&sweep).collect()
        } else {
            let group = self.shards.len().div_ceil(lanes);
            let mut shard_groups = self.shards.chunks(group);
            let first = shard_groups.next().unwrap_or(&[]);
            let (first_out, rest): (Vec<_>, Vec<Vec<_>>) = std::thread::scope(|scope| {
                let handles: Vec<_> = shard_groups
                    .map(|shards| scope.spawn(|| shards.iter().map(&sweep).collect::<Vec<_>>()))
                    .collect();
                let first_out: Vec<_> = first.iter().map(sweep).collect();
                (
                    first_out,
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard batch panicked"))
                        .collect(),
                )
            });
            first_out
                .into_iter()
                .chain(rest.into_iter().flatten())
                .collect()
        };
        let mut columns: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
        (0..items.len())
            .map(|_| {
                let mut probe = ProbeCounts::default();
                let mut nanos = 0u64;
                let mut runs = Vec::with_capacity(columns.len());
                for column in &mut columns {
                    let (ids, p, n) = column.next().expect("each shard answers each query");
                    probe.probed += p.probed;
                    probe.total += p.total;
                    probe.candidates += p.candidates;
                    nanos += n;
                    runs.push(ids);
                }
                (crate::batch::merge_sorted_disjoint(runs), probe, nanos)
            })
            .collect()
    }
}

/// The shards as one candidate source: every query fans out across the
/// shards, so the `parallel` hint has nothing left to add.
impl Candidates for &ShardedEnsemble {
    fn num_perm(&self) -> usize {
        self.shards[0].config().num_perm
    }

    fn query(
        &self,
        signature: &Signature,
        q: u64,
        t_star: f64,
        _parallel: bool,
    ) -> (Vec<DomainId>, ProbeCounts) {
        self.query_counted(signature, q, t_star)
    }

    fn batch_map<R: Send>(
        &self,
        items: &[ThresholdItem<'_>],
        post: impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R + Sync,
    ) -> Vec<R> {
        items
            .iter()
            .zip(self.batch_query_counted(items))
            .map(|(item, (ids, probe, nanos))| post(item, ids, probe, nanos))
            .collect()
    }
}

impl CandidateIndex for ShardedEnsemble {
    type Source<'a> = &'a ShardedEnsemble;

    fn candidates(&self) -> &ShardedEnsemble {
        self
    }

    fn base_partition_stats(&self) -> Vec<PartitionStats> {
        self.shards
            .iter()
            .flat_map(LshEnsemble::base_partition_stats)
            .collect()
    }

    fn rebuild(&self, ids: &[DomainId], sizes: &[u64], signatures: &[&Signature]) -> Self {
        let config = *self.shards[0].config();
        Self::build_from_parts(self.shards.len(), config, ids, sizes, signatures)
    }
}

/// Every mutation goes to the shard that owns the id ([`shard_of`]), so
/// duplicate and unknown ids are detected there; commit-shaped steps run
/// on every shard and sum. Shards retain no sketches: domains never
/// migrate between shards or partitions, so boundary growth stays
/// conservative instead of rebalancing.
impl MutableIndex for ShardedEnsemble {
    fn insert(
        &mut self,
        id: DomainId,
        size: u64,
        signature: &Signature,
    ) -> Result<(), MutationError> {
        MutableIndex::insert(self.owner_mut(id), id, size, signature)
    }

    fn remove(&mut self, id: DomainId) -> Result<(), MutationError> {
        self.owner_mut(id).remove(id)
    }

    fn commit(&mut self) -> CommitReport {
        self.each_shard(MutableIndex::commit)
    }

    fn staged_len(&self) -> usize {
        self.shards.iter().map(MutableIndex::staged_len).sum()
    }

    fn compact(&mut self) -> CommitReport {
        self.each_shard(MutableIndex::compact)
    }

    fn segment_stats(&self) -> SegmentStats {
        self.shards.iter().map(MutableIndex::segment_stats).fold(
            SegmentStats::default(),
            |sum, s| SegmentStats {
                segments: sum.segments + s.segments,
                tombstones: sum.tombstones + s.tombstones,
            },
        )
    }

    /// The tier layout for merge planning: per-shard stacks are aligned
    /// by position (each commit seals at most one segment on every shard,
    /// so position `i` across shards came from the same commit epoch) and
    /// summed elementwise into one cluster-wide stack.
    fn segment_layout(&self) -> crate::SegmentLayout {
        let mut segments: Vec<usize> = Vec::new();
        let mut tombstones = 0;
        for shard in &self.shards {
            let layout = shard.segment_layout();
            if segments.len() < layout.segments.len() {
                segments.resize(layout.segments.len(), 0);
            }
            for (slot, entries) in segments.iter_mut().zip(&layout.segments) {
                *slot += entries;
            }
            tombstones += layout.tombstones;
        }
        crate::SegmentLayout {
            segments,
            tombstones,
            len: self.len(),
        }
    }

    /// Runs the task on every shard (segment positions past a shard's own
    /// stack are skipped there) and sums the outcomes.
    fn apply_merge(&mut self, task: &crate::MergeTask) -> crate::MergeOutcome {
        self.shards
            .iter_mut()
            .map(|shard| shard.apply_merge(task))
            .fold(crate::MergeOutcome::default(), |sum, o| {
                crate::MergeOutcome {
                    entries_folded: sum.entries_folded + o.entries_folded,
                    segments: sum.segments + o.segments,
                    tombstones: sum.tombstones + o.tombstones,
                }
            })
    }
}

impl DomainIndex for ShardedEnsemble {
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        crate::engine::search_unranked(&self, query)
    }

    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        crate::engine::search_batch_unranked(&self, queries)
    }

    fn len(&self) -> usize {
        ShardedEnsemble::len(self)
    }

    fn memory_bytes(&self) -> usize {
        ShardedEnsemble::memory_bytes(self)
    }

    fn describe(&self) -> String {
        format!("Sharded LSH Ensemble ({} shards)", self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use lshe_minhash::MinHasher;

    #[test]
    fn sparse_ids_are_placed_by_id_not_position() {
        let (_, es) = entries(12);
        // Ids 0..12 without 1, 4, 7, 10: positional round-robin would
        // drift from the modulus after the first gap.
        let kept: Vec<_> = es.iter().filter(|e| e.0 % 3 != 1).collect();
        let ids: Vec<DomainId> = kept.iter().map(|e| e.0).collect();
        let sizes: Vec<u64> = kept.iter().map(|e| e.1).collect();
        let sigs: Vec<&Signature> = kept.iter().map(|e| &e.2).collect();
        let sharded = ShardedEnsemble::build_from_parts(2, config(), &ids, &sizes, &sigs);
        for (s, shard) in sharded.shards().iter().enumerate() {
            assert!(ids
                .iter()
                .all(|&id| shard.contains(id) == (shard_of(id, 2) == s)));
        }
        // Three shards: every id ≡ 1 (mod 3) is gone, so shard 1 starts
        // empty; the other shards still answer, and shard 1 takes inserts.
        let mut sharded = ShardedEnsemble::build_from_parts(3, config(), &ids, &sizes, &sigs);
        assert!(sharded.shards()[1].is_empty());
        assert_eq!(sharded.len(), ids.len());
        for e in &kept {
            assert!(sharded.query_with_size(&e.2, e.1, 1.0).contains(&e.0));
        }
        let (_, size, sig, _) = &es[4];
        sharded
            .insert(4, *size, sig)
            .expect("insert into the empty shard");
        for _ in 0..2 {
            assert!(sharded.query_with_size(sig, *size, 1.0).contains(&4));
            sharded.compact();
        }
        assert_eq!(sharded.shards()[1].len(), 1);
    }

    #[allow(clippy::type_complexity)]
    fn entries(n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature, Vec<u64>)>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(3, 10 * n);
        let out = (0..n)
            .map(|k| {
                let vals: Vec<u64> = pool[..10 * (k + 1)].to_vec();
                let sig = h.signature(vals.iter().copied());
                (k as DomainId, vals.len() as u64, sig, vals)
            })
            .collect();
        (h, out)
    }

    fn config() -> EnsembleConfig {
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (_, es) = entries(60);
        let mut sharded = ShardedEnsemble::builder(5, config());
        let mut single = crate::ensemble::LshEnsemble::builder_with(config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
            single.add(*id, *size, sig.clone());
        }
        let sharded = sharded.build();
        let single = single.build();
        assert_eq!(sharded.num_shards(), 5);
        assert_eq!(sharded.len(), single.len());
        for k in [0usize, 15, 42, 59] {
            let (_, size, sig, _) = &es[k];
            for t in [0.3, 0.8, 1.0] {
                let a = sharded.query_with_size(sig, *size, t);
                let b = single.query_with_size(sig, *size, t);
                // Same algorithm, but shard-local partitioning differs from
                // global partitioning, so upper bounds — and therefore
                // tuning — can differ slightly. Exact matches must always
                // be found by both; and both candidate sets must contain
                // the query's own id.
                assert!(a.contains(&(k as DomainId)), "sharded missed self at t={t}");
                assert!(b.contains(&(k as DomainId)), "single missed self at t={t}");
            }
        }
    }

    #[test]
    fn merge_produces_sorted_unique_ids() {
        let (_, es) = entries(40);
        let mut sharded = ShardedEnsemble::builder(3, config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
        }
        let sharded = sharded.build();
        let (_, size, sig, _) = &es[10];
        let got = sharded.query_with_size(sig, *size, 0.5);
        for w in got.windows(2) {
            assert!(w[0] < w[1], "not sorted/unique: {got:?}");
        }
    }

    #[test]
    fn round_robin_balances_shards() {
        let (_, es) = entries(50);
        let mut sharded = ShardedEnsemble::builder(5, config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
        }
        let built = sharded.build();
        for s in built.shards() {
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEnsemble::builder(0, config());
    }

    #[test]
    fn mutations_route_by_id_and_stay_queryable() {
        let (h, es) = entries(30);
        let mut sharded = ShardedEnsemble::builder(3, config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
        }
        let mut sharded = sharded.build();

        // Insert routes to id % num_shards.
        let vals = MinHasher::synthetic_values(999, 55);
        let sig = h.signature(vals.iter().copied());
        sharded.insert(100, 55, &sig).expect("insert");
        assert_eq!(sharded.len(), 31);
        assert!(sharded.shards()[100 % 3].contains(100));
        assert!(sharded.query_with_size(&sig, 55, 0.9).contains(&100));
        assert_eq!(
            sharded.insert(100, 55, &sig),
            Err(MutationError::DuplicateId(100))
        );

        // The builder placed every domain by the same rule, so removal
        // asks only the owning shard: id 7 lives on shard 7 % 3 = 1.
        assert!(sharded.shards()[1].contains(7));
        sharded.remove(7).expect("remove built domain");
        let (_, size7, sig7, _) = &es[7];
        assert!(!sharded.query_with_size(sig7, *size7, 1.0).contains(&7));
        assert_eq!(sharded.remove(7), Err(MutationError::UnknownId(7)));

        // Commit folds the staged insert; everything stays answerable.
        assert_eq!(sharded.staged_len(), 1);
        let report = sharded.commit();
        assert_eq!(report.merged, 1);
        assert!(!report.rebalanced);
        assert_eq!(sharded.staged_len(), 0);
        assert!(sharded.query_with_size(&sig, 55, 0.9).contains(&100));
        let (_, size8, sig8, _) = &es[8];
        assert!(sharded.query_with_size(sig8, *size8, 1.0).contains(&8));
    }
}
