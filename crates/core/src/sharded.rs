//! Data-parallel sharding — the in-process stand-in for the paper's 5-node
//! cluster deployment (§6.3).
//!
//! The paper splits the 262M-domain corpus into equal chunks, builds an
//! independent LSH Ensemble per node, fans a query out to all nodes, and
//! unions the answers. [`ShardedEnsemble`] reproduces that topology with
//! one shard per thread: the exact same partition → shard → union code
//! path, minus the network.

use crate::api::{
    outcome_from_ids, CommitReport, DomainIndex, MutableIndex, MutationError, ProbeCounts, Query,
    QueryError, QueryMode, SearchOutcome, SegmentStats,
};
use crate::batch::ThresholdItem;
use crate::engine::Candidates;
use crate::ensemble::{EnsembleConfig, LshEnsemble, LshEnsembleBuilder};
use lshe_lsh::DomainId;
use lshe_minhash::Signature;

/// A set of independently built LSH Ensembles queried in parallel.
#[derive(Debug, Clone)]
pub struct ShardedEnsemble {
    shards: Vec<LshEnsemble>,
}

/// Builder assigning staged domains round-robin across `k` shards (the
/// paper's "divided the domains into 5 equal chunks").
#[derive(Debug)]
pub struct ShardedEnsembleBuilder {
    builders: Vec<LshEnsembleBuilder>,
    next: usize,
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
            builders: (0..num_shards)
                .map(|_| LshEnsembleBuilder::new(config))
                .collect(),
            next: 0,
        }
    }

    /// Stages a domain on the next shard (round-robin).
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        self.builders[self.next].add(id, size, signature);
        self.next = (self.next + 1) % self.builders.len();
    }

    /// Total staged domains across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.builders.iter().map(LshEnsembleBuilder::len).sum()
    }

    /// True if nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds every shard concurrently.
    ///
    /// # Panics
    /// Panics if any shard received no domains (add more domains or fewer
    /// shards).
    #[must_use]
    pub fn build(self) -> ShardedEnsemble {
        let shards: Vec<LshEnsemble> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .builders
                .into_iter()
                .map(|b| scope.spawn(move || b.build()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build panicked"))
                .collect()
        });
        ShardedEnsemble { shards }
    }
}

impl ShardedEnsemble {
    /// A builder with `num_shards` shards and the given configuration.
    #[must_use]
    pub fn builder(num_shards: usize, config: EnsembleConfig) -> ShardedEnsembleBuilder {
        ShardedEnsembleBuilder::new(num_shards, config)
    }

    /// Zero-copy bulk load: round-robins the parallel arrays across
    /// `num_shards` shards and builds all shards concurrently, without
    /// cloning any signature (the cluster-scale path).
    ///
    /// # Panics
    /// Panics if `num_shards == 0`, fewer domains than shards are supplied,
    /// or the array lengths differ.
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
            ids.len() >= num_shards,
            "need at least one domain per shard"
        );
        assert!(
            ids.len() == sizes.len() && ids.len() == signatures.len(),
            "parallel arrays must have equal lengths"
        );
        let shards: Vec<LshEnsemble> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_shards)
                .map(|shard| {
                    scope.spawn(move || {
                        let shard_ids: Vec<DomainId> = ids
                            .iter()
                            .skip(shard)
                            .step_by(num_shards)
                            .copied()
                            .collect();
                        let shard_sizes: Vec<u64> = sizes
                            .iter()
                            .skip(shard)
                            .step_by(num_shards)
                            .copied()
                            .collect();
                        let shard_sigs: Vec<&Signature> = signatures
                            .iter()
                            .skip(shard)
                            .step_by(num_shards)
                            .copied()
                            .collect();
                        LshEnsemble::build_from_parts(config, &shard_ids, &shard_sizes, &shard_sigs)
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

    /// True if `id` is indexed on any shard.
    #[must_use]
    pub fn contains(&self, id: DomainId) -> bool {
        self.shards.iter().any(|s| s.contains(id))
    }

    /// Number of staged inserts across all shards.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.shards.iter().map(LshEnsemble::staged_len).sum()
    }

    /// Typed insert, routed by id: new domains land on shard
    /// `id % num_shards`, so routing is deterministic regardless of
    /// arrival order. Immediately queryable via the fan-out path.
    ///
    /// # Errors
    /// [`MutationError::DuplicateId`] if *any* shard holds the id;
    /// [`MutationError::Invalid`] on bad inputs.
    pub fn try_insert(
        &mut self,
        id: DomainId,
        size: u64,
        signature: &Signature,
    ) -> Result<(), MutationError> {
        if self.contains(id) {
            return Err(MutationError::DuplicateId(id));
        }
        let shard = id as usize % self.shards.len();
        self.shards[shard].try_insert(id, size, signature)
    }

    /// Typed removal: the owning shard is located (builder assignment is
    /// round-robin by arrival, so routing by id alone would miss
    /// bulk-built domains) and the id dropped from it.
    ///
    /// # Errors
    /// [`MutationError::UnknownId`] if no shard holds the id.
    pub fn try_remove(&mut self, id: DomainId) -> Result<(), MutationError> {
        let Some(shard) = self.shards.iter().position(|s| s.contains(id)) else {
            return Err(MutationError::UnknownId(id));
        };
        self.shards[shard].try_remove(id)
    }

    /// Seals each shard's staged delta into a per-shard segment.
    pub fn commit(&mut self) -> CommitReport {
        let merged = self.staged_len();
        let mut sealed = false;
        for shard in &mut self.shards {
            sealed |= LshEnsemble::commit(shard);
        }
        // Shards retain no sketches: domains cannot migrate between shards
        // or partitions, so boundary growth stays conservative instead.
        let stats = self.segment_stats();
        CommitReport {
            merged,
            rebalanced: false,
            sealed,
            segments: stats.segments,
            tombstones: stats.tombstones,
        }
    }

    /// Seals and then folds every shard's segment stack back into its
    /// base, erasing tombstones — the O(corpus) step, off the commit path.
    pub fn compact(&mut self) -> CommitReport {
        let merged = self.staged_len();
        let mut sealed = false;
        for shard in &mut self.shards {
            sealed |= LshEnsemble::commit(shard);
            shard.compact();
        }
        CommitReport {
            merged,
            rebalanced: false,
            sealed,
            segments: 0,
            tombstones: 0,
        }
    }

    /// Outstanding segments/tombstones summed over the shards.
    #[must_use]
    pub fn segment_stats(&self) -> SegmentStats {
        let mut out = SegmentStats::default();
        for shard in &self.shards {
            let s = shard.segment_stats();
            out.segments += s.segments;
            out.tombstones += s.tombstones;
        }
        out
    }

    /// The tier layout for merge planning: per-shard stacks are aligned
    /// by position (each commit seals at most one segment on every shard,
    /// so position `i` across shards came from the same commit epoch) and
    /// summed elementwise into one cluster-wide stack.
    #[must_use]
    pub fn segment_layout(&self) -> crate::SegmentLayout {
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

    /// Folds the listed segment positions on every shard (positions past
    /// a shard's own stack are skipped there). Returns total live entries
    /// folded across the shards.
    pub fn merge_segments(&mut self, segment_indices: &[usize]) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.merge_segments(segment_indices))
            .sum()
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
        // Shards hold disjoint id sets (round-robin assignment), so a
        // k-way merge of sorted vectors suffices; ids stay sorted.
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

impl MutableIndex for ShardedEnsemble {
    fn insert(
        &mut self,
        id: DomainId,
        size: u64,
        signature: &Signature,
    ) -> Result<(), MutationError> {
        self.try_insert(id, size, signature)
    }

    fn remove(&mut self, id: DomainId) -> Result<(), MutationError> {
        self.try_remove(id)
    }

    fn commit(&mut self) -> CommitReport {
        ShardedEnsemble::commit(self)
    }

    fn staged_len(&self) -> usize {
        ShardedEnsemble::staged_len(self)
    }

    fn compact(&mut self) -> CommitReport {
        ShardedEnsemble::compact(self)
    }

    fn segment_stats(&self) -> SegmentStats {
        ShardedEnsemble::segment_stats(self)
    }

    fn segment_layout(&self) -> crate::SegmentLayout {
        ShardedEnsemble::segment_layout(self)
    }

    fn apply_merge(&mut self, task: &crate::MergeTask) -> crate::MergeOutcome {
        let entries_folded = match task {
            crate::MergeTask::Merge(idxs) => self.merge_segments(idxs),
            crate::MergeTask::Full => {
                let folded = self.len();
                ShardedEnsemble::compact(self);
                folded
            }
        };
        let stats = self.segment_stats();
        crate::MergeOutcome {
            entries_folded,
            segments: stats.segments,
            tombstones: stats.tombstones,
        }
    }
}

impl DomainIndex for ShardedEnsemble {
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        let num_perm = self.shards[0].config().num_perm;
        query.validate_for(num_perm)?;
        let QueryMode::Threshold(t_star) = query.mode() else {
            return Err(QueryError::Unsupported(
                "top-k needs retained sketches; use ShardedRanked".into(),
            ));
        };
        let started = std::time::Instant::now();
        let (ids, probe) = self.query_counted(query.signature(), query.effective_size(), t_star);
        Ok(outcome_from_ids(ids, probe, started))
    }

    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        let num_perm = self.shards[0].config().num_perm;
        crate::batch::split_and_run(
            queries,
            num_perm,
            |items| {
                self.batch_query_counted(items)
                    .into_iter()
                    .map(|(ids, probe, nanos)| {
                        crate::api::outcome_from_ids_timed(ids, probe, nanos)
                    })
                    .collect()
            },
            |_, _| {
                Err(QueryError::Unsupported(
                    "top-k needs retained sketches; use ShardedRanked".into(),
                ))
            },
        )
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
        sharded.try_insert(100, 55, &sig).expect("insert");
        assert_eq!(sharded.len(), 31);
        assert!(sharded.shards()[100 % 3].contains(100));
        assert!(sharded.query_with_size(&sig, 55, 0.9).contains(&100));
        assert_eq!(
            sharded.try_insert(100, 55, &sig),
            Err(MutationError::DuplicateId(100))
        );

        // Remove finds domains wherever the builder placed them (arrival
        // round-robin, not id % shards): id 7 was the 8th add → shard 1.
        sharded.try_remove(7).expect("remove built domain");
        let (_, size7, sig7, _) = &es[7];
        assert!(!sharded.query_with_size(sig7, *size7, 1.0).contains(&7));
        assert_eq!(sharded.try_remove(7), Err(MutationError::UnknownId(7)));

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
