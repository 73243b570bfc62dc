//! Ranked and top-k containment search.
//!
//! §2 of the paper notes that the threshold and top-k formulations of
//! domain search are "closely related and complementary": thresholds suit
//! join discovery, but exploratory users often want *the k best domains*
//! regardless of score. [`RankedIndex`] layers both over a candidate
//! index by retaining each domain's signature and cardinality, which lets
//! it
//!
//! * rank candidates by their **estimated containment**
//!   (`t̂ = (x/q + 1)·ŝ/(1 + ŝ)`, Eq. 6) instead of returning an unordered
//!   candidate set, and
//! * answer top-k queries by descending through thresholds until enough
//!   candidates accumulate — reusing the tuned threshold machinery instead
//!   of scanning the corpus.
//!
//! The wrapper is written once and wraps either candidate index: one
//! [`LshEnsemble`], or the shards of the paper's §6.3 deployment
//! ([`ShardedRanked`] is `RankedIndex<ShardedEnsemble>`). Both share the
//! commit, compaction, rebalance and merge logic below, and a sharded view
//! shares its source index's sketches without copying them.
//!
//! The cost is one retained signature per domain (`8·m` bytes); use the
//! plain [`LshEnsemble`] when memory is tighter than ranking is valuable.

use crate::api::{
    CommitReport, DomainIndex, MutableIndex, MutationError, Query, QueryError, SearchOutcome,
    SegmentStats, DEFAULT_REBALANCE_TRIGGER,
};
use crate::engine::{CandidateIndex, Ranked, Sketches};
use crate::ensemble::{EnsembleConfig, LshEnsemble, LshEnsembleBuilder, PartitionStats};
use crate::sharded::ShardedEnsemble;
use lshe_lsh::DomainId;
use lshe_minhash::hash::FastHashMap;
use lshe_minhash::Signature;
use std::sync::Arc;

/// id → (cardinality, signature), retained for estimation.
type SketchMap = FastHashMap<DomainId, (u64, Signature)>;

/// A containment-search index that can rank its answers: a candidate
/// index (one [`LshEnsemble`] by default) plus every domain's retained
/// sketch.
#[derive(Debug, Clone)]
pub struct RankedIndex<I = LshEnsemble> {
    inner: I,
    /// Shared copy-on-write: a sharded view of this index and the index
    /// itself hold the same map until one of them mutates.
    sketches: Arc<SketchMap>,
    /// Equi-depth skew multiple past which a commit rebuilds the
    /// partitioning from the retained sketches.
    rebalance_trigger: f64,
}

/// The paper's §6.3 fan-out/union topology *with* containment estimates
/// and top-k: a [`RankedIndex`] over a [`ShardedEnsemble`], the backend
/// the server uses for `--shards N`.
pub type ShardedRanked = RankedIndex<ShardedEnsemble>;

/// True when the fullest partition holds more than `trigger` times the
/// mean partition population — the §6.2 drift point where a rebuild pays.
fn skew_exceeds(stats: &[PartitionStats], len: usize, trigger: f64) -> bool {
    if len == 0 || stats.is_empty() {
        return false;
    }
    let max = stats.iter().map(|p| p.count).max().unwrap_or(0);
    (max * stats.len()) as f64 > trigger * len as f64
}

/// Every retained sketch as `(id, size, signature)`, sorted by id.
fn sorted_entries(sketches: &SketchMap) -> Vec<(DomainId, u64, &Signature)> {
    let mut entries: Vec<(DomainId, u64, &Signature)> = sketches
        .iter()
        .map(|(&id, (size, sig))| (id, *size, sig))
        .collect();
    entries.sort_unstable_by_key(|&(id, _, _)| id);
    entries
}

/// [`sorted_entries`] as the parallel arrays every `build_from_parts`
/// takes, so rebuilds are deterministic.
fn sorted_parts(sketches: &SketchMap) -> (Vec<DomainId>, Vec<u64>, Vec<&Signature>) {
    let entries = sorted_entries(sketches);
    (
        entries.iter().map(|e| e.0).collect(),
        entries.iter().map(|e| e.1).collect(),
        entries.iter().map(|e| e.2).collect(),
    )
}

/// Builder for [`RankedIndex`].
#[derive(Debug)]
pub struct RankedIndexBuilder {
    inner: LshEnsembleBuilder,
    sketches: SketchMap,
}

impl RankedIndexBuilder {
    /// Creates a builder with the given ensemble configuration.
    #[must_use]
    pub fn new(config: EnsembleConfig) -> Self {
        Self {
            inner: LshEnsembleBuilder::new(config),
            sketches: FastHashMap::default(),
        }
    }

    /// Stages a domain.
    ///
    /// # Panics
    /// Panics on zero size, width mismatch, or a duplicate id (ranking
    /// requires ids to be unique).
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        let prev = self.sketches.insert(id, (size, signature.clone()));
        assert!(prev.is_none(), "duplicate domain id {id}");
        self.inner.add(id, size, signature);
    }

    /// Number of staged domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True if nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Builds the index.
    ///
    /// # Panics
    /// Panics if the builder is empty.
    #[must_use]
    pub fn build(self) -> RankedIndex {
        RankedIndex {
            inner: self.inner.build(),
            sketches: Arc::new(self.sketches),
            rebalance_trigger: DEFAULT_REBALANCE_TRIGGER,
        }
    }
}

/// One ranked answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedHit {
    /// The candidate domain.
    pub id: DomainId,
    /// Estimated containment `t̂(Q, X)` from the retained sketches.
    pub estimated_containment: f64,
}

impl RankedIndex {
    /// A builder with the default configuration.
    #[must_use]
    pub fn builder() -> RankedIndexBuilder {
        RankedIndexBuilder::new(EnsembleConfig::default())
    }

    /// A builder with an explicit configuration.
    #[must_use]
    pub fn builder_with(config: EnsembleConfig) -> RankedIndexBuilder {
        RankedIndexBuilder::new(config)
    }

    /// Reassembles a ranked index from an already-built ensemble and its
    /// retained sketches — the persistence path, which avoids rebuilding
    /// every partition forest from scratch on load.
    ///
    /// # Panics
    /// Panics if the sketch count differs from the ensemble's length or an
    /// id repeats.
    #[must_use]
    pub fn from_ensemble(
        ensemble: LshEnsemble,
        sketches: impl IntoIterator<Item = (DomainId, u64, Signature)>,
    ) -> Self {
        let mut map = SketchMap::default();
        for (id, size, sig) in sketches {
            assert!(size > 0, "domain size must be positive");
            let prev = map.insert(id, (size, sig));
            assert!(prev.is_none(), "duplicate domain id {id}");
        }
        assert_eq!(
            map.len(),
            ensemble.len(),
            "sketch count disagrees with ensemble"
        );
        Self {
            inner: ensemble,
            sketches: Arc::new(map),
            rebalance_trigger: DEFAULT_REBALANCE_TRIGGER,
        }
    }
}

impl ShardedRanked {
    /// Fans a ranked index's domains out across `num_shards` freshly built
    /// shards, each placed by [`shard_of`](crate::shard_of). The sketches
    /// are shared with `ranked`, not copied; the shards borrow them while
    /// they build. A shard whose residue class holds no live id starts
    /// empty.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    #[must_use]
    pub fn build(ranked: &RankedIndex, num_shards: usize, config: EnsembleConfig) -> Self {
        let (ids, sizes, sigs) = sorted_parts(&ranked.sketches);
        Self {
            inner: ShardedEnsemble::build_from_parts(num_shards, config, &ids, &sizes, &sigs),
            sketches: Arc::clone(&ranked.sketches),
            rebalance_trigger: DEFAULT_REBALANCE_TRIGGER,
        }
    }
}

impl<I> RankedIndex<I> {
    /// Number of indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True if nothing is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// The wrapped candidate index (for stats and unranked queries).
    #[must_use]
    pub fn ensemble(&self) -> &I {
        &self.inner
    }

    /// True if `id` is currently indexed.
    #[must_use]
    pub fn contains(&self, id: DomainId) -> bool {
        self.sketches.contains_key(&id)
    }

    /// The retained (cardinality, signature) sketch of a domain, if indexed.
    #[must_use]
    pub fn sketch(&self, id: DomainId) -> Option<(u64, &Signature)> {
        self.sketches.get(&id).map(|(size, sig)| (*size, sig))
    }

    /// Every retained sketch as `(id, size, signature)`, sorted by id —
    /// the deterministic bulk view packing and splitting use.
    #[must_use]
    pub fn sketch_entries(&self) -> Vec<(DomainId, u64, &Signature)> {
        sorted_entries(&self.sketches)
    }

    /// Approximate heap memory of the retained sketches alone, in bytes.
    #[must_use]
    pub fn sketch_memory_bytes(&self) -> usize {
        self.sketches
            .values()
            .map(|(_, sig)| sig.len() * 8 + 32)
            .sum()
    }

    /// The configured equi-depth rebalance trigger (see
    /// [`set_rebalance_trigger`](Self::set_rebalance_trigger)).
    #[must_use]
    pub fn rebalance_trigger(&self) -> f64 {
        self.rebalance_trigger
    }

    /// Sets the skew multiple past which a commit rebuilds the equi-depth
    /// partitioning (and, sharded, the shards) from the retained sketches.
    /// Values ≤ 1.0 rebalance on every commit that follows a mutation; the
    /// default is [`DEFAULT_REBALANCE_TRIGGER`].
    pub fn set_rebalance_trigger(&mut self, trigger: f64) {
        self.rebalance_trigger = trigger;
    }
}

/// Replaces the candidate index with a fresh build from the retained
/// sketches, restoring the exact freshly-built layout and dropping every
/// segment and tombstone. Returns `false` (doing nothing) when the index
/// is empty — there is nothing to build from.
fn rebuild_from_sketches<I: CandidateIndex>(index: &mut RankedIndex<I>) -> bool {
    if index.sketches.is_empty() {
        return false;
    }
    let (ids, sizes, sigs) = sorted_parts(&index.sketches);
    index.inner = index.inner.rebuild(&ids, &sizes, &sigs);
    true
}

/// The query engine over an index: the candidate index's sweep, ranked
/// from the retained sketches.
fn engine<I: CandidateIndex>(index: &RankedIndex<I>) -> Ranked<'_, I::Source<'_>> {
    Ranked {
        candidates: index.inner.candidates(),
        sketches: Sketches::Heap(&index.sketches),
    }
}

impl RankedIndex {
    /// Threshold search with ranked output: candidates at `t_star`, sorted
    /// by estimated containment (descending), with candidates whose
    /// *estimate* falls below `t_star − slack` pruned. A small slack keeps
    /// borderline true positives (estimates are noisy at ±1/√m).
    ///
    /// # Panics
    /// As [`LshEnsemble::query_with_size`].
    #[must_use]
    pub fn query_ranked(
        &self,
        signature: &Signature,
        query_size: u64,
        t_star: f64,
        slack: f64,
    ) -> Vec<RankedHit> {
        engine(self)
            .threshold(signature, query_size, t_star, slack, false)
            .0
    }

    /// Top-k search: descends through containment thresholds
    /// (1.0, 0.9, …, 0.1, 0.0) until at least `k` distinct candidates have
    /// been collected, then returns the best `k` by estimated containment.
    ///
    /// # Panics
    /// Panics if `k == 0`, plus the usual query validation.
    #[must_use]
    pub fn query_top_k(&self, signature: &Signature, query_size: u64, k: usize) -> Vec<RankedHit> {
        engine(self).top_k(signature, query_size, k, false).0
    }
}

/// Inserts and removes keep the retained sketches in step with the
/// candidate index (copy-on-write: a shared sketch map is cloned on the
/// first mutation). Commit seals the staged delta — O(staged delta) — and,
/// because every sketch is retained, rebuilds the whole index from
/// scratch when the BASE partition-population skew passed the trigger
/// (§6.2's remedy, automated); compaction always rebuilds. Segment and
/// staged tiers are excluded from the drift metric: they are transient by
/// design, and counting them would turn a routine stack of sealed segments
/// into fake drift — putting the O(corpus) rebuild back on the commit path
/// the tiering exists to protect.
impl<I: CandidateIndex> MutableIndex for RankedIndex<I> {
    fn insert(
        &mut self,
        id: DomainId,
        size: u64,
        signature: &Signature,
    ) -> Result<(), MutationError> {
        self.inner.insert(id, size, signature)?;
        Arc::make_mut(&mut self.sketches).insert(id, (size, signature.clone()));
        Ok(())
    }

    fn remove(&mut self, id: DomainId) -> Result<(), MutationError> {
        self.inner.remove(id)?;
        Arc::make_mut(&mut self.sketches).remove(&id);
        Ok(())
    }

    fn commit(&mut self) -> CommitReport {
        let report = self.inner.commit();
        let drifted = skew_exceeds(
            &self.inner.base_partition_stats(),
            self.inner.len(),
            self.rebalance_trigger,
        );
        if !(drifted && rebuild_from_sketches(self)) {
            return report;
        }
        CommitReport {
            rebalanced: true,
            segments: 0,
            tombstones: 0,
            ..report
        }
    }

    fn staged_len(&self) -> usize {
        self.inner.staged_len()
    }

    /// Seals any staged delta, then rebuilds from the retained sketches —
    /// the same path a triggered rebalance takes — leaving zero segments
    /// and tombstones. An emptied index has nothing to rebuild from, so
    /// its candidate index folds in place instead.
    fn compact(&mut self) -> CommitReport {
        let report = self.inner.commit();
        let rebalanced = rebuild_from_sketches(self);
        if !rebalanced {
            self.inner.compact();
        }
        CommitReport {
            rebalanced,
            segments: 0,
            tombstones: 0,
            ..report
        }
    }

    fn segment_stats(&self) -> SegmentStats {
        self.inner.segment_stats()
    }

    fn segment_layout(&self) -> crate::SegmentLayout {
        self.inner.segment_layout()
    }

    /// A partial merge folds segments of the candidate index (the sketches
    /// track live ids, which a partial merge neither adds nor removes); a
    /// full fold is a compaction, which rewrites every live entry.
    fn apply_merge(&mut self, task: &crate::MergeTask) -> crate::MergeOutcome {
        if let crate::MergeTask::Merge(_) = task {
            return self.inner.apply_merge(task);
        }
        let entries_folded = self.len();
        let report = self.compact();
        crate::MergeOutcome {
            entries_folded,
            segments: report.segments,
            tombstones: report.tombstones,
        }
    }
}

impl<I: CandidateIndex> DomainIndex for RankedIndex<I> {
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        engine(self).search(query)
    }

    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        engine(self).search_batch(queries)
    }

    fn len(&self) -> usize {
        self.sketches.len()
    }

    /// The candidate index plus the retained sketches.
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.sketch_memory_bytes()
    }

    fn describe(&self) -> String {
        format!("Ranked {}", self.inner.describe())
    }
}

/// Merges two sorted unique id lists into one sorted unique list.
pub(crate) fn merge_unique(a: &[DomainId], b: &[DomainId]) -> Vec<DomainId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use lshe_minhash::MinHasher;

    /// Nested pool corpus: domain k holds the first 30·(k+1) pool values.
    fn index(n: usize) -> (MinHasher, RankedIndex, Vec<Vec<u64>>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(3, 30 * n);
        let mut b = RankedIndex::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        });
        let mut values = Vec::new();
        for k in 0..n {
            let vals: Vec<u64> = pool[..30 * (k + 1)].to_vec();
            b.add(
                k as u32,
                vals.len() as u64,
                h.signature(vals.iter().copied()),
            );
            values.push(vals);
        }
        (h, b.build(), values)
    }

    #[test]
    fn ranked_output_is_descending() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[2].iter().copied());
        let hits = idx.query_ranked(&q, values[2].len() as u64, 0.3, 0.1);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].estimated_containment >= w[1].estimated_containment);
        }
    }

    #[test]
    fn self_match_ranks_first_with_estimate_one() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[5].iter().copied());
        let hits = idx.query_ranked(&q, values[5].len() as u64, 0.5, 0.1);
        // Domain 5 and every superset have true containment 1.0; the self
        // match has Jaccard exactly 1 so its estimate is exactly 1.
        let self_hit = hits.iter().find(|hh| hh.id == 5).expect("self found");
        assert!((self_hit.estimated_containment - 1.0).abs() < 1e-9);
        assert!(hits[0].estimated_containment >= self_hit.estimated_containment);
    }

    #[test]
    fn top_k_returns_k_best() {
        let (h, idx, values) = index(25);
        let q = h.signature(values[3].iter().copied());
        let hits = idx.query_top_k(&q, values[3].len() as u64, 5);
        assert_eq!(hits.len(), 5);
        // All returned should be supersets (containment ≈ 1) of domain 3.
        for hh in &hits {
            assert!(hh.estimated_containment > 0.8, "weak hit in top-5: {hh:?}");
        }
        for w in hits.windows(2) {
            assert!(w[0].estimated_containment >= w[1].estimated_containment);
        }
    }

    #[test]
    fn top_k_larger_than_matches_returns_what_exists() {
        let (h, idx, values) = index(5);
        let q = h.signature(values[0].iter().copied());
        let hits = idx.query_top_k(&q, values[0].len() as u64, 100);
        assert!(hits.len() <= 5);
        assert!(!hits.is_empty());
    }

    #[test]
    fn estimates_track_exact_containment() {
        let (h, idx, values) = index(20);
        let q_vals = &values[4];
        let q = h.signature(q_vals.iter().copied());
        let hits = idx.query_ranked(&q, q_vals.len() as u64, 0.2, 0.15);
        for hh in hits {
            let x_vals = &values[hh.id as usize];
            let inter = q_vals.iter().filter(|v| x_vals.contains(v)).count();
            let exact = inter as f64 / q_vals.len() as f64;
            assert!(
                (hh.estimated_containment - exact).abs() < 0.2,
                "id {}: est {} vs exact {exact}",
                hh.id,
                hh.estimated_containment
            );
        }
    }

    #[test]
    fn slack_zero_prunes_harder_than_slack_wide() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[2].iter().copied());
        let strict = idx.query_ranked(&q, values[2].len() as u64, 0.6, 0.0);
        let loose = idx.query_ranked(&q, values[2].len() as u64, 0.6, 0.3);
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn mutation_updates_sketches_and_estimates() {
        let (h, mut idx, values) = index(15);
        let vals = MinHasher::synthetic_values(444, 120);
        let sig = h.signature(vals.iter().copied());
        idx.insert(600, 120, &sig).expect("insert");
        assert!(idx.contains(600));
        assert_eq!(idx.staged_len(), 1);
        // Staged insert is queryable WITH an estimate (self t̂ = 1).
        let hits = idx.query_ranked(&sig, 120, 0.9, 0.1);
        let own = hits.iter().find(|hh| hh.id == 600).expect("self hit");
        assert!((own.estimated_containment - 1.0).abs() < 1e-9);
        // Duplicate → typed error; sketch map untouched.
        assert_eq!(
            idx.insert(600, 120, &sig),
            Err(MutationError::DuplicateId(600))
        );
        assert_eq!(idx.len(), 16);
        // Removal drops the sketch too.
        idx.remove(600).expect("remove");
        assert!(!idx.contains(600));
        assert!(idx.sketch(600).is_none());
        assert_eq!(idx.remove(600), Err(MutationError::UnknownId(600)));
        // Existing domains unaffected.
        let q = h.signature(values[4].iter().copied());
        assert!(idx
            .query_ranked(&q, values[4].len() as u64, 0.9, 0.1)
            .iter()
            .any(|hh| hh.id == 4));
    }

    #[test]
    fn commit_seals_and_compaction_rebalances() {
        let (h, mut idx, _) = index(16);
        // Flood one size class. Under tiered commits the flood seals into
        // a segment: the BASE layout — and with it the drift metric — is
        // untouched, so commit stays O(staged delta) however large the
        // flood. Only compaction pays the rebuild.
        for i in 0..64u32 {
            let vals = MinHasher::synthetic_values(9_000 + u64::from(i), 10);
            idx.insert(1_000 + i, 10, &h.signature(vals.iter().copied()))
                .expect("insert");
        }
        idx.set_rebalance_trigger(1.0);
        let counts = |idx: &RankedIndex| -> Vec<usize> {
            idx.ensemble()
                .base_partition_stats()
                .iter()
                .map(|p| p.count)
                .collect()
        };
        let base_before = counts(&idx);
        let report = idx.commit();
        assert_eq!(report.merged, 64);
        assert!(report.sealed, "non-empty delta must seal");
        assert!(!report.rebalanced, "sealed commit must not rebuild");
        assert_eq!(report.segments, 1);
        assert_eq!(counts(&idx), base_before, "seal touched the base");
        assert_eq!(idx.staged_len(), 0);
        // Compaction folds the segment and rebuilds equi-depth from the
        // retained sketches: the flooded class spreads across the base.
        let folded = idx.compact();
        assert!(folded.rebalanced, "compaction must rebuild the base");
        assert_eq!((folded.segments, folded.tombstones), (0, 0));
        assert_eq!(counts(&idx).iter().sum::<usize>(), 80);
        // Everything is still queryable after the fold.
        for i in [1_000u32, 1_031, 1_063] {
            let vals = MinHasher::synthetic_values(9_000 + u64::from(i - 1_000), 10);
            let sig = h.signature(vals.iter().copied());
            assert!(
                idx.query_ranked(&sig, 10, 0.9, 0.1)
                    .iter()
                    .any(|hh| hh.id == i),
                "domain {i} lost in compaction"
            );
        }
    }

    #[test]
    fn commit_below_trigger_keeps_layout() {
        let (h, mut idx, _) = index(16);
        let sig = h.signature(MinHasher::synthetic_values(1, 50));
        idx.insert(999, 50, &sig).expect("insert");
        idx.set_rebalance_trigger(1_000.0);
        let before = idx.ensemble().partition_stats();
        let report = idx.commit();
        assert!(!report.rebalanced);
        assert_eq!(idx.ensemble().partition_stats().len(), before.len());
    }

    #[test]
    #[should_panic(expected = "duplicate domain id")]
    fn duplicate_id_rejected() {
        let h = MinHasher::new(256);
        let mut b = RankedIndex::builder();
        let sig = h.signature(MinHasher::synthetic_values(1, 10));
        b.add(1, 10, sig.clone());
        b.add(1, 10, sig);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let (h, idx, values) = index(5);
        let q = h.signature(values[0].iter().copied());
        let _ = idx.query_top_k(&q, values[0].len() as u64, 0);
    }

    fn nested(n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature)>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(5, 25 * n);
        let entries = (0..n)
            .map(|k| {
                let vals = &pool[..25 * (k + 1)];
                (
                    k as DomainId,
                    vals.len() as u64,
                    h.signature(vals.iter().copied()),
                )
            })
            .collect();
        (h, entries)
    }

    fn config(parts: usize) -> EnsembleConfig {
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: parts },
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn sharded_ranked_threshold_and_topk() {
        let (_, entries) = nested(24);
        let mut b = RankedIndexBuilder::new(config(4));
        for (id, size, sig) in &entries {
            b.add(*id, *size, sig.clone());
        }
        let ranked = Arc::new(b.build());
        let idx = ShardedRanked::build(&ranked, 3, config(2));
        assert_eq!(idx.ensemble().num_shards(), 3);
        assert_eq!(DomainIndex::len(&idx), 24);

        let (_, size, sig) = &entries[7];
        let out = idx
            .search(&Query::threshold(sig, 0.8).with_size(*size))
            .expect("search");
        assert!(out.hits.iter().any(|h| h.id == 7), "self hit missing");
        for h in &out.hits {
            let e = h.estimate.expect("sharded-ranked attaches estimates");
            assert!((0.0..=1.0).contains(&e));
        }
        for w in out.hits.windows(2) {
            assert!(w[0].estimate >= w[1].estimate, "not sorted by estimate");
        }
        assert!(out.stats.partitions_probed <= out.stats.partitions_total);

        let top = idx
            .search(&Query::top_k(sig, 5).with_size(*size))
            .expect("topk");
        assert_eq!(top.hits.len(), 5);
        assert_eq!(top.hits[0].id, 7, "self match must rank first");
    }

    #[test]
    fn sharded_ranked_mutation_is_cow_and_rebalances() {
        let (h, entries) = nested(24);
        let mut b = RankedIndexBuilder::new(config(4));
        for (id, size, sig) in &entries {
            b.add(*id, *size, sig.clone());
        }
        let ranked = Arc::new(b.build());
        let mut idx = ShardedRanked::build(&ranked, 3, config(2));
        assert!(
            Arc::ptr_eq(&idx.sketches, &ranked.sketches),
            "a sharded view must share its source's sketches"
        );

        // Insert + remove through the trait; the shared ranked index must
        // stay untouched (copy-on-write).
        let vals = MinHasher::synthetic_values(31, 75);
        let sig = h.signature(vals.iter().copied());
        MutableIndex::insert(&mut idx, 400, 75, &sig).expect("insert");
        assert!(idx.contains(400));
        assert!(!ranked.contains(400), "shared Arc mutated in place");
        MutableIndex::remove(&mut idx, 2).expect("remove");
        assert!(ranked.contains(2), "shared Arc mutated in place");
        assert_eq!(idx.len(), 24);

        // Staged insert immediately visible with an estimate.
        let out = idx
            .search(&Query::threshold(&sig, 0.9).with_size(75))
            .expect("search");
        let own = out.hits.iter().find(|hh| hh.id == 400).expect("self hit");
        assert!(own.estimate.expect("estimate") > 0.9);

        // Typed duplicate/unknown errors.
        assert_eq!(
            idx.insert(400, 75, &sig),
            Err(MutationError::DuplicateId(400))
        );
        assert_eq!(idx.remove(2), Err(MutationError::UnknownId(2)));

        // Forced rebalance reproduces a fresh build on the final corpus.
        idx.set_rebalance_trigger(0.0);
        let report = MutableIndex::commit(&mut idx);
        assert_eq!(report.merged, 1);
        assert!(report.rebalanced);
        assert_eq!(MutableIndex::staged_len(&idx), 0);
        let fresh = {
            let mut b = RankedIndexBuilder::new(config(4));
            for (id, size, sig) in &entries {
                if *id != 2 {
                    b.add(*id, *size, sig.clone());
                }
            }
            b.add(400, 75, h.signature(vals.iter().copied()));
            ShardedRanked::build(&b.build(), 3, config(2))
        };
        for (qid, qsize, qsig) in entries.iter().filter(|(id, _, _)| *id != 2) {
            let a = idx
                .search(&Query::threshold(qsig, 0.7).with_size(*qsize))
                .expect("mutated");
            let b = fresh
                .search(&Query::threshold(qsig, 0.7).with_size(*qsize))
                .expect("fresh");
            assert_eq!(a.hits, b.hits, "divergence at query {qid}");
        }
    }

    #[test]
    fn merge_unique_works() {
        assert_eq!(merge_unique(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_unique(&[], &[1]), vec![1]);
        assert_eq!(merge_unique(&[1], &[]), vec![1]);
    }
}
