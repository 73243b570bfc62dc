//! The query engine: Partitioned-Containment-Search (Algorithm 1) and the
//! ranking layered on it, written once for every storage backend.
//!
//! A threshold query sweeps a list of [`Unit`]s, one per partition:
//! partitions whose size upper bound cannot reach `t*·q` are skipped,
//! every other partition gets its own tuned `(b, r)` and has its prefix
//! trees probed, tombstoned rows are dropped, and the survivors are
//! unioned. Ranking estimates each candidate's containment from its
//! retained sketch (Eq. 6) and prunes below `t* − ESTIMATE_SLACK`; top-k
//! descends through thresholds until `k` candidates accumulate.
//!
//! The heap backends ([`LshEnsemble`](crate::LshEnsemble),
//! [`RankedIndex`](crate::RankedIndex)) and the mapped one
//! ([`MmapIndex`](crate::MmapIndex)) differ in exactly three places, and
//! those are the engine's only storage inputs:
//!
//! * how one partition's prefix trees are probed — [`Trees`];
//! * how liveness is checked while tombstones exist — [`Live`];
//! * where a candidate's `(size, slots)` sketch is read from —
//!   [`Sketches`].
//!
//! Sharding adds no fourth input: a [`ShardedEnsemble`](crate::ShardedEnsemble)
//! is one more [`Candidates`] source, and the sketch-retaining wrapper is
//! written once over any [`CandidateIndex`].

use crate::api::{
    outcome_from_hits, outcome_from_hits_timed, outcome_from_ids, outcome_from_ids_timed,
    MutableIndex, ProbeCounts, Query, QueryError, QueryMode, SearchHit, SearchOutcome,
    ESTIMATE_SLACK,
};
use crate::batch::ThresholdItem;
use crate::ensemble::{PartitionStats, Slot};
use crate::ranked::{merge_unique, RankedHit};
use crate::tuning::Tuner;
use lshe_lsh::{DomainId, LshForest};
use lshe_minhash::hash::{FastHashMap, FastHashSet};
use lshe_minhash::{containment_from_jaccard, Signature};
use lshe_store::{PartitionView, SketchesView};
use std::time::Instant;

/// Where one partition's prefix trees live.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Trees<'a> {
    /// A heap forest: a base partition, a sealed segment's partition, or
    /// the staged delta.
    Heap(&'a LshForest),
    /// A packed base partition borrowed from a mapped store.
    Mapped(PartitionView<'a>),
}

/// One sweepable partition: its size upper bound `u` and its trees.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit<'a> {
    pub(crate) upper: u64,
    pub(crate) trees: Trees<'a>,
}

/// How liveness is checked while tombstones exist.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Live<'a> {
    /// No tombstones: every probed row is live.
    All,
    /// Live ids are exactly the keys of the heap id → slot map.
    IdMap(&'a FastHashMap<DomainId, Slot>),
    /// A mapped sketch exists exactly for the live ids.
    Sketches(SketchesView<'a>),
}

impl Live<'_> {
    /// Drops the candidates appended past `from` whose ids are dead. This
    /// asks whether the id is live, not whether it was ever tombstoned: a
    /// removed and re-inserted id is live in its new tier, and the stale
    /// rows it left in the old tier must not be dropped.
    fn retain(self, out: &mut Vec<DomainId>, from: usize) {
        if matches!(self, Self::All) {
            return;
        }
        let mut w = from;
        for i in from..out.len() {
            let id = out[i];
            let live = match self {
                Self::All => true,
                Self::IdMap(ids) => ids.contains_key(&id),
                Self::Sketches(sketches) => sketches.lookup(id).is_some(),
            };
            if live {
                out[w] = id;
                w += 1;
            }
        }
        out.truncate(w);
    }
}

/// Where a candidate's retained `(size, slots)` sketch is read from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sketches<'a> {
    /// The heap id → (cardinality, signature) map.
    Heap(&'a FastHashMap<DomainId, (u64, Signature)>),
    /// The mapped sketch columns.
    Mapped(SketchesView<'a>),
}

impl Sketches<'_> {
    /// Ranks candidates by estimated containment
    /// `t̂ = (x/q + 1)·ŝ/(1 + ŝ)` (Eq. 6), descending, ties by id.
    ///
    /// # Panics
    /// Panics if a candidate id has no sketch.
    pub(crate) fn rank(
        self,
        candidates: Vec<DomainId>,
        signature: &Signature,
        q: u64,
    ) -> Vec<RankedHit> {
        let q_slots = signature.slots();
        let mut hits: Vec<RankedHit> = candidates
            .into_iter()
            .map(|id| {
                let (x, slots) = match self {
                    Self::Heap(map) => {
                        let (x, sig) = &map[&id];
                        (*x, sig.slots())
                    }
                    Self::Mapped(view) => view.lookup(id).expect("candidate id has no sketch"),
                };
                let equal = q_slots.iter().zip(slots).filter(|(a, b)| a == b).count();
                let s = equal as f64 / q_slots.len() as f64;
                RankedHit {
                    id,
                    estimated_containment: containment_from_jaccard(s, x as f64, q as f64),
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.estimated_containment
                .partial_cmp(&a.estimated_containment)
                .expect("no NaN")
                .then(a.id.cmp(&b.id))
        });
        hits
    }
}

/// A source of sorted-unique candidate ids for a threshold query: one
/// index's [`Sweep`], or a fan-out over shards.
pub(crate) trait Candidates: Sync {
    /// Signature width the source indexes.
    fn num_perm(&self) -> usize;

    /// Sorted-unique candidates at `t_star` plus probe counters.
    /// `parallel` asks for the partitions to be spread across lanes.
    fn query(
        &self,
        signature: &Signature,
        q: u64,
        t_star: f64,
        parallel: bool,
    ) -> (Vec<DomainId>, ProbeCounts);

    /// Answers every item and hands each query's candidates, probe
    /// counters and attributed nanos to `post`, in item order.
    fn batch_map<R: Send>(
        &self,
        items: &[ThresholdItem<'_>],
        post: impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R + Sync,
    ) -> Vec<R>;
}

/// The index a sketch-retaining [`RankedIndex`](crate::RankedIndex)
/// wraps: one ensemble, or a set of shards. The wrapper owns the
/// sketches, the ranking and the rebalance policy; the index supplies its
/// candidate source, the drift metric, and a rebuild from the sketches.
pub(crate) trait CandidateIndex: MutableIndex + Clone {
    /// The engine's candidate source over this index.
    type Source<'a>: Candidates
    where
        Self: 'a;

    /// The candidate source queries sweep.
    fn candidates(&self) -> Self::Source<'_>;

    /// Base-tier partition populations (sealed segments and the staged
    /// delta excluded): the equi-depth drift metric a commit checks.
    fn base_partition_stats(&self) -> Vec<PartitionStats>;

    /// A fresh index of the same shape over id-sorted, non-empty parallel
    /// arrays.
    fn rebuild(&self, ids: &[DomainId], sizes: &[u64], signatures: &[&Signature]) -> Self;
}

/// The one answer a backend without retained sketches gives a top-k
/// query.
pub(crate) fn top_k_unsupported() -> QueryError {
    QueryError::Unsupported(
        "top-k needs retained sketches; build a RankedIndex (or re-index with --ranked)".into(),
    )
}

/// [`DomainIndex::search`](crate::DomainIndex::search) for a backend
/// without sketches: the candidate ids, unranked.
pub(crate) fn search_unranked(
    source: &impl Candidates,
    query: &Query<'_>,
) -> Result<SearchOutcome, QueryError> {
    query.validate_for(source.num_perm())?;
    let QueryMode::Threshold(t_star) = query.mode() else {
        return Err(top_k_unsupported());
    };
    let started = Instant::now();
    let (ids, probe) = source.query(
        query.signature(),
        query.effective_size(),
        t_star,
        query.parallel(),
    );
    Ok(outcome_from_ids(ids, probe, started))
}

/// [`DomainIndex::search_batch`](crate::DomainIndex::search_batch) for a
/// backend without sketches: one batched sweep for every threshold query.
pub(crate) fn search_batch_unranked(
    source: &impl Candidates,
    queries: &[Query<'_>],
) -> Vec<Result<SearchOutcome, QueryError>> {
    crate::batch::split_and_run(
        queries,
        source.num_perm(),
        |items| {
            source.batch_map(items, |_, ids, probe, nanos| {
                outcome_from_ids_timed(ids, probe, nanos)
            })
        },
        |_, _| Err(top_k_unsupported()),
    )
}

/// One index's query plan: every sweepable unit in stats order, the
/// liveness check, and the tuner that picks each unit's `(b, r)`.
#[derive(Debug)]
pub(crate) struct Sweep<'a> {
    pub(crate) units: Vec<Unit<'a>>,
    pub(crate) live: Live<'a>,
    pub(crate) tuner: &'a Tuner,
    pub(crate) num_perm: usize,
}

impl Sweep<'_> {
    /// Queries swept together per partition-outer pass: large enough to
    /// amortize partition/forest locality, small enough to bound the raw
    /// candidate memory held at once (see
    /// [`batch_chunk`](Self::batch_chunk)).
    const GROUP: usize = 32;

    /// Probes one unit into `out`; returns whether it was consulted
    /// (false = skip-pruned).
    fn probe(
        &self,
        unit: &Unit<'_>,
        signature: &Signature,
        q: u64,
        t_star: f64,
        out: &mut Vec<DomainId>,
    ) -> bool {
        // A domain's containment cannot exceed x/q ≤ upper/q: partitions
        // that cannot reach the threshold are skipped outright.
        if (unit.upper as f64) < t_star * q as f64 {
            return false;
        }
        let params = self.tuner.optimize(unit.upper, q, t_star);
        let (b, r) = (params.b as usize, params.r as usize);
        let before = out.len();
        match unit.trees {
            Trees::Heap(forest) => forest.query_into(signature, b, r, out),
            Trees::Mapped(view) => lshe_lsh::forest::query_packed_into(&view, signature, b, r, out),
        }
        self.live.retain(out, before);
        true
    }

    /// Batched containment search, partition-outer: the partition loop
    /// runs once per group of queries, every query probes a partition
    /// while its trees are hot, and one dedup scratch set serves the
    /// whole chunk. Per query the answer is identical to
    /// [`query`](Candidates::query) — same sorted-unique ids, same probe
    /// counters — only the wall attribution differs.
    ///
    /// The chunk is swept in groups of [`Self::GROUP`] queries so peak
    /// memory holds at most one group's *raw* (pre-dedup) candidate
    /// unions, never the whole batch's — a low-threshold query can make
    /// every partition contribute near the full corpus, and thousands of
    /// such accumulators at once would be an OOM vector on the server.
    ///
    /// `post` runs right after a query's dedup, so per-query
    /// post-processing (ranking, outcome assembly) shares the caller's
    /// thread instead of re-spawning.
    pub(crate) fn batch_chunk<R>(
        &self,
        chunk: &[ThresholdItem<'_>],
        post: &(impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R + Sync),
    ) -> Vec<R> {
        let mut buf: Vec<DomainId> = Vec::new();
        let mut set: FastHashSet<DomainId> = FastHashSet::default();
        let mut results = Vec::with_capacity(chunk.len());
        for group in chunk.chunks(Self::GROUP) {
            // Per-query accumulators: raw candidates, probes, nanos.
            let mut acc: Vec<(Vec<DomainId>, ProbeCounts, u64)> = group
                .iter()
                .map(|_| {
                    let probe = ProbeCounts {
                        total: self.units.len(),
                        ..ProbeCounts::default()
                    };
                    (Vec::new(), probe, 0u64)
                })
                .collect();
            for unit in &self.units {
                for (item, out) in group.iter().zip(acc.iter_mut()) {
                    let started = Instant::now();
                    buf.clear();
                    let probed = self.probe(unit, item.signature, item.size, item.t_star, &mut buf);
                    out.1.probed += usize::from(probed);
                    out.1.candidates += buf.len();
                    out.0.extend_from_slice(&buf);
                    out.2 += started.elapsed().as_nanos() as u64;
                }
            }
            // Dedup + sort each query's union through the reused scratch.
            results.extend(
                group
                    .iter()
                    .zip(acc)
                    .map(|(item, (mut raw, probe, mut nanos))| {
                        let started = Instant::now();
                        set.extend(raw.drain(..));
                        raw.extend(set.drain());
                        raw.sort_unstable();
                        nanos += started.elapsed().as_nanos() as u64;
                        post(item, raw, probe, nanos)
                    }),
            );
        }
        results
    }
}

impl Candidates for Sweep<'_> {
    fn num_perm(&self) -> usize {
        self.num_perm
    }

    /// # Panics
    /// Panics if `q == 0`, the threshold is out of range, or the
    /// signature width differs from the index's.
    fn query(
        &self,
        signature: &Signature,
        q: u64,
        t_star: f64,
        parallel: bool,
    ) -> (Vec<DomainId>, ProbeCounts) {
        assert!(q > 0, "query size must be positive");
        assert!(
            (0.0..=1.0).contains(&t_star),
            "containment threshold must be in [0, 1]"
        );
        assert_eq!(signature.len(), self.num_perm, "signature width mismatch");
        let mut probe = ProbeCounts {
            total: self.units.len(),
            ..ProbeCounts::default()
        };
        let mut out = FastHashSet::default();
        if parallel {
            // Units are chunked across lanes drawn from the process-wide
            // budget (`lshe_minhash::lanes`), not one thread per
            // partition: on a single-core or saturated host the budget
            // yields zero extras and the probe runs inline, identical to
            // the sequential path — fan-out cost is only ever paid when
            // there are cores to absorb it.
            let buffers: Vec<(Vec<DomainId>, bool)> =
                lshe_minhash::lanes::run_chunked(&self.units, |chunk| {
                    chunk
                        .iter()
                        .map(|unit| {
                            let mut buf = Vec::new();
                            let probed = self.probe(unit, signature, q, t_star, &mut buf);
                            (buf, probed)
                        })
                        .collect()
                });
            for (buf, probed) in buffers {
                probe.probed += usize::from(probed);
                probe.candidates += buf.len();
                out.extend(buf);
            }
        } else {
            let mut buf = Vec::new();
            for unit in &self.units {
                let before = buf.len();
                let probed = self.probe(unit, signature, q, t_star, &mut buf);
                probe.probed += usize::from(probed);
                probe.candidates += buf.len() - before;
            }
            out.extend(buf);
        }
        let mut v: Vec<DomainId> = out.into_iter().collect();
        v.sort_unstable();
        (v, probe)
    }

    /// [`batch_chunk`](Sweep::batch_chunk) fanned across worker lanes —
    /// the lanes are spawned once for the whole batch.
    fn batch_map<R: Send>(
        &self,
        items: &[ThresholdItem<'_>],
        post: impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R + Sync,
    ) -> Vec<R> {
        crate::batch::chunked(items, |chunk| self.batch_chunk(chunk, &post))
    }
}

/// Ranked answering — estimates, the threshold prune, top-k, and the
/// [`DomainIndex`](crate::DomainIndex) `search`/`search_batch` assembly —
/// over one candidate source and one sketch source.
#[derive(Debug)]
pub(crate) struct Ranked<'a, C> {
    pub(crate) candidates: C,
    pub(crate) sketches: Sketches<'a>,
}

impl<C: Candidates> Ranked<'_, C> {
    /// Ranks `ids` and keeps the hits whose estimate reaches
    /// `t_star − slack`. A small slack keeps borderline true positives
    /// (estimates are noisy at ±1/√m).
    fn rank_pruned(
        &self,
        ids: Vec<DomainId>,
        signature: &Signature,
        q: u64,
        t_star: f64,
        slack: f64,
    ) -> Vec<RankedHit> {
        let mut hits = self.sketches.rank(ids, signature, q);
        hits.retain(|h| h.estimated_containment >= t_star - slack);
        hits
    }

    /// Threshold search with ranked, pruned output plus probe counters.
    pub(crate) fn threshold(
        &self,
        signature: &Signature,
        q: u64,
        t_star: f64,
        slack: f64,
        parallel: bool,
    ) -> (Vec<RankedHit>, ProbeCounts) {
        let (ids, probe) = self.candidates.query(signature, q, t_star, parallel);
        (self.rank_pruned(ids, signature, q, t_star, slack), probe)
    }

    /// Top-k search: descends through containment thresholds
    /// (1.0, 0.9, …, 0.0) until at least `k` distinct candidates
    /// accumulate, then keeps the best `k` by estimate. Probe counters sum
    /// candidates across passes; partitions probed is the per-pass
    /// maximum (so it stays ≤ total).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub(crate) fn top_k(
        &self,
        signature: &Signature,
        q: u64,
        k: usize,
        parallel: bool,
    ) -> (Vec<RankedHit>, ProbeCounts) {
        assert!(k > 0, "k must be positive");
        let mut seen: Vec<DomainId> = Vec::new();
        let mut probe = ProbeCounts::default();
        for step in (0..=10u32).rev() {
            let t = f64::from(step) / 10.0;
            let (cands, p) = self.candidates.query(signature, q, t, parallel);
            probe.probed = probe.probed.max(p.probed);
            probe.total = p.total;
            probe.candidates += p.candidates;
            // Per-pass results are sorted; merge-dedup against `seen`.
            seen = merge_unique(&seen, &cands);
            if seen.len() >= k {
                break;
            }
        }
        let mut hits = self.sketches.rank(seen, signature, q);
        hits.truncate(k);
        (hits, probe)
    }

    /// [`DomainIndex::search`](crate::DomainIndex::search) for a ranked
    /// backend.
    pub(crate) fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        query.validate_for(self.candidates.num_perm())?;
        let started = Instant::now();
        let (signature, q) = (query.signature(), query.effective_size());
        let (hits, probe) = match query.mode() {
            QueryMode::Threshold(t_star) => {
                self.threshold(signature, q, t_star, ESTIMATE_SLACK, query.parallel())
            }
            QueryMode::TopK(k) => self.top_k(signature, q, k, query.parallel()),
        };
        Ok(outcome_from_hits(to_search_hits(hits), probe, started))
    }

    /// [`DomainIndex::search_batch`](crate::DomainIndex::search_batch) for
    /// a ranked backend: one batched sweep for every threshold query, with
    /// ranking run straight after each query's dedup.
    pub(crate) fn search_batch(
        &self,
        queries: &[Query<'_>],
    ) -> Vec<Result<SearchOutcome, QueryError>> {
        crate::batch::split_and_run(
            queries,
            self.candidates.num_perm(),
            |items| {
                self.candidates
                    .batch_map(items, |item, ids, probe, mut nanos| {
                        let started = Instant::now();
                        let hits = self.rank_pruned(
                            ids,
                            item.signature,
                            item.size,
                            item.t_star,
                            ESTIMATE_SLACK,
                        );
                        nanos += started.elapsed().as_nanos() as u64;
                        outcome_from_hits_timed(to_search_hits(hits), probe, nanos)
                    })
            },
            |query, _| self.search(query),
        )
    }
}

/// Converts ranked hits into the unified [`SearchHit`] shape.
fn to_search_hits(hits: Vec<RankedHit>) -> Vec<SearchHit> {
    hits.into_iter()
        .map(|h| SearchHit {
            id: h.id,
            estimate: Some(h.estimated_containment),
        })
        .collect()
}
