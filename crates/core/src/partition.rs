//! Domain partitioning by cardinality (§5.4, Theorems 1–2).
//!
//! A partitioning groups domains into disjoint size classes; each class gets
//! its own dynamically tuned LSH whose threshold conversion uses the class's
//! upper bound — the tighter the bound, the fewer false positives (§5.3).
//!
//! Four constructions are provided:
//!
//! * [`Partitioning::equi_depth`] — equal domain counts per partition. By
//!   Theorem 2 this approximates the optimal (equi-`N^FP`) partitioning when
//!   sizes follow a power law, and it is the paper's recommended scheme.
//! * [`Partitioning::equi_width`] — equal size-interval widths, the
//!   degraded regime Figure 8 sweeps toward.
//! * [`Partitioning::morph`] — geometric interpolation between the two,
//!   the x-axis of Figure 8's robustness experiment.
//! * [`Partitioning::equi_fp`] — direct numeric equalisation of the
//!   false-positive bound `M_i = N·(u−l+1)/(2u)` (Eq. 16), the
//!   distribution-agnostic optimal construction of Theorem 1.

use crate::cost::fp_upper_bound;

/// One size class: inclusive size bounds plus the member domains, stored as
/// indices into the caller's size array (which the ensemble keeps aligned
/// with its domain ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Smallest member size.
    pub lower: u64,
    /// Largest member size (the `u` of every conversion formula).
    pub upper: u64,
    /// Member indices, ascending.
    pub members: Vec<u32>,
}

impl Partition {
    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the partition has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The Eq. 16 false-positive bound `M = N·(u−l+1)/(2u)` of this
    /// partition.
    #[must_use]
    pub fn fp_bound(&self) -> f64 {
        fp_upper_bound(self.members.len(), self.lower.max(1), self.upper.max(1))
    }
}

/// A complete partitioning of a corpus by domain size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    parts: Vec<Partition>,
}

/// How to partition a corpus; consumed by the ensemble builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// One partition holding everything — this is exactly the paper's
    /// "MinHash LSH baseline" (dynamic tuning with the global upper bound).
    Single,
    /// Equal member counts (Theorem 2; the paper's default).
    EquiDepth {
        /// Number of partitions.
        n: usize,
    },
    /// Equal size-interval widths.
    EquiWidth {
        /// Number of partitions.
        n: usize,
    },
    /// Interpolation between equi-depth (`lambda = 0`) and equi-width
    /// (`lambda = 1`) — Figure 8's drift knob.
    Morph {
        /// Number of partitions.
        n: usize,
        /// Interpolation parameter in `[0, 1]`.
        lambda: f64,
    },
    /// Numeric equalisation of the Eq. 16 false-positive bound
    /// (Theorem 1's optimal construction, distribution-agnostic).
    EquiFp {
        /// Number of partitions.
        n: usize,
    },
}

impl PartitionStrategy {
    /// Applies the strategy to a size array.
    #[must_use]
    pub fn partition(&self, sizes: &[u64]) -> Partitioning {
        match *self {
            Self::Single => Partitioning::single(sizes),
            Self::EquiDepth { n } => Partitioning::equi_depth(sizes, n),
            Self::EquiWidth { n } => Partitioning::equi_width(sizes, n),
            Self::Morph { n, lambda } => Partitioning::morph(sizes, n, lambda),
            Self::EquiFp { n } => Partitioning::equi_fp(sizes, n),
        }
    }

    /// The index label an ensemble built with this strategy reports
    /// (the experiment harness's series name).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Self::Single => "MinHash LSH (baseline)".to_owned(),
            Self::EquiDepth { n } => format!("LSH Ensemble ({n})"),
            Self::EquiWidth { n } => format!("LSH Ensemble equi-width ({n})"),
            Self::Morph { n, lambda } => format!("LSH Ensemble morph ({n}, λ={lambda:.2})"),
            Self::EquiFp { n } => format!("LSH Ensemble equi-FP ({n})"),
        }
    }
}

impl Partitioning {
    /// Everything in one partition (the unpartitioned baseline).
    ///
    /// # Panics
    /// Panics if `sizes` is empty or contains a zero size.
    #[must_use]
    pub fn single(sizes: &[u64]) -> Self {
        Self::equi_depth(sizes, 1)
    }

    fn ids_sorted_by_size(sizes: &[u64]) -> Vec<u32> {
        assert!(!sizes.is_empty(), "cannot partition an empty corpus");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "domain sizes must be positive"
        );
        let mut ids: Vec<u32> = (0..sizes.len() as u32).collect();
        ids.sort_unstable_by_key(|&i| (sizes[i as usize], i));
        ids
    }

    fn from_sorted_chunks(sizes: &[u64], chunks: Vec<Vec<u32>>) -> Self {
        let parts = chunks
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(|mut members| {
                let lower = sizes[members[0] as usize];
                let upper = sizes[*members.last().expect("non-empty") as usize];
                members.sort_unstable();
                Partition {
                    lower,
                    upper,
                    members,
                }
            })
            .collect();
        Self { parts }
    }

    /// Equal member counts per partition (§5.4, Theorem 2).
    ///
    /// If `n` exceeds the number of domains, fewer partitions are produced.
    ///
    /// # Panics
    /// Panics if `n == 0`, `sizes` is empty, or any size is zero.
    #[must_use]
    pub fn equi_depth(sizes: &[u64], n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        let ids = Self::ids_sorted_by_size(sizes);
        let len = ids.len();
        let chunks = (0..n)
            .map(|k| ids[k * len / n..(k + 1) * len / n].to_vec())
            .collect();
        Self::from_sorted_chunks(sizes, chunks)
    }

    /// Equal size-interval widths. Intervals that contain no domain are
    /// dropped.
    ///
    /// # Panics
    /// Panics if `n == 0`, `sizes` is empty, or any size is zero.
    #[must_use]
    pub fn equi_width(sizes: &[u64], n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        let ids = Self::ids_sorted_by_size(sizes);
        let min = sizes[ids[0] as usize];
        let max = sizes[*ids.last().expect("non-empty") as usize];
        let cuts: Vec<f64> = (1..n)
            .map(|k| min as f64 + (max - min) as f64 * k as f64 / n as f64)
            .collect();
        Self::from_cuts(sizes, &ids, &cuts)
    }

    /// Interpolates between equi-depth (`lambda = 0`) and equi-width
    /// (`lambda = 1`) cut points.
    ///
    /// Interpolation is geometric (in log-size space): on a power-law
    /// corpus the equi-width cuts are orders of magnitude above the
    /// equi-depth cuts, so a linear blend would jump to the equi-width
    /// regime at tiny `lambda`; blending exponents instead gives the
    /// gradual degradation ladder Figure 8 sweeps.
    ///
    /// # Panics
    /// Panics if `lambda` is outside `[0, 1]`, plus the usual input checks.
    #[must_use]
    pub fn morph(sizes: &[u64], n: usize, lambda: f64) -> Self {
        assert!(n > 0, "need at least one partition");
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        let ids = Self::ids_sorted_by_size(sizes);
        let len = ids.len();
        let min = sizes[ids[0] as usize];
        let max = sizes[*ids.last().expect("non-empty") as usize];
        let cuts: Vec<f64> = (1..n)
            .map(|k| {
                let depth_cut = (sizes[ids[k * len / n] as usize] as f64).max(1.0);
                let width_cut = (min as f64 + (max - min) as f64 * k as f64 / n as f64).max(1.0);
                ((1.0 - lambda) * depth_cut.ln() + lambda * width_cut.ln()).exp()
            })
            .collect();
        Self::from_cuts(sizes, &ids, &cuts)
    }

    /// Splits sorted ids at ascending size cut points (a domain of size `s`
    /// lands in the first partition whose cut exceeds `s`).
    fn from_cuts(sizes: &[u64], sorted_ids: &[u32], cuts: &[f64]) -> Self {
        let mut chunks: Vec<Vec<u32>> = vec![Vec::new(); cuts.len() + 1];
        for &id in sorted_ids {
            let s = sizes[id as usize] as f64;
            // cuts may be non-monotone after interpolation; use the count of
            // cuts strictly below s, clamped, which is monotone regardless.
            let k = cuts.iter().filter(|&&c| c < s).count();
            chunks[k].push(id);
        }
        Self::from_sorted_chunks(sizes, chunks)
    }

    /// Equalises the Eq. 16 false-positive bound across partitions — the
    /// distribution-agnostic optimal construction guaranteed by Theorem 1.
    ///
    /// Implementation: binary search on the per-partition budget `c`; a
    /// greedy sweep packs sorted domains into a partition until its
    /// `M = N·(u−l+1)/(2u)` would exceed `c`. The resulting partition count
    /// decreases monotonically in `c`, so the search converges to the
    /// smallest budget that needs at most `n` partitions.
    ///
    /// # Panics
    /// Panics if `n == 0`, `sizes` is empty, or any size is zero.
    #[must_use]
    pub fn equi_fp(sizes: &[u64], n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        let ids = Self::ids_sorted_by_size(sizes);
        if n == 1 {
            return Self::from_sorted_chunks(sizes, vec![ids]);
        }
        // Sweep: number of partitions needed under budget c (and chunks).
        let sweep = |c: f64| -> Vec<Vec<u32>> {
            let mut chunks: Vec<Vec<u32>> = Vec::new();
            let mut cur: Vec<u32> = Vec::new();
            let mut lower = 0u64;
            for &id in &ids {
                let s = sizes[id as usize];
                if cur.is_empty() {
                    lower = s;
                    cur.push(id);
                    continue;
                }
                let m = fp_upper_bound(cur.len() + 1, lower, s.max(lower));
                if m > c {
                    chunks.push(std::mem::take(&mut cur));
                    lower = s;
                }
                cur.push(id);
            }
            if !cur.is_empty() {
                chunks.push(cur);
            }
            chunks
        };
        // The total M of the single partition upper-bounds any useful c.
        let everything = fp_upper_bound(
            ids.len(),
            sizes[ids[0] as usize],
            sizes[*ids.last().expect("non-empty") as usize],
        );
        let (mut lo, mut hi) = (0.0f64, everything.max(1.0));
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if sweep(mid).len() > n {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let chunks = sweep(hi);
        Self::from_sorted_chunks(sizes, chunks)
    }

    /// The partitions, ascending by size range.
    #[must_use]
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// Number of (non-empty) partitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if there are no partitions (cannot occur via constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Index of the partition that should absorb a *new* domain of size
    /// `s`: the first partition whose upper bound is ≥ `s`, or the last
    /// partition when `s` exceeds every bound (dynamic data, §6.2).
    #[must_use]
    pub fn route(&self, s: u64) -> usize {
        self.parts
            .iter()
            .position(|p| s <= p.upper)
            .unwrap_or(self.parts.len() - 1)
    }

    /// Population standard deviation of partition member counts — the
    /// x-axis of Figure 8.
    #[must_use]
    pub fn member_count_std_dev(&self) -> f64 {
        let counts: Vec<usize> = self.parts.iter().map(Partition::len).collect();
        if counts.is_empty() {
            return 0.0;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
        (counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n)
            .sqrt()
    }

    /// The largest per-partition Eq. 16 bound — the cost the optimal
    /// partitioning minimises (Eq. 9 with `M_i` in place of `N^FP_i`).
    #[must_use]
    pub fn max_fp_bound(&self) -> f64 {
        self.parts
            .iter()
            .map(Partition::fp_bound)
            .fold(0.0, f64::max)
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// # Panics
    /// Panics (with a description) if a member is duplicated or missing, a
    /// partition's bounds don't cover its members, or partitions are out of
    /// order.
    pub fn validate(&self, sizes: &[u64]) {
        let mut seen = vec![false; sizes.len()];
        let mut prev_upper = 0u64;
        for p in &self.parts {
            assert!(!p.is_empty(), "empty partition survived construction");
            assert!(p.lower <= p.upper, "inverted bounds");
            assert!(
                p.lower >= prev_upper,
                "partitions out of order: {} < {}",
                p.lower,
                prev_upper
            );
            prev_upper = p.upper;
            for &id in &p.members {
                assert!(!seen[id as usize], "domain {id} in two partitions");
                seen[id as usize] = true;
                let s = sizes[id as usize];
                assert!(
                    (p.lower..=p.upper).contains(&s),
                    "domain {id} (size {s}) outside [{}, {}]",
                    p.lower,
                    p.upper
                );
            }
        }
        assert!(seen.iter().all(|&b| b), "domain missing from partitioning");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_law_sizes(n: usize, seed: u64) -> Vec<u64> {
        // Deterministic approximate power law without pulling in datagen:
        // size = floor(min * (max/min)^(u^3)) gives a bottom-heavy spread.
        let mut out = Vec::with_capacity(n);
        let mut stream = lshe_minhash::hash::SeedStream::new(seed);
        for _ in 0..n {
            let u = stream.next_f64();
            let s = (10.0 * (10_000.0f64 / 10.0).powf(u * u * u)).floor() as u64;
            out.push(s.max(10));
        }
        out
    }

    #[test]
    fn equi_depth_balances_counts() {
        let sizes = power_law_sizes(1000, 1);
        let p = Partitioning::equi_depth(&sizes, 8);
        p.validate(&sizes);
        assert_eq!(p.len(), 8);
        for part in p.parts() {
            assert!((120..=130).contains(&part.len()), "count {}", part.len());
        }
    }

    #[test]
    fn single_covers_everything() {
        let sizes = power_law_sizes(100, 2);
        let p = Partitioning::single(&sizes);
        p.validate(&sizes);
        assert_eq!(p.len(), 1);
        assert_eq!(p.parts()[0].len(), 100);
        assert_eq!(p.parts()[0].upper, *sizes.iter().max().expect("non-empty"));
    }

    #[test]
    fn equi_width_covers_everything() {
        let sizes = power_law_sizes(500, 3);
        let p = Partitioning::equi_width(&sizes, 8);
        p.validate(&sizes);
        assert!(p.len() <= 8);
        let total: usize = p.parts().iter().map(Partition::len).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn equi_width_skews_counts_on_power_law() {
        // On a power law, the first width interval swallows almost all
        // domains — that's why Figure 8's accuracy degrades toward width.
        let sizes = power_law_sizes(2000, 4);
        let p = Partitioning::equi_width(&sizes, 8);
        assert!(
            p.parts()[0].len() > 1000,
            "first width bucket holds {}",
            p.parts()[0].len()
        );
    }

    #[test]
    fn morph_endpoints_match_parents() {
        let sizes = power_law_sizes(800, 5);
        let depth = Partitioning::morph(&sizes, 8, 0.0);
        let width = Partitioning::morph(&sizes, 8, 1.0);
        depth.validate(&sizes);
        width.validate(&sizes);
        // λ = 0 should balance counts like equi-depth (cut-based variant
        // can differ slightly on duplicate sizes).
        let spread = depth.member_count_std_dev();
        assert!(spread < 40.0, "λ=0 spread {spread}");
        // λ = 1 must match equi-width exactly.
        let ew = Partitioning::equi_width(&sizes, 8);
        assert_eq!(width.parts().len(), ew.parts().len());
        for (a, b) in width.parts().iter().zip(ew.parts()) {
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    fn morph_std_dev_increases_with_lambda() {
        let sizes = power_law_sizes(3000, 6);
        let mut prev = -1.0;
        for k in 0..=4 {
            let lambda = f64::from(k) / 4.0;
            let p = Partitioning::morph(&sizes, 8, lambda);
            p.validate(&sizes);
            let sd = p.member_count_std_dev();
            assert!(
                sd >= prev - 15.0, // interpolation is not strictly monotone
                "λ={lambda}: sd {sd} after {prev}"
            );
            prev = sd;
        }
        let depth_sd = Partitioning::morph(&sizes, 8, 0.0).member_count_std_dev();
        let width_sd = Partitioning::morph(&sizes, 8, 1.0).member_count_std_dev();
        assert!(width_sd > depth_sd * 3.0, "{width_sd} vs {depth_sd}");
    }

    #[test]
    fn equi_fp_equalises_bounds() {
        let sizes = power_law_sizes(2000, 7);
        let p = Partitioning::equi_fp(&sizes, 8);
        p.validate(&sizes);
        assert!(p.len() <= 8);
        let bounds: Vec<f64> = p.parts().iter().map(Partition::fp_bound).collect();
        let max = bounds.iter().copied().fold(0.0, f64::max);
        let min = bounds.iter().copied().fold(f64::INFINITY, f64::min);
        // Perfect equality is impossible with discrete domains; within 3×.
        assert!(
            max / min.max(1e-9) < 3.0,
            "fp bounds too uneven: {bounds:?}"
        );
    }

    #[test]
    fn equi_fp_beats_equi_width_on_cost() {
        let sizes = power_law_sizes(2000, 8);
        let fp = Partitioning::equi_fp(&sizes, 8).max_fp_bound();
        let width = Partitioning::equi_width(&sizes, 8).max_fp_bound();
        assert!(fp <= width, "equi-fp {fp} vs equi-width {width}");
    }

    #[test]
    fn equi_depth_approximates_equi_fp_on_power_law() {
        // Theorem 2's claim, checked numerically: on power-law sizes the
        // equi-depth max-M is within a small factor of the equi-fp max-M.
        let sizes = power_law_sizes(5000, 9);
        let depth = Partitioning::equi_depth(&sizes, 8).max_fp_bound();
        let opt = Partitioning::equi_fp(&sizes, 8).max_fp_bound();
        assert!(
            depth <= opt * 2.5,
            "equi-depth {depth} far from optimal {opt}"
        );
    }

    #[test]
    fn route_picks_covering_partition() {
        let sizes = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let p = Partitioning::equi_depth(&sizes, 4);
        // Partitions: [10,20], [30,40], [50,60], [70,80].
        assert_eq!(p.route(15), 0);
        assert_eq!(p.route(30), 1);
        assert_eq!(p.route(65), 3);
        assert_eq!(p.route(1_000), 3); // overflow routes to the last
        assert_eq!(p.route(1), 0); // underflow routes to the first
    }

    #[test]
    fn n_larger_than_corpus_degrades_gracefully() {
        let sizes = vec![5, 6, 7];
        let p = Partitioning::equi_depth(&sizes, 10);
        p.validate(&sizes);
        assert!(p.len() <= 3);
    }

    #[test]
    fn duplicate_sizes_stay_valid() {
        let sizes = vec![10; 100];
        for n in [1, 2, 8] {
            let p = Partitioning::equi_depth(&sizes, n);
            p.validate(&sizes);
            let q = Partitioning::equi_width(&sizes, n);
            q.validate(&sizes);
        }
    }

    #[test]
    #[should_panic(expected = "sizes must be positive")]
    fn zero_size_rejected() {
        let _ = Partitioning::equi_depth(&[0, 1], 1);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Partitioning::equi_depth(&[1, 2], 0);
    }
}
