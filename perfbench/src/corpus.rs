//! The canonical corpus, rendered as string values, with its query set and
//! exact ground truth.
//!
//! Every generated value (a 64-bit hash) is rendered as 16 hex digits and
//! re-hashed with `Domain::from_strs`, exactly as the server hashes the
//! strings a request carries — so the index, the ground truth and the
//! wire all see one value universe.

use lshe_corpus::{Catalog, Domain, DomainMeta, ExactIndex};
use lshe_datagen::{generate_catalog, CorpusConfig};
use lshe_minhash::hash::splitmix64;

/// Domains in the canonical corpus.
pub const DOMAINS: usize = 20_000;
/// Query thresholds, cycled.
pub const THRESHOLDS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// Smallest domain used as a query.
pub const MIN_QUERY_VALUES: usize = 10;
/// Seed offset of the corpus that ingest draws fresh domains from.
const INSERT_SEED_SALT: u64 = 0x001A_5E27;

/// A small deterministic generator (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(splitmix64(seed ^ 0xBE7C_4A11))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A domain rendered for the wire: its string values as a JSON array.
fn render(domain: &Domain, prefix: &str) -> (Vec<String>, String) {
    let values: Vec<String> = domain
        .hashes()
        .iter()
        .map(|h| format!("{prefix}{h:016x}"))
        .collect();
    let mut json = String::with_capacity(values.len() * 19 + 2);
    json.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('"');
        json.push_str(v);
        json.push('"');
    }
    json.push(']');
    (values, json)
}

/// One query request: an indexed domain at one threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Position in [`Corpus::queries`].
    pub query: usize,
    /// Position in [`THRESHOLDS`].
    pub threshold: usize,
}

/// The canonical corpus with its query set and ground truth.
#[derive(Debug)]
pub struct Corpus {
    /// The string-hashed catalog the index is built from.
    pub catalog: Catalog,
    /// Ids of the query domains.
    pub queries: Vec<u32>,
    /// Per query: its values as a JSON array.
    pub query_json: Vec<String>,
    /// Per query: every domain with exact containment ≥ the lowest
    /// threshold, as `(id, containment)`.
    pub truth: Vec<Vec<(u32, f64)>>,
    /// Every (query, threshold) pair, in an order fixed by the corpus seed.
    pub pairs: Vec<Pair>,
}

impl Corpus {
    /// Generates the corpus for `seed` (`domains` domains).
    /// `wdc_web_tables_like`'s own seed gives the canonical corpus.
    #[must_use]
    pub fn generate(seed: u64, domains: usize) -> Self {
        let raw = generate_catalog(&CorpusConfig {
            seed,
            ..CorpusConfig::wdc_web_tables_like(domains)
        });
        let mut catalog = Catalog::new();
        let mut queries = Vec::new();
        let mut query_json = Vec::new();
        for (id, domain) in raw.iter() {
            let (values, json) = render(domain, "");
            let domain = Domain::from_strs(values.iter().map(String::as_str));
            if domain.len() >= MIN_QUERY_VALUES {
                queries.push(id);
                query_json.push(json);
            }
            let meta = raw.meta(id);
            catalog.push(
                domain,
                DomainMeta::new(meta.table.clone(), meta.column.clone()),
            );
        }
        let exact = ExactIndex::build(&catalog);
        let truth = queries
            .iter()
            .map(|&q| {
                let domain = catalog.domain(q);
                let n = domain.len() as f64;
                let mut hits: Vec<(u32, f64)> = exact
                    .overlap_counts(domain)
                    .into_iter()
                    .map(|(id, c)| (id, f64::from(c) / n))
                    .filter(|&(_, c)| c >= THRESHOLDS[0])
                    .collect();
                hits.sort_unstable_by_key(|&(id, _)| id);
                hits
            })
            .collect();
        let mut pairs: Vec<Pair> = (0..queries.len())
            .flat_map(|query| (0..THRESHOLDS.len()).map(move |threshold| Pair { query, threshold }))
            .collect();
        Rng::new(seed).shuffle(&mut pairs);
        Self {
            catalog,
            queries,
            query_json,
            truth,
            pairs,
        }
    }

    /// The `/query` body for a pair.
    #[must_use]
    pub fn body(&self, pair: Pair) -> String {
        format!(
            "{{\"values\":{},\"threshold\":{}}}",
            self.query_json[pair.query], THRESHOLDS[pair.threshold]
        )
    }

    /// The exact answer set of a pair, sorted by id.
    #[must_use]
    pub fn truth(&self, pair: Pair) -> Vec<u32> {
        let t = THRESHOLDS[pair.threshold];
        self.truth[pair.query]
            .iter()
            .filter(|&&(_, c)| c >= t)
            .map(|&(id, _)| id)
            .collect()
    }

    /// The query domain of a pair.
    #[must_use]
    pub fn domain(&self, pair: Pair) -> &Domain {
        self.catalog.domain(self.queries[pair.query])
    }
}

/// Fresh domains for ingest: a second corpus seed, and values prefixed so
/// they are disjoint from every query value.
#[derive(Debug)]
pub struct Inserts {
    /// Per domain: the `/insert` body.
    pub bodies: Vec<String>,
    /// Per domain: the hashed domain (for direct engine calls).
    pub domains: Vec<Domain>,
}

impl Inserts {
    /// `n` fresh domains drawn from a corpus seeded by `corpus_seed`, in an
    /// order rotated by `seed`.
    #[must_use]
    pub fn generate(corpus_seed: u64, seed: u64, n: usize) -> Self {
        let raw = generate_catalog(&CorpusConfig {
            seed: corpus_seed ^ INSERT_SEED_SALT,
            ..CorpusConfig::wdc_web_tables_like(n)
        });
        let mut bodies = Vec::with_capacity(n);
        let mut domains = Vec::with_capacity(n);
        for (id, domain) in raw.iter() {
            let (values, json) = render(domain, "n");
            bodies.push(format!(
                "{{\"values\":{json},\"table\":\"ingest\",\"column\":\"c{id}\"}}"
            ));
            domains.push(Domain::from_strs(values.iter().map(String::as_str)));
        }
        let shift = Rng::new(seed).below(n);
        bodies.rotate_left(shift);
        domains.rotate_left(shift);
        Self { bodies, domains }
    }
}

/// Recall and precision of one answer against the exact answer set
/// (both sorted by id on entry to the intersection count). Precision is
/// `None` for an empty answer.
#[must_use]
pub fn recall_precision(served: &[u32], truth: &[u32]) -> (f64, Option<f64>) {
    let mut served = served.to_vec();
    served.sort_unstable();
    let mut common = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < served.len() && j < truth.len() {
        match served[i].cmp(&truth[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let recall = if truth.is_empty() {
        1.0
    } else {
        common as f64 / truth.len() as f64
    };
    let precision = (!served.is_empty()).then(|| common as f64 / served.len() as f64);
    (recall, precision)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_and_truth_contains_the_query() {
        let a = Corpus::generate(3, 600);
        let b = Corpus::generate(3, 600);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.queries, b.queries);
        assert!(!a.queries.is_empty());
        for p in a.pairs.iter().take(50) {
            assert!(
                a.truth(*p).contains(&a.queries[p.query]),
                "a domain contains itself"
            );
            assert!(a.domain(*p).len() >= MIN_QUERY_VALUES);
        }
    }

    #[test]
    fn recall_and_precision_count_the_intersection() {
        assert_eq!(recall_precision(&[3, 1], &[1, 2, 3, 4]), (0.5, Some(1.0)));
        assert_eq!(recall_precision(&[9, 1], &[1]), (1.0, Some(0.5)));
        assert_eq!(recall_precision(&[], &[1]), (0.0, None));
    }
}
