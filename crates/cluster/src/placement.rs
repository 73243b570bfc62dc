//! Deterministic domain→shard placement.
//!
//! One function, [`shard_of`] (`id % N`), defined in `lshe-core` and
//! re-exported here, is used by every layer that must agree on where a
//! domain lives: the coordinator when it routes `/insert` and `/remove`,
//! `lshe split` when it partitions a container into shard files, and the
//! in-process `ShardedEnsemble` when it builds, inserts, removes and
//! rebuilds. Because the rule depends on the id alone, a split-file
//! cluster holds exactly the domains of the one-process `--shards N`
//! server over the same container — after removals and compactions too,
//! not only for the dense ids a fresh `IndexContainer::build` assigns.

pub use lshe_core::shard_of;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_and_total() {
        for n in 1..6 {
            let mut counts = vec![0usize; n];
            for id in 0..1000u32 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, id as usize % n);
                counts[s] += 1;
            }
            // Dense ids spread evenly.
            assert!(counts.iter().all(|&c| c >= 1000 / n - 1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = shard_of(0, 0);
    }
}
