//! Deterministic parallel shard plumbing.
//!
//! The flat search bodies (Stochastic, Annealing, Genetic) each run one
//! seed stream on the calling thread. What runs in parallel is per-cluster
//! work: the hierarchical engine's refinement shards and DecAp's
//! per-cluster auctions. [`run_shards`] executes those shard bodies on the
//! caller and scoped helper threads and returns the results *in shard
//! order*, so merging is a sequential fold whose outcome — like the shard
//! bodies themselves — is independent of the thread count and of scheduling
//! interleavings. The same configuration therefore produces byte-identical
//! results on 1, 2, or 8 threads. [`shard_seed`] derives decorrelated seed
//! streams from one configured seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The RNG seed of stream `shard` derived from `seed`.
///
/// Stream 0 is `seed` unchanged. Later streams are decorrelated through a
/// splitmix64-style mix of `(seed, shard)`; `annealing-h`'s final chain
/// runs on stream `u32::MAX`, which no flat body uses.
pub(crate) fn shard_seed(seed: u64, shard: u32) -> u64 {
    if shard == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `body(shard)` for every shard on up to `threads` workers and returns
/// the results in shard order.
///
/// Workers — the calling thread and `threads − 1` scoped ones — claim shard
/// indices from an atomic counter and deposit each result in its shard's
/// slot, so the returned vector is a pure function of `body` regardless of
/// thread count. `threads <= 1` (or a single shard) runs inline without
/// spawning.
pub(crate) fn run_shards<T, F>(shards: u32, threads: u32, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let shards = shards.max(1);
    let threads = threads.clamp(1, shards);
    if threads == 1 {
        return (0..shards).map(body).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= shards as usize {
            break;
        }
        let result = body(i as u32);
        *slots[i].lock().expect("shard slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("shard slot poisoned")
                .expect("every shard index below the counter limit was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_zero_replays_the_sequential_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(shard_seed(seed, 0), seed);
        }
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        let seeds: Vec<u64> = (0..16).map(|s| shard_seed(7, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "shard seeds collided: {seeds:?}");
    }

    #[test]
    fn results_are_in_shard_order_for_any_thread_count() {
        let expected: Vec<u64> = (0..23u32).map(|i| shard_seed(9, i)).collect();
        for threads in [1u32, 2, 3, 8, 64] {
            let got = run_shards(23, threads, |i| shard_seed(9, i));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }
}
