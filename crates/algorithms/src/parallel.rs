//! Deterministic parallel shard plumbing.
//!
//! The flat search bodies (Stochastic, Annealing, Genetic) each run one
//! seed stream on the calling thread. What runs in parallel, on
//! `HierarchicalConfig::threads` workers, is work that depends on nothing
//! else running at the time:
//!
//! * the hierarchical engine's refinement shards, one per cluster — each
//!   starts from the same expanded assignment and moves only its own
//!   cluster's components;
//! * DecAp's per-cluster auctions, one round at a time — each against a
//!   private copy of the round-start state;
//! * stochastic-h's coarse restarts — their shuffles are drawn first, in
//!   order, from the one seeded stream, and each placement is scored from
//!   zero;
//! * the baseline guard's pricing of the initial deployment, which no
//!   search step reads ([`run_shards_beside`] runs it beside a call the
//!   solve already makes, so two cores never carry three threads).
//!
//! [`run_shards`] executes the jobs on the caller and scoped helper threads
//! and returns the results *in shard order*, so merging is a sequential
//! fold whose outcome — like the jobs themselves — is independent of the
//! thread count and of scheduling interleavings. The same configuration
//! therefore produces byte-identical results on 1, 2, or 8 threads.
//! [`shard_seed`] derives decorrelated seed streams from one configured
//! seed.

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

/// [`run_shards`] with one more job beside the shards: `side`, which
/// depends on nothing they do. It is claimed first, so on two or more
/// threads it runs while the others take shards; on one it runs before
/// them. Its result comes back beside the shards' results, in shard order.
pub(crate) fn run_shards_beside<T, U, F, G>(
    shards: u32,
    threads: u32,
    side: G,
    body: F,
) -> (U, Vec<T>)
where
    T: Send,
    U: Send,
    F: Fn(u32) -> T + Sync,
    G: FnOnce() -> U + Send,
{
    enum Job<T, U> {
        Side(U),
        Shard(T),
    }
    let side = Mutex::new(Some(side));
    let mut jobs = run_shards(shards + 1, threads, |i| match i {
        0 => {
            let side = side.lock().expect("side job poisoned").take();
            Job::Side(side.expect("the side job is claimed once")())
        }
        _ => Job::Shard(body(i - 1)),
    })
    .into_iter();
    let Some(Job::Side(side)) = jobs.next() else {
        unreachable!("job 0 is the side job")
    };
    let shards = jobs.map(|job| match job {
        Job::Shard(t) => t,
        Job::Side(_) => unreachable!("only job 0 is the side job"),
    });
    (side, shards.collect())
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

    #[test]
    fn the_side_job_runs_once_beside_shards_in_order() {
        let expected: Vec<u64> = (0..5u32).map(|i| shard_seed(3, i)).collect();
        for threads in [1u32, 2, 8] {
            for shards in [0u32, 1, 5] {
                let (side, got) =
                    run_shards_beside(shards, threads, || shard_seed(4, 1), |i| shard_seed(3, i));
                assert_eq!(side, shard_seed(4, 1));
                assert_eq!(got, expected[..shards as usize], "threads = {threads}");
            }
        }
    }
}
