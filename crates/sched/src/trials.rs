//! Deterministic scatter-gather for Monte Carlo trials.
//!
//! Trials are split into fixed-size chunks, each chunk derives its own
//! RNG stream from `(seed, chunk_index)` via [`chunk_seed`], and chunk
//! results are reduced in chunk-index order — so a simulation's result
//! is **bit-identical for any worker-thread count**, including one. The
//! thread count only decides which OS thread happens to run a chunk,
//! never what the chunk computes or the order partial results are
//! combined in (DESIGN.md §11).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The RNG seed of one trial chunk: a SplitMix64 finalizer over the base
/// seed offset by the chunk index, so neighbouring chunks get
/// decorrelated streams under both the offline shim generator and the
/// real `StdRng`.
pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves a requested worker count: `0` means "one worker per
/// available CPU", anything else is taken literally. The CPU count is
/// looked up once per process and cached: on Linux
/// `available_parallelism` re-reads the cgroup quota files on every
/// call, a cost every Monte Carlo call would otherwise pay.
pub fn resolve_threads(requested: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if requested == 0 {
        *CPUS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    } else {
        requested
    }
}

/// Runs `n_chunks` independent chunk computations across up to
/// `threads` OS threads (resolved via [`resolve_threads`]) and returns
/// the per-chunk results **in chunk order**.
///
/// Stride `t` of `threads` runs chunks `t, t + threads, …` on one
/// worker with its own scratch state from `init` (e.g. a cloned fabric
/// arm), so no two workers ever touch the same chunk; results land in a
/// chunk-indexed vector, making the output independent of scheduling.
/// The caller's thread runs stride 0 itself and spawns `threads - 1`
/// scoped workers for the rest, so one effective thread spawns nothing —
/// same chunks, same seeds, same answer. A panic in any chunk, on the
/// caller's thread or a worker's, propagates to the caller.
pub fn run_chunks<T, S, FS, FC>(n_chunks: usize, threads: usize, init: FS, run: FC) -> Vec<T>
where
    T: Send,
    S: Send,
    FS: Fn() -> S + Sync,
    FC: Fn(usize, &mut S) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n_chunks).max(1);
    let stride = |t: usize| {
        let mut state = init();
        (t..n_chunks)
            .step_by(threads)
            .map(|c| (c, run(c, &mut state)))
            .collect::<Vec<_>>()
    };
    let mut out: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let stride = &stride;
        let handles: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || stride(t)))
            .collect();
        for (c, value) in stride(0) {
            out[c] = Some(value);
        }
        for handle in handles {
            // tpu-lint: allow(panic-policy) -- re-raises a worker panic; swallowing it would hide trial bugs
            for (c, value) in handle.join().expect("trial worker panicked") {
                out[c] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("stride covers every chunk")) // tpu-lint: allow(panic-policy) -- chunk striding assigns every index exactly once by construction
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|c| chunk_seed(42, c)).collect();
        let b: Vec<u64> = (0..64).map(|c| chunk_seed(42, c)).collect();
        assert_eq!(a, b);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "seeds must not collide");
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn run_chunks_is_thread_count_invariant() {
        let work = |c: usize, state: &mut u64| {
            *state += 1; // scratch state is per-worker, not shared
            (c as u64) * 17 + 3
        };
        let reference = run_chunks(37, 1, || 0u64, work);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_chunks(37, threads, || 0u64, work), reference);
        }
    }

    #[test]
    fn results_stay_in_chunk_order_when_threads_meet_or_exceed_chunks() {
        // More threads than chunks (clamped to one chunk per thread) and
        // exactly one chunk per thread: chunk 0 runs on the caller, the
        // rest on workers, and the output is still in chunk order.
        let work = |c: usize, _: &mut ()| c * 10 + 1;
        let expected: Vec<usize> = (0..4).map(|c| c * 10 + 1).collect();
        assert_eq!(run_chunks(4, 16, || (), work), expected);
        assert_eq!(run_chunks(4, 4, || (), work), expected);
        assert_eq!(run_chunks(1, 4, || (), work), vec![1]);
    }

    #[test]
    fn a_panic_on_the_callers_stride_propagates() {
        // Chunk 0 always runs on the caller's thread; its panic must
        // reach the caller (after the workers are joined), not be lost.
        for threads in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                run_chunks(
                    4,
                    threads,
                    || (),
                    |c, _| {
                        assert!(c != 0, "chunk zero failed");
                        c
                    },
                )
            });
            let payload = result.expect_err("the chunk panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("chunk zero failed"),
                "{threads}: {message}"
            );
        }
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }
}
