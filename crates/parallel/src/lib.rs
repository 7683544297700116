//! Deterministic data-parallel primitives for Carbon Explorer.
//!
//! The design-space sweeps behind the paper's Figures 13–15 are
//! embarrassingly parallel: thousands of independent `evaluate` calls per
//! balancing authority. This crate provides the small parallel-map core
//! those sweeps run on, built on `std::thread::scope` (the container this
//! workspace builds in has no crates.io access, so rayon itself cannot be
//! fetched; this is the same contiguous-chunk + indexed-collect shape a
//! rayon `par_iter().map().collect()` would compile to for these
//! workloads).
//!
//! Guarantees:
//!
//! - **Deterministic output order**: results are returned in input order,
//!   assembled from per-thread contiguous chunks — never in completion
//!   order. For a pure `f`, output is bitwise-identical to the serial map.
//! - **No nested oversubscription**: a `par_map` issued from inside a
//!   worker thread runs serially, so outer parallelism (e.g. per-site
//!   experiment loops) composes with inner parallelism (per-design sweeps)
//!   without spawning `threads²` workers.
//! - **Per-thread scratch**: [`par_map_with`] hands each worker one
//!   scratch value for its whole chunk, the std-thread equivalent of
//!   rayon's thread-local `map_init` — allocation-free inner loops reuse
//!   buffers across a chunk.
//! - **Strided reductions**: [`par_fold_strided_with`] deals items to
//!   lanes round-robin and hands each lane its items' input indices, so a
//!   reduction that skips work unevenly along the input still splits it
//!   evenly, and an index tie-break keeps its result equal to the serial
//!   fold's.
//!
//! The worker count comes from `std::thread::available_parallelism`,
//! overridable with the `CE_THREADS` environment variable (`CE_THREADS=1`
//! forces every sweep serial, which is how the determinism tests compare
//! paths).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::iter::{Enumerate, Skip, StepBy};
use std::slice;
use std::thread;

thread_local! {
    /// Set while the current thread is a parallel-region worker; nested
    /// regions fall back to serial execution.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads parallel regions may use.
///
/// Reads `CE_THREADS` if set (clamped to at least 1), otherwise
/// `std::thread::available_parallelism`.
// ce:nonblocking
pub fn max_threads() -> usize {
    if let Ok(value) = std::env::var("CE_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `true` if the calling thread is already inside a parallel region (its
/// `par_map` calls will run serially).
// ce:nonblocking
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Runs `f` with this thread marked as a parallel-region worker, so every
/// `par_map`/`par_fold` issued inside executes serially on the calling
/// thread.
///
/// This is the explicit form of the nested-region guard, for callers that
/// manage their own thread pool — e.g. `ce-serve`'s request workers, where
/// the pool itself is the parallelism and a nested sweep fanning out to
/// `threads²` workers would wreck tail latency. Because parallel and
/// serial sweeps are bitwise-identical by construction, wrapping a
/// computation in `run_serial` never changes its result, only its
/// scheduling.
///
/// The flag is restored on exit even if `f` panics, so a worker thread
/// that catches the panic is not left permanently serialized (or
/// permanently marked if it was not a worker to begin with).
// ce:nonblocking
pub fn run_serial<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_PARALLEL_REGION.with(Cell::get));
    IN_PARALLEL_REGION.with(|flag| flag.set(true));
    f()
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Falls back to a serial map when the input is tiny, only one thread is
/// available, or the caller is itself a parallel-region worker.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), move |(), item| f(item))
}

/// [`par_map`] with a per-worker scratch value: each worker calls `init`
/// once and reuses the scratch across every item of its chunk.
///
/// Results are returned in input order regardless of thread scheduling.
pub fn par_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 || items.len() <= 1 || in_parallel_region() {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }

    let chunk_size = items.len().div_ceil(threads);
    let mut results = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(|| {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let mut scratch = init();
                    let out: Vec<R> = chunk.iter().map(|item| f(&mut scratch, item)).collect();
                    IN_PARALLEL_REGION.with(|flag| flag.set(false));
                    out
                })
            })
            .collect();
        // Joining in spawn order reassembles input order: chunks are
        // contiguous, and each worker preserves order within its chunk.
        for handle in handles {
            match handle.join() {
                Ok(out) => results.extend(out),
                // Re-raise the worker's own panic payload on the caller —
                // same observable behavior as a serial map that panicked.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// The items one lane of [`par_fold_strided_with`] folds: `(index, item)`
/// pairs at indices `l, l + T, l + 2T, …` for lane `l` of `T`, in
/// increasing index order.
pub type Lane<'a, T> = StepBy<Skip<Enumerate<slice::Iter<'a, T>>>>;

/// Parallel strided fold-then-combine: lane `l` of `T` folds items `l`,
/// `l + T`, `l + 2T`, … (in that order, each paired with its input index)
/// into one accumulator with `fold_lane`, and the lane accumulators are
/// combined **in lane order** with `combine` on the joining thread.
/// Returns `None` for empty input.
///
/// This is the reduction counterpart of [`par_map_with`]: nothing
/// proportional to `items.len()` is materialized, so a sweep looking for
/// a minimum carries one candidate per lane instead of a full result
/// vector. Striding rather than chunking spreads every region of the
/// input across all lanes, so a fold whose cost falls along the input
/// (one that skips work it can prove useless) still keeps every worker
/// busy. A lane sees its items in increasing index order, and the
/// indices let `combine` restore input order: a first-winner minimum
/// that breaks ties by the lower index selects exactly what the serial
/// fold over all items selects.
///
/// Falls back to a single serial lane for a single item, one available
/// thread, or when called from inside a parallel region.
pub fn par_fold_strided_with<T, S, A, I, F, C>(
    items: &[T],
    init: I,
    fold_lane: F,
    combine: C,
) -> Option<A>
where
    T: Sync,
    A: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Lane<'_, T>) -> A + Sync,
    C: FnMut(A, A) -> A,
{
    fold_strided(items, max_threads(), init, fold_lane, combine)
}

/// [`par_fold_strided_with`] over at most `lanes` lanes.
fn fold_strided<T, S, A, I, F, C>(
    items: &[T],
    lanes: usize,
    init: I,
    fold_lane: F,
    mut combine: C,
) -> Option<A>
where
    T: Sync,
    A: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Lane<'_, T>) -> A + Sync,
    C: FnMut(A, A) -> A,
{
    if items.is_empty() {
        return None;
    }
    let lanes = if in_parallel_region() {
        1
    } else {
        lanes.clamp(1, items.len())
    };
    let lane = |l: usize| items.iter().enumerate().skip(l).step_by(lanes);
    if lanes == 1 {
        return Some(fold_lane(&mut init(), lane(0)));
    }

    let mut result: Option<A> = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|l| {
                let (init, fold_lane) = (&init, &fold_lane);
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let acc = fold_lane(&mut init(), lane(l));
                    IN_PARALLEL_REGION.with(|flag| flag.set(false));
                    acc
                })
            })
            .collect();
        // Joining in spawn order keeps the combine sequence identical to
        // the lane order, hence deterministic.
        for handle in handles {
            let acc = match handle.join() {
                Ok(acc) => acc,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            result = Some(match result.take() {
                Some(prev) => combine(prev, acc),
                None => acc,
            });
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        let expected: Vec<usize> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn matches_serial_map_bitwise_for_floats() {
        let items: Vec<f64> = (0..5_000).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e9).mul_add(*x, 1.0 / (x + 0.5));
        let parallel = par_map(&items, f);
        let serial: Vec<f64> = items.iter().map(f).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn scratch_is_reused_within_a_chunk() {
        let items: Vec<usize> = (0..100).collect();
        let inits = AtomicUsize::new(0);
        let results = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, &item| {
                scratch.push(item);
                scratch.len()
            },
        );
        // Scratch init count is bounded by the worker count, far below the
        // item count, proving reuse across items.
        assert!(inits.load(Ordering::SeqCst) <= max_threads());
        assert_eq!(results.len(), items.len());
    }

    #[test]
    fn nested_regions_run_serially_not_exponentially() {
        let outer: Vec<usize> = (0..8).collect();
        let results = par_map(&outer, |&i| {
            assert!(in_parallel_region() || max_threads() == 1);
            let inner: Vec<usize> = (0..100).collect();
            par_map(&inner, |&j| i * 1000 + j).len()
        });
        assert_eq!(results, vec![100; 8]);
        assert!(!in_parallel_region());
    }

    /// Each lane's indices, lanes concatenated in combine order.
    fn lane_indices(n: usize, lanes: usize) -> Option<Vec<Vec<usize>>> {
        let items: Vec<usize> = (0..n).map(|i| i * 10).collect();
        fold_strided(
            &items,
            lanes,
            || (),
            |(), lane| {
                vec![lane
                    .map(|(i, &item)| {
                        assert_eq!(item, i * 10, "index paired with the wrong item");
                        i
                    })
                    .collect::<Vec<usize>>()]
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        )
    }

    #[test]
    fn strided_lanes_cover_every_item_in_lane_order() {
        // Fewer, equal and more items than lanes, for 1 to 5 lanes.
        for lanes in 1..=5 {
            for n in 1..=12 {
                let used = lanes.min(n);
                let expected: Vec<Vec<usize>> =
                    (0..used).map(|l| (l..n).step_by(used).collect()).collect();
                assert_eq!(
                    lane_indices(n, lanes),
                    Some(expected),
                    "{n} items over {lanes} lanes"
                );
            }
        }
    }

    #[test]
    fn strided_fold_of_empty_input_is_none() {
        for lanes in 1..=5 {
            assert_eq!(lane_indices(0, lanes), None);
        }
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            par_fold_strided_with(&empty, || (), |(), lane| lane.count(), |a, b| a + b),
            None
        );
    }

    #[test]
    fn strided_first_minimum_matches_serial_fold() {
        // Many ties: the lane folds keep their first minimum, and the
        // combine breaks ties by the lower index, so every lane count must
        // select the serial fold's (value, index).
        let items: Vec<f64> = (0..1_000)
            .map(|i| ((i * 7919) % 100) as f64 * 0.5)
            .collect();
        let fold = |(): &mut (), lane: Lane<'_, f64>| {
            lane.fold(None::<(f64, usize)>, |best, (i, &v)| match best {
                Some((bv, _)) if bv <= v => best,
                _ => Some((v, i)),
            })
        };
        let combine = |a: Option<(f64, usize)>, b: Option<(f64, usize)>| match (a, b) {
            (Some((av, ai)), Some((bv, bi))) => {
                if bv < av || (bv == av && bi < ai) {
                    b
                } else {
                    a
                }
            }
            (a, None) => a,
            (None, b) => b,
        };
        let min = items.iter().copied().fold(f64::INFINITY, f64::min);
        let serial = items.iter().position(|&v| v == min).map(|i| (min, i));
        assert_eq!(serial, Some((0.0, 0)));
        for lanes in 1..=5 {
            let strided = fold_strided(&items, lanes, || (), fold, combine).flatten();
            assert_eq!(strided, serial, "{lanes} lanes");
        }
    }

    #[test]
    fn strided_scratch_is_per_lane() {
        let items: Vec<usize> = (0..1_000).collect();
        for lanes in 1..=5 {
            let inits = AtomicUsize::new(0);
            let total = fold_strided(
                &items,
                lanes,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |scratch, lane| {
                    *scratch += lane.count();
                    *scratch
                },
                |a, b| a + b,
            );
            assert_eq!(total, Some(items.len()));
            assert_eq!(inits.load(Ordering::SeqCst), lanes);
        }
    }

    #[test]
    fn strided_fold_inside_a_parallel_region_runs_one_lane() {
        let nested = run_serial(|| lane_indices(7, 3));
        assert_eq!(nested, Some(vec![(0..7).collect()]));
        assert!(!in_parallel_region());
    }

    #[test]
    fn strided_lane_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        for lanes in 1..=5 {
            let result = std::panic::catch_unwind(|| {
                fold_strided(
                    &items,
                    lanes,
                    || (),
                    |(), lane| {
                        lane.map(|(_, &x)| {
                            assert!(x != 13, "boom");
                            x
                        })
                        .sum::<usize>()
                    },
                    |a, b| a + b,
                )
            });
            assert!(result.is_err(), "{lanes} lanes");
            assert!(!in_parallel_region());
        }
    }

    #[test]
    fn run_serial_forces_serial_and_restores() {
        assert!(!in_parallel_region());
        let items: Vec<usize> = (0..64).collect();
        let result = run_serial(|| {
            assert!(in_parallel_region());
            par_map(&items, |&x| x + 1)
        });
        assert_eq!(result[63], 64);
        assert!(!in_parallel_region());
        // Restored even when the closure panics.
        let caught = std::panic::catch_unwind(|| run_serial(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!in_parallel_region());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
