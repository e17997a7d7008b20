//! Deterministic multi-core execution for the slot pipeline.
//!
//! Every hot per-slot kernel (CSR row construction, force accumulation,
//! k-means distances, per-DC packing and interval simulation) funnels
//! through this module, so the whole workspace parallelizes the same way
//! and inherits the same contract:
//!
//! > **Determinism contract.** For a fixed input, every thread count
//! > produces bit-identical output.
//!
//! Three rules enforce it:
//!
//! 1. **Chunk boundaries are a function of the problem size only** —
//!    [`chunk_size`] never looks at the thread count, so the set of
//!    chunks (and therefore every partial result) is the same whether
//!    one thread or sixteen work through them.
//! 2. **Workers never share mutable state.** Each chunk either writes a
//!    disjoint output slice ([`Exec::map_mut`]) or produces an owned
//!    partial keyed by its chunk index ([`Exec::map_chunks`]).
//! 3. **Partials are combined in ascending chunk order** on the calling
//!    thread ([`Exec::map_chunks`] returns them in that order), so
//!    non-associative floating-point folds see one fixed operand
//!    sequence.
//!
//! Scheduling *is* dynamic (an atomic chunk counter balances uneven
//! chunks across workers), which is safe precisely because results are
//! keyed by chunk, not by completion order. Threads are scoped
//! ([`std::thread::scope`]) — no pool state outlives a call, borrows of
//! caller data need no `'static`, and no external crate is required.
//!
//! # Examples
//!
//! ```
//! use geoplace_types::exec::{Exec, Parallelism};
//!
//! let exec = Exec::new(Parallelism::Threads(4));
//! let data: Vec<u64> = (0..10_000).collect();
//! // Chunked sum, folded in ascending chunk order: identical at any
//! // thread count (and here, with integers, to the serial sum too).
//! let total: u64 = exec
//!     .map_chunks(data.len(), |range| range.map(|i| data[i]).sum::<u64>())
//!     .into_iter()
//!     .sum();
//! assert_eq!(total, data.iter().sum::<u64>());
//! ```

use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads the slot pipeline may use.
///
/// Lives in `ScenarioConfig` only: the engine resolves it once into an
/// [`Exec`] and hands that same context to the policy with every
/// `SystemSnapshot`, so the engine's and the policy's kernels share one
/// budget. Thanks to the determinism contract the setting affects
/// wall-clock only, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use every core the OS reports ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Exactly this many worker threads (clamped to ≥ 1); `Threads(1)`
    /// runs every kernel inline on the calling thread.
    Threads(usize),
}

impl Parallelism {
    /// The concrete worker count this setting resolves to on this host.
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Threads(n) => n.max(1),
            // audit:allow(D2): core count picks the worker pool size only; reports are bit-identical at any thread count (parallel_determinism.rs proves it)
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Fixed chunking rule shared by every deterministic kernel: a function
/// of the item count only, *never* of the thread count (rule 1 of the
/// module contract). Sized so that even small inputs split into enough
/// chunks to balance, while huge inputs do not drown in per-chunk
/// overhead.
pub fn chunk_size(n: usize) -> usize {
    (n / 128).clamp(16, 4096).max(1)
}

/// A resolved execution context: a worker count plus the deterministic
/// chunked helpers. Cheap to copy and pass by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    threads: usize,
}

impl Default for Exec {
    /// Defaults to [`Parallelism::Auto`].
    fn default() -> Self {
        Exec::new(Parallelism::Auto)
    }
}

impl Exec {
    /// Resolves a [`Parallelism`] setting into an execution context.
    pub fn new(parallelism: Parallelism) -> Self {
        Exec {
            threads: parallelism.resolve(),
        }
    }

    /// The single-threaded context (kernels run inline).
    pub fn serial() -> Self {
        Exec { threads: 1 }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n` into [`chunk_size`]-sized chunks, runs `f` once per
    /// chunk across the worker threads, and returns the per-chunk results
    /// in ascending chunk order — bit-identical at every thread count.
    pub fn map_chunks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map_chunks_sized(n, chunk_size(n), f)
    }

    /// [`Exec::map_chunks`] with an explicit chunk length. The caller's
    /// `chunk` must be a function of the problem, never of the thread
    /// count, or the determinism contract is forfeit. Use for fan-outs
    /// whose natural unit is one item (e.g. one DC), where the default
    /// rule would lump everything into a single chunk.
    pub fn map_chunks_sized<R, F>(&self, n: usize, chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = n.div_ceil(chunk);
        let range_of = |index: usize| index * chunk..((index + 1) * chunk).min(n);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            return (0..n_chunks).map(|index| f(range_of(index))).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
        slots.resize_with(n_chunks, || None);
        std::thread::scope(|scope| {
            let next = &next;
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut produced: Vec<(usize, R)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n_chunks {
                                break;
                            }
                            produced.push((index, f(range_of(index))));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                for (index, result) in join(handle) {
                    slots[index] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk is claimed exactly once"))
            .collect()
    }

    /// Runs `f` once per item of `items` (contiguous chunks of the slice
    /// go to separate workers) and returns the results in item order.
    /// Each invocation owns its item mutably and nothing else, so the
    /// outcome is independent of the thread count by construction. Made
    /// for small fan-outs of heavyweight items — e.g. one data center's
    /// tick loop per worker.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(index, item)| f(index, item))
                .collect();
        }
        let per_worker = n.div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = items
                .chunks_mut(per_worker)
                .enumerate()
                .map(|(worker, chunk)| {
                    let start = worker * per_worker;
                    scope.spawn(move || {
                        chunk
                            .iter_mut()
                            .enumerate()
                            .map(|(offset, item)| f(start + offset, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(join).collect()
        })
    }
}

/// Joins a scoped worker, re-raising its panic on the calling thread so
/// a kernel failure surfaces as itself rather than as a join error.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolves_sanely() {
        assert_eq!(Parallelism::Threads(3).resolve(), 3);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn chunking_ignores_thread_count() {
        // The rule is pure in n; spot-check monotone bounds.
        assert_eq!(chunk_size(0), 16);
        assert_eq!(chunk_size(10), 16);
        assert_eq!(chunk_size(10_000), 78);
        assert_eq!(chunk_size(10_000_000), 4096);
    }

    #[test]
    fn map_chunks_orders_results_by_chunk() {
        for threads in [1usize, 2, 3, 8] {
            let exec = Exec::new(Parallelism::Threads(threads));
            let out = exec.map_chunks_sized(10, 3, |range| (range.start, range.end));
            assert_eq!(out, vec![(0, 3), (3, 6), (6, 9), (9, 10)], "t={threads}");
        }
    }

    #[test]
    fn map_chunks_handles_empty_input() {
        let exec = Exec::new(Parallelism::Threads(4));
        let out: Vec<usize> = exec.map_chunks(0, |range| range.len());
        assert!(out.is_empty());
    }

    #[test]
    fn map_mut_sees_every_item_once_in_order() {
        for threads in [1usize, 2, 4, 8] {
            let exec = Exec::new(Parallelism::Threads(threads));
            let mut items: Vec<u32> = (0..37).collect();
            let out = exec.map_mut(&mut items, |index, item| {
                *item *= 2;
                index as u32
            });
            assert_eq!(out, (0..37).collect::<Vec<u32>>(), "t={threads}");
            assert!(items.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Exec::new(Parallelism::Threads(2));
        let result = std::panic::catch_unwind(|| {
            exec.map_chunks_sized(8, 1, |range| {
                assert!(range.start != 5, "boom");
                range.start
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn serial_and_parallel_contexts_compare() {
        assert_eq!(Exec::serial().threads(), 1);
        assert_eq!(Exec::new(Parallelism::Threads(1)), Exec::serial());
        assert!(Exec::default().threads() >= 1);
    }
}
