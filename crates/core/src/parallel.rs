//! A from-scratch, dependency-free worker pool for fanning independent
//! pair runs across OS threads (std scoped threads; the workspace is
//! offline, so no rayon).
//!
//! ## Determinism under parallelism
//!
//! [`map_ordered`] guarantees that for any thread count the output is
//! the element-wise result of applying `f` to the input slice, in input
//! order. Workers pull indices from a shared atomic counter (dynamic
//! load balancing — pair runs vary 10× in cost with clip length), but
//! every result is written back into the slot of the index it came
//! from, so the merge order is canonical regardless of which worker ran
//! which job or in what order jobs finished. As long as `f` itself is a
//! pure function of its input (every pair run owns its derived seed and
//! its own telemetry registries; no shared mutable state crosses runs),
//! the output is byte-identical to the sequential map.
//!
//! ## Panic propagation
//!
//! A panicking job must fail the whole map with the original payload,
//! not hang the pool. Each job runs under `catch_unwind`; on a panic
//! the worker raises an abort flag that the other workers poll between
//! jobs, so they drain quickly instead of working through the remaining
//! queue. The first panic payload (by input index, making even the
//! failure deterministic) is re-raised on the caller's thread once all
//! workers have parked.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Threads the host can usefully run, with a safe floor of 1 when the
/// runtime cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested thread count to what `jobs` jobs can use on a
/// host `host` threads wide (callers pass [`available_threads`]).
/// `0` means *auto*: the host's width, capped at the job count. An
/// explicit request is honoured up to the job count — there is never
/// a reason to spawn more workers than jobs; the surplus would sit
/// idle on the counter.
pub fn effective_threads(requested: usize, jobs: usize, host: usize) -> usize {
    let requested = if requested == 0 { host } else { requested };
    requested.min(jobs).max(1)
}

/// Apply `f` to every item, using up to `threads` worker threads, and
/// return the results in input order. `threads <= 1` (or fewer than
/// two items) degrades to a plain sequential map on the caller's
/// thread — no workers are spawned.
///
/// # Panics
/// Re-raises the panic of the lowest-indexed panicking job after every
/// worker has stopped (see module docs).
pub fn map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads, items.len(), available_threads());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);

    // One (index, payload) per panicking job; collected, then the
    // lowest index re-raised.
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let abort = &abort;
                let f = &f;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut failed: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= items.len() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&items[idx]))) {
                            Ok(result) => done.push((idx, result)),
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                failed.push((idx, payload));
                                break;
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        for handle in handles {
            // Workers catch their own job panics, so join only fails on
            // something unrecoverable inside the harness itself.
            let (done, failed) = handle.join().expect("worker harness panicked");
            for (idx, result) in done {
                slots[idx] = Some(result);
            }
            panics.extend(failed);
        }
    });

    if let Some((_, payload)) = panics.into_iter().min_by_key(|(idx, _)| *idx) {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("pool filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                map_ordered(&items, threads, |x| x * x + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn order_is_canonical_despite_unequal_job_costs() {
        // Early items cost the most, so they finish last — the merge
        // must still come back in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = map_ordered(&items, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(
            map_ordered::<u64, u64, _>(&[], 8, |x| *x),
            Vec::<u64>::new()
        );
        assert_eq!(map_ordered(&[9u64], 8, |x| *x), vec![9]);
    }

    #[test]
    fn effective_threads_resolves_auto_and_caps_at_jobs() {
        // 0 = auto: everything the host offers, capped at the jobs.
        assert_eq!(effective_threads(0, 13, 1), 1);
        assert_eq!(
            effective_threads(0, 13, 8),
            8,
            "auto must use the host's parallelism, not serialize"
        );
        assert_eq!(effective_threads(0, 13, 64), 13);
        assert_eq!(effective_threads(0, 1, 8), 1);
        // An explicit request ignores the host width.
        assert_eq!(effective_threads(1, 13, 8), 1);
        assert_eq!(effective_threads(4, 13, 1), 4);
        assert_eq!(effective_threads(64, 13, 8), 13);
        // Never fewer than one worker, even with nothing to do.
        assert_eq!(effective_threads(4, 0, 8), 1);
        assert_eq!(effective_threads(0, 0, 8), 1);
        assert_eq!(effective_threads(0, 13, 0), 1);
    }

    #[test]
    fn panicking_job_fails_the_map_without_hanging() {
        let items: Vec<u64> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_ordered(&items, 4, |&x| {
                if x == 7 {
                    panic!("job 7 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("job 7 exploded"), "payload: {message}");
    }

    #[test]
    fn lowest_indexed_panic_wins_when_several_jobs_fail() {
        let items: Vec<u64> = (0..24).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_ordered(&items, 3, |&x| {
                if x % 2 == 1 {
                    panic!("odd job {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "odd job 1");
    }

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }
}
