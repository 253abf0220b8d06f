//! A deterministic fork/join helper.
//!
//! One run of the simulator is single-threaded; parallelism lives across
//! runs: the scenario engine executes independent (overlay × repetition)
//! units on a pool of OS threads.  The thread budget is an **argument** of
//! [`run_indexed`]: a binary parses `--threads N` (defaulting to
//! [`default_threads`]) and hands the number down to the engine it calls.
//! Nothing here is process-wide, so concurrent callers — tests in one
//! binary, say — cannot observe each other's budget.
//!
//! Determinism contract: [`run_indexed`] assigns each unit a fixed index
//! and returns results **in index order**, so callers that aggregate in
//! index order produce byte-identical output regardless of how many worker
//! threads happened to execute the units, or in which wall-clock order they
//! finished.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The machine's available parallelism (what `--threads` defaults to),
/// falling back to 1 if it is unknown.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `count` independent units on up to `threads` worker threads and
/// returns their results **in index order**.
///
/// Workers claim unit indices from a shared atomic counter, so the
/// assignment of units to threads is racy — but each unit's inputs depend
/// only on its index and the results are reassembled by index, which is
/// what keeps the output bit-deterministic for any thread count.  With a
/// budget of one (or a single unit) the units run inline on the caller's
/// thread, with no pool at all.
pub fn run_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("worker panicked"));
        }
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("unit {i} produced no result")))
        .collect()
}

// ---------------------------------------------------------------------------
// Compatibility block — `with_threads`, kept for exactly one caller:
// `benchmarks/src/sut.rs::run_churn_scenario` wraps its
// `run_scenario_with_options(.., None, None)` call in `with_threads(1, ..)`
// (`benchmarks/` is frozen outside `benchmark` PRs).  There is no budget left
// to scope, so it is a pass-through — and still truthful, because
// `run_scenario_with_options` runs on one thread by itself.  The next
// `benchmark` PR drops the wrapper there and deletes this block.  Nothing
// under `crates/`, `tests/` or `examples/` may call it (CI greps for it).
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub fn with_threads<R>(_n: usize, f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_budget_runs_inline() {
        let out = run_indexed(1, 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_units_is_fine() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }
}
