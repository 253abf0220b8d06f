//! Process-global thread-count knob and a deterministic fork/join helper.
//!
//! One run of the simulator is single-threaded; parallelism lives across
//! runs: the scenario engine executes independent (overlay × repetition)
//! units on a pool of OS threads.  The thread budget comes from this
//! module: `--threads N` on the binaries calls [`set_threads`], everything
//! else calls [`threads`].
//!
//! Determinism contract: [`run_indexed`] assigns each unit a fixed index
//! and returns results **in index order**, so callers that aggregate in
//! index order produce byte-identical output regardless of how many worker
//! threads happened to execute the units, or in which wall-clock order they
//! finished.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// `0` means "not set": fall back to the machine's available parallelism.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serialises [`with_threads`] callers: the budget is process-global, so
/// two concurrent scoped overrides would cross-talk without this lock.
static THREADS_SCOPE: Mutex<()> = Mutex::new(());

/// Sets the worker-thread budget for this process.
///
/// `0` restores the default (available parallelism).  Mirrors the style of
/// the process-global overlay filter: a plain global because the binaries
/// configure it once from the command line before any run starts.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The configured worker-thread budget: the value of the last
/// [`set_threads`] call, or the machine's available parallelism when unset
/// (falling back to 1 if even that is unknown).
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// The machine's available parallelism (what `--threads` defaults to).
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the process-global thread budget temporarily set to `n`,
/// restoring the previous value afterwards (also on panic).
///
/// Scoped overrides from different threads are **serialised** against each
/// other: `set_threads` writes a process-wide atomic, so two concurrent
/// callers would otherwise observe each other's budget mid-run.  Tests and
/// harness code that need a specific budget should use this instead of raw
/// `set_threads`/`set_threads(0)` pairs.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _scope = THREADS_SCOPE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREADS.swap(n, Ordering::Relaxed));
    f()
}

/// Runs `count` independent units on up to [`threads`] worker threads and
/// returns their results **in index order**.
///
/// Workers claim unit indices from a shared atomic counter, so the
/// assignment of units to threads is racy — but each unit's inputs depend
/// only on its index and the results are reassembled by index, which is
/// what keeps the output bit-deterministic for any thread count.  With a
/// budget of one (or a single unit) the units run inline on the caller's
/// thread, with no pool at all.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(threads(), count, f)
}

/// [`run_indexed`] with an **explicit** thread budget instead of the
/// process-global one.
///
/// This is the test-safe entry point: callers that must not be affected by
/// (or affect) the global `--threads` knob pass their budget directly, so
/// concurrently running tests cannot cross-talk through the shared atomic.
pub fn run_indexed_with<T, F>(thread_budget: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = thread_budget.max(1).min(count);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed_with(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_budget_runs_inline() {
        let out = run_indexed_with(1, 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_units_is_fine() {
        let out: Vec<usize> = run_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_budget_round_trips() {
        with_threads(3, || assert_eq!(threads(), 3));
        assert!(threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn explicit_budget_ignores_the_global_knob() {
        with_threads(1, || {
            // The global says "1 worker"; the explicit call still fans out
            // (and, more importantly, still returns index-ordered results).
            let out = run_indexed_with(4, 50, |i| i + 7);
            assert_eq!(out, (7..57).collect::<Vec<_>>());
            assert_eq!(threads(), 1);
        });
    }

    #[test]
    fn scoped_overrides_do_not_cross_talk() {
        // Regression test for the process-wide `set_threads` atomic: two
        // threads racing scoped overrides must each observe exactly their
        // own budget for the whole scope.  (Nothing is asserted about
        // `threads()` outside a scope: sibling tests hold overrides of
        // their own while this one runs.)
        thread::scope(|scope| {
            for budget in [2usize, 5] {
                scope.spawn(move || {
                    for _ in 0..50 {
                        with_threads(budget, || {
                            assert_eq!(threads(), budget);
                            let out = run_indexed(8, |i| i);
                            assert_eq!(out, (0..8).collect::<Vec<_>>());
                            assert_eq!(threads(), budget);
                        });
                    }
                });
            }
        });
    }
}
