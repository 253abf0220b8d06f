//! Batched query admission over routing snapshots: the workload half of the
//! concurrent serve front-end.
//!
//! Queries are admitted in fixed-size batches.  A batch is the unit of
//! everything amortised: snapshot acquisition (one
//! [`SnapshotReader::refresh`] — a single atomic load in steady state),
//! RNG setup, and stats flushing.  Batch `b`'s queries are derived purely
//! from `(seed, b)`, and batches are assigned to workers round-robin by
//! index, so the *work* — keys, routing start hints, per-query answers —
//! is bit-identical at any thread count; only wall-clock timing varies.
//! Worker counters are integers merged after the run
//! ([`ServeCounters::merge`] commutes), which pins deterministic totals
//! and an order-independent checksum across 1..T threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use baton_net::serve::{ServeCounters, SnapshotCell, SnapshotReader};
use baton_net::SimRng;

use crate::keys::{KeyDistribution, KeyGenerator};

/// What one serve run executes.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Total queries to admit.
    pub queries: u64,
    /// Queries per batch (the amortisation unit; clamped to at least 1).
    pub batch: usize,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Key mix the query stream draws from.
    pub distribution: KeyDistribution,
    /// `None` = exact-match queries; `Some(span)` = range queries over
    /// `[key, key + span)`.
    pub range_span: Option<u64>,
    /// Stream seed: batch `b` derives its keys from `(seed, b)` alone.
    pub seed: u64,
}

impl ServeConfig {
    /// An exact-query run with the defaults the serve bench uses: batches
    /// of 256, uniform keys.
    pub fn exact(queries: u64, threads: usize, seed: u64) -> Self {
        Self {
            queries,
            batch: 256,
            threads,
            distribution: KeyDistribution::Uniform,
            range_span: None,
            seed,
        }
    }

    /// The same run shape over range queries of the given span.
    pub fn range(queries: u64, threads: usize, seed: u64, span: u64) -> Self {
        Self {
            range_span: Some(span),
            ..Self::exact(queries, threads, seed)
        }
    }
}

/// Aggregate outcome of one serve run.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Counters merged across workers — identical at any thread count.
    pub counters: ServeCounters,
    /// Each worker's own counters, in worker order.
    pub per_worker: Vec<ServeCounters>,
    /// Batches executed.
    pub batches: u64,
    /// Snapshot refreshes that actually swapped a worker's cached `Arc`.
    pub refreshes: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl ServeOutcome {
    /// Queries per wall-clock second.
    pub fn per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.counters.queries as f64 / secs
        } else {
            0.0
        }
    }
}

/// SplitMix64 mix of the stream seed and a batch index: the *only* source
/// of per-batch randomness, so the stream is independent of thread count.
#[inline]
fn batch_seed(seed: u64, batch: u64) -> u64 {
    let mut z = seed ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a batched serve workload against the snapshots published through
/// `cell`, from `config.threads` OS threads.
pub fn run_serve(cell: &Arc<SnapshotCell>, config: &ServeConfig) -> ServeOutcome {
    let threads = config.threads.max(1);
    let batch = config.batch.max(1) as u64;
    let batches = config.queries.div_ceil(batch);
    let refreshes = AtomicU64::new(0);
    let mut per_worker: Vec<ServeCounters> = vec![ServeCounters::default(); threads];
    let started = Instant::now();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cell = Arc::clone(cell);
            let refreshes = &refreshes;
            let config = *config;
            handles.push(scope.spawn(move || {
                let mut reader = SnapshotReader::new(cell);
                let generator = KeyGenerator::paper(config.distribution);
                let mut counters = ServeCounters::default();
                let mut index = worker as u64;
                while index < batches {
                    reader.refresh();
                    let snapshot = reader.snapshot();
                    let first = index * batch;
                    let last = (first + batch).min(config.queries);
                    let mut rng = SimRng::seeded(batch_seed(config.seed, index));
                    for _ in first..last {
                        let key = generator.next_key(&mut rng);
                        let hint = rng.next_u64();
                        match config.range_span {
                            None => {
                                snapshot.exact(key, hint, &mut counters);
                            }
                            Some(span) => {
                                snapshot.range(key, key.saturating_add(span), hint, &mut counters);
                            }
                        }
                    }
                    index += threads as u64;
                }
                refreshes.fetch_add(reader.refreshes, Ordering::Relaxed);
                counters
            }));
        }
        for (worker, handle) in handles.into_iter().enumerate() {
            per_worker[worker] = handle.join().expect("serve worker panicked");
        }
    });

    let elapsed = started.elapsed();
    let mut counters = ServeCounters::default();
    for worker in &per_worker {
        counters.merge(worker);
    }
    ServeOutcome {
        counters,
        per_worker,
        batches,
        refreshes: refreshes.load(Ordering::Relaxed),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_net::serve::{ExactPlacement, SnapshotBuilder};

    fn cell() -> Arc<SnapshotCell> {
        let mut b = SnapshotBuilder::new(
            ExactPlacement::DomainPartition,
            (crate::keys::DOMAIN_LOW, crate::keys::DOMAIN_HIGH),
        );
        let step = (crate::keys::DOMAIN_HIGH - crate::keys::DOMAIN_LOW) / 8;
        for i in 0..8u64 {
            let high = if i == 7 {
                crate::keys::DOMAIN_HIGH
            } else {
                crate::keys::DOMAIN_LOW + (i + 1) * step
            };
            b.push_slot(i as u32, high, true);
            b.push_item(crate::keys::DOMAIN_LOW + i * step + 1, i + 1);
            b.seal_slot();
        }
        for i in 0..8usize {
            if i > 0 {
                b.link(i, i - 1, baton_net::LinkKind::Adjacent);
            }
            if i < 7 {
                b.link(i, i + 1, baton_net::LinkKind::Adjacent);
            }
        }
        Arc::new(SnapshotCell::new(b.finish()))
    }

    #[test]
    fn thread_count_never_changes_the_work() {
        let cell = cell();
        let t1 = run_serve(&cell, &ServeConfig::exact(5_000, 1, 42));
        let t2 = run_serve(&cell, &ServeConfig::exact(5_000, 2, 42));
        let t4 = run_serve(&cell, &ServeConfig::exact(5_000, 4, 42));
        assert_eq!(t1.counters, t2.counters);
        assert_eq!(t1.counters, t4.counters);
        assert_eq!(t1.counters.queries, 5_000);
        assert_eq!(t1.batches, t2.batches);
    }

    #[test]
    fn range_runs_sweep_slots() {
        let cell = cell();
        let span = (crate::keys::DOMAIN_HIGH - crate::keys::DOMAIN_LOW) / 4;
        let outcome = run_serve(&cell, &ServeConfig::range(500, 2, 7, span));
        assert_eq!(outcome.counters.queries, 500);
        assert!(
            outcome.counters.slots_swept >= 500 * 2,
            "span covers 2+ slots"
        );
    }

    #[test]
    fn zipf_mix_and_sampling_produce_a_series() {
        let cell = cell();
        let config = ServeConfig {
            queries: 20_000,
            batch: 64,
            threads: 2,
            distribution: KeyDistribution::Zipf { theta: 1.0 },
            range_span: None,
            seed: 9,
        };
        let outcome = run_serve(&cell, &config);
        assert_eq!(outcome.counters.queries, 20_000);
        assert_eq!(outcome.batches, 20_000_u64.div_ceil(64));
    }
}
