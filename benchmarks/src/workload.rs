//! What a workload is to the runner: set-up, fixed-work repetitions, and a
//! verified summary of the simulated counters.
//!
//! A run is a sequence of *cycles*.  Each cycle sets the workload up from
//! scratch (timed as one `setup_s` sample), runs its repetitions (each timed
//! as one `ops_per_s` sample) and summarises the simulated counters.  Every
//! cycle of a run does identical work from the same seed, so the summaries
//! must be equal: simulated metrics do not depend on how many cycles fit
//! into `--seconds`, and any nondeterminism in the simulator shows as a
//! failed run.

use std::collections::BTreeMap;

use crate::trace::{Ledger, Tracer};

/// Full-size workloads, or the `--smoke` sizes (N <= 500, one repetition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes README.md documents.
    Full,
    /// Small enough for all seven workloads to finish in seconds.
    Smoke,
}

/// Simulated counters of one cycle.  Everything here comes from
/// `MessageStats`, `OpenLoopOutcome`, `ServeCounters` or the reference
/// model, never from a clock, and must repeat exactly for a fixed seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounts {
    /// Operations attempted by the repetitions (capability skips left out).
    pub ops: u64,
    /// Simulated messages: `total_sent` delta, or serve-tier hops.
    pub msgs: u64,
    /// Operations `msgs` is spread over.
    pub msg_ops: u64,
    /// First-try messages of exact-match and range queries: those sent
    /// before a query's first bounce off a dead peer.
    pub query_hops: u64,
    /// Exact-match and range queries.
    pub queries: u64,
    /// Operations the availability fraction is taken over: those dispatched
    /// inside a fault-assessment window where the workload has one, else
    /// all of them.
    pub asked: u64,
    /// The subset of `asked` that was answered.
    pub answered: u64,
    /// Operations that met dead, unrepaired peers: a modelled outcome.
    pub unavailable: u64,
    /// Operations not attempted because the node floor was reached.
    pub skipped: u64,
    /// Operations an overlay has no capability for (ranges on Chord); left
    /// out of `ops`.
    pub capability_skips: u64,
    /// Deliveries that bounced off a dead peer.
    pub failed_deliveries: u64,
    /// Calls that returned an error, a refusal or an invisible version.
    pub errors: u64,
    /// Virtual latency of every exact-match query, in microseconds.
    pub search_latencies_us: Vec<u64>,
    /// Estimated protocol (or snapshot) state, in bytes.
    pub state_bytes: u64,
    /// Peers (or snapshot slots) that state is spread over.
    pub peers: u64,
    /// Digest of every answer's `matches`, in order.
    pub answers_digest: u64,
    /// Simulated per-layer values, by catalog name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl SimCounts {
    /// Folds one answer into the digest.
    pub fn digest(&mut self, matches: u64) {
        self.answers_digest = (self.answers_digest ^ matches)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(17);
    }
}

/// What the untimed check of a cycle found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Answers that disagree with the reference model.
    pub mismatches: u64,
    /// The first invariant a post-run `validate()` found broken.
    pub invalid: Option<String>,
    /// Share of the probed loaded keys still found after the run (open-loop
    /// workloads; unreplicated failures lose data by design).
    pub probe_found_share: Option<f64>,
}

/// Host-clock samples a workload records beside the runner's own timing of
/// set-up and repetitions.
#[derive(Clone, Debug, Default)]
pub struct HostSamples {
    /// Wall time of each 256-query batch including its `refresh`, in
    /// microseconds (`serve_*`).
    pub batch_us: Vec<f64>,
    /// Commit to new-version-visible time of each publish cycle, in
    /// milliseconds (`serve_publish`).
    pub visible_ms: Vec<f64>,
    /// Wall time spent executing deferred repairs, in seconds (`fault_*`).
    pub repair_wall_s: f64,
}

/// One of the seven workloads.
pub trait Workload {
    /// Builds the workload's state from scratch, dropping any earlier
    /// state.  Timed by the runner as `setup_s`.
    fn setup(&mut self, tracer: &mut Tracer);

    /// Repetitions per cycle.
    fn reps(&self) -> usize;

    /// Runs repetition `index` of the current cycle and returns the
    /// operations it attempted.  Timed by the runner.
    fn rep(&mut self, index: usize, host: &mut HostSamples, tracer: &mut Tracer) -> u64;

    /// Summarises the cycle's simulated counters.
    fn finish(&mut self) -> SimCounts;

    /// Checks the cycle's answers against the reference model and the
    /// overlay's invariants.  Untimed, called after [`finish`](Self::finish)
    /// on the first cycle; later cycles are held to the first by equality
    /// of their [`SimCounts`].
    fn verify(&mut self) -> Verdict;

    /// Per-layer numbers only this workload can measure, taken on the state
    /// the last cycle left behind (traced runs only, untimed).
    fn layers(&mut self, _ledger: &mut Ledger, _tracer: &mut Tracer) {}
}
