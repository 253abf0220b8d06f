//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out when the run ends, plus the ledger the per-layer metrics are
//! collected in.
//!
//! The spans are recorded from the benchmark's own files, around public
//! functions of the repository; nothing inside the crates is instrumented.
//! A disabled tracer costs one branch per call, and end-to-end metrics are
//! always measured with it disabled.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::catalog;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary the span sits at (`"core.search.exact"`, …).
    pub name: &'static str,
    /// Identifier of the span within the run.
    pub id: u64,
    /// Identifier of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Identifier shared by the spans of one operation (the root span's).
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Totals of every span recorded under one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their child spans cover.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    op: u64,
    start_ns: u64,
    child_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
    spans: Vec<Span>,
    keep: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(false, 0)
    }

    /// A tracer that totals every span and keeps the first `keep` of them
    /// for the span file.
    pub fn enabled(keep: usize) -> Self {
        Self::new(true, keep)
    }

    fn new(enabled: bool, keep: usize) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            spans: Vec::new(),
            keep,
            dropped: 0,
        }
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`exit`](Self::exit).  A span opened while no
    /// other is open starts a new operation.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let op = self.stack.first().map_or(id, |root| root.op);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            id,
            op,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let duration = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals of the spans recorded under `name` (zeros if none).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans recorded under `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    /// Every name recorded so far with its totals, in name order.
    pub fn all_totals(&self) -> impl Iterator<Item = (&'static str, SpanTotals)> + '_ {
        self.totals.iter().map(|(name, totals)| (*name, *totals))
    }

    /// The kept spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans to `path` as JSON lines, after one header line
    /// stating how many spans were totalled but not kept.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"kept\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The per-layer metrics of one traced run, by catalog name.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not a per-layer metric of the catalog: a run may
    /// emit no name `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric of the catalog"
        );
        self.values.insert(name, value);
    }

    /// The value recorded under `name`; 0 for a layer the workload did not
    /// exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}
