//! Tracing for the per-layer table.
//!
//! [`Tracer`] records a span around each call the benchmark makes into a
//! layer's public functions: name, start, end, parent span, and the tick
//! the call served (spans of one tick share that id). Spans stay in memory
//! and are written out when the run ends. Disabled, `begin`/`end` do not
//! read the clock, so untraced rounds run the same loop without the cost.
//!
//! [`Hub`] reads the close-stage split from the engine's own telemetry
//! histograms; the benchmark adds no instrumentation to the program.

use enblogue::prelude::EnBlogueEngine;
use enblogue::telemetry::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_SPAN: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub tick: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, tick: u64) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, tick, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        index
    }

    #[inline]
    pub fn end(&mut self, span: u32) {
        if span == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[span as usize].end_ns = end_ns;
        let closed = self.open.pop();
        assert_eq!(closed, Some(span), "spans must nest");
    }

    /// Per span name: (summed duration, summed self time) in seconds. Self
    /// time is the duration minus the part covered by child spans.
    pub fn times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_SPAN {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += total as f64 * 1e-9;
            entry.1 += total.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Tab-separated spans: index, name, tick, parent (-1 for none),
    /// start and end in ns from the tracer's origin.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("span\tname\ttick\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.tick, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of one span name (0 when absent).
pub fn self_s(times: &BTreeMap<&'static str, (f64, f64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |t| t.1)
}

/// Close stages in pipeline order, as named in `stage.close.ns{stage}`.
pub const STAGES: [&str; 7] = [
    "seed-select",
    "term-window",
    "pair-count",
    "shift-score",
    "rank-emit",
    "checkpoint",
    "serve-publish",
];

/// Handles on an engine's telemetry histograms.
pub struct Hub {
    stages: Vec<Histogram>,
    score: Histogram,
    expiry: Histogram,
    rank: Histogram,
    snapshot_write: Histogram,
    publish: Histogram,
    shards: Vec<Histogram>,
}

/// Summed nanoseconds (and the checkpoint count) of the hub's histograms.
#[derive(Debug, Clone, Default)]
pub struct HubSample {
    pub stage_ns: [u64; STAGES.len()],
    pub score_ns: u64,
    pub expiry_ns: u64,
    pub rank_ns: u64,
    pub snapshot_write_ns: u64,
    pub snapshot_writes: u64,
    pub publish_ns: u64,
    pub shard_ns: Vec<u64>,
}

impl Hub {
    pub fn new(engine: &EnBlogueEngine) -> Self {
        let registry = engine.telemetry().registry();
        Hub {
            stages: STAGES
                .iter()
                .map(|s| registry.histogram_labeled("stage.close.ns", "stage", s))
                .collect(),
            score: registry.histogram("close.score.ns"),
            expiry: registry.histogram("close.expiry.ns"),
            rank: registry.histogram("close.rank.ns"),
            snapshot_write: registry.histogram("snapshot.write.ns"),
            publish: registry.histogram("serve.publish.ns"),
            shards: (0..engine.config().shards)
                .map(|i| registry.histogram_labeled("close.shard.ns", "shard", i))
                .collect(),
        }
    }

    pub fn sample(&self) -> HubSample {
        let mut stage_ns = [0; STAGES.len()];
        for (out, h) in stage_ns.iter_mut().zip(&self.stages) {
            *out = h.sum();
        }
        HubSample {
            stage_ns,
            score_ns: self.score.sum(),
            expiry_ns: self.expiry.sum(),
            rank_ns: self.rank.sum(),
            snapshot_write_ns: self.snapshot_write.sum(),
            snapshot_writes: self.snapshot_write.count(),
            publish_ns: self.publish.sum(),
            shard_ns: self.shard_ns(),
        }
    }

    pub fn shard_ns(&self) -> Vec<u64> {
        self.shards.iter().map(Histogram::sum).collect()
    }
}

impl HubSample {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &HubSample) -> HubSample {
        let mut stage_ns = self.stage_ns;
        for (a, b) in stage_ns.iter_mut().zip(earlier.stage_ns) {
            *a -= b;
        }
        HubSample {
            stage_ns,
            score_ns: self.score_ns - earlier.score_ns,
            expiry_ns: self.expiry_ns - earlier.expiry_ns,
            rank_ns: self.rank_ns - earlier.rank_ns,
            snapshot_write_ns: self.snapshot_write_ns - earlier.snapshot_write_ns,
            snapshot_writes: self.snapshot_writes - earlier.snapshot_writes,
            publish_ns: self.publish_ns - earlier.publish_ns,
            shard_ns: self.shard_ns.iter().zip(&earlier.shard_ns).map(|(a, b)| a - b).collect(),
        }
    }

    /// Field-by-field sum (the two engines of a restart round).
    pub fn plus(&self, other: &HubSample) -> HubSample {
        let mut stage_ns = self.stage_ns;
        for (a, b) in stage_ns.iter_mut().zip(other.stage_ns) {
            *a += b;
        }
        HubSample {
            stage_ns,
            score_ns: self.score_ns + other.score_ns,
            expiry_ns: self.expiry_ns + other.expiry_ns,
            rank_ns: self.rank_ns + other.rank_ns,
            snapshot_write_ns: self.snapshot_write_ns + other.snapshot_write_ns,
            snapshot_writes: self.snapshot_writes + other.snapshot_writes,
            publish_ns: self.publish_ns + other.publish_ns,
            shard_ns: self.shard_ns.iter().zip(&other.shard_ns).map(|(a, b)| a + b).collect(),
        }
    }

    pub fn stage_s(&self, stage: &str) -> f64 {
        STAGES.iter().position(|s| *s == stage).map_or(0.0, |i| self.stage_ns[i] as f64 * 1e-9)
    }

    /// Every close stage, the serving and checkpoint stages included.
    pub fn all_stages_s(&self) -> f64 {
        self.stage_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// The five detection stages: the close proper, without publishing
    /// and checkpointing.
    pub fn detect_stages_s(&self) -> f64 {
        self.all_stages_s() - self.stage_s("checkpoint") - self.stage_s("serve-publish")
    }
}

/// Per-tick shard makespan: the slowest shard's close walk per tick.
#[derive(Default)]
pub struct Makespan {
    pub sum_max_ns: u64,
    pub sum_mean_ns: f64,
}

impl Makespan {
    /// Adds one close's per-shard times (`after - before`).
    pub fn add(&mut self, before: &[u64], after: &[u64]) {
        let deltas: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        if deltas.is_empty() {
            return;
        }
        self.sum_max_ns += deltas.iter().copied().max().unwrap_or(0);
        self.sum_mean_ns += deltas.iter().sum::<u64>() as f64 / deltas.len() as f64;
    }

    pub fn makespan_s(&self) -> f64 {
        self.sum_max_ns as f64 * 1e-9
    }

    /// Summed slowest-shard time over summed mean-shard time (1 = even).
    pub fn imbalance(&self) -> f64 {
        if self.sum_mean_ns > 0.0 {
            self.sum_max_ns as f64 / self.sum_mean_ns
        } else {
            1.0
        }
    }
}
