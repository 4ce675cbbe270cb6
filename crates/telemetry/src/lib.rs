//! Observability substrate for the EnBlogue pipeline: a lock-free
//! metrics registry (counters, gauges, log-linear latency histograms),
//! RAII span timing, a bounded event journal, and Prometheus/JSONL
//! exporters.
//!
//! Design rules, in priority order:
//!
//! 1. **Recording never takes a lock.** Metric handles are `Arc`s to
//!    preallocated cells of relaxed atomics; a histogram record is a
//!    handful of `fetch_add`s on fixed buckets. The only mutex in the
//!    warm vicinity guards the event journal, whose cadence is per tick
//!    close, not per document.
//! 2. **Recording never allocates.** Histogram buckets (log-linear,
//!    HDR-style, 8 sub-buckets per octave, ≤12.5% relative error) are
//!    preallocated at registration; journal events are `Copy` into a
//!    preallocated ring. This keeps the engine's zero-allocation warm
//!    close intact with telemetry enabled (pinned by
//!    `crates/core/tests/close_allocs.rs`).
//! 3. **Off costs (almost) nothing.** Every handle carries an inline
//!    `enabled` flag; a disabled record path is one predictable branch,
//!    and disabled spans skip the clock read too. Disabled handles all
//!    share static cells, so they are free to create.
//! 4. **Telemetry is invisible in results.** Nothing here feeds back
//!    into scoring; `tests/stage_parity.rs` pins rankings byte-identical
//!    with telemetry on and off.
//!
//! The metric naming scheme is dotted lowercase (`close.score.ns`,
//! `snapshot.write.ns`), with the unit as the last segment; exporters
//! sanitize for their format. See `docs/OBSERVABILITY.md` for the full
//! catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod journal;
mod metrics;

pub use journal::{Event, EventKind, Journal};
pub use metrics::{
    bucket_lower_bound, bucket_of, duration_ns, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, SpanTimer, HISTOGRAM_BUCKETS,
};

/// Starts an RAII span recording into a pre-registered [`Histogram`]
/// handle when it drops: `let _span = span!(self.probes.close_score);`.
///
/// Spans are named by their histogram's registered name (the
/// `"close.score"` in `span!("close.score", shard)`-style call sites
/// lives at registration time, where the handle was created — keeping
/// the warm path free of name lookups).
#[macro_export]
macro_rules! span {
    ($histogram:expr) => {
        $histogram.start_span()
    };
}

/// One engine's telemetry: the metric registry plus the event journal.
///
/// Cheap to clone (handles share state), so every pipeline layer —
/// stages, the pair registry, the serving tier — can hold its own
/// copy and register the instruments it owns.
#[derive(Clone)]
pub struct Telemetry {
    enabled: bool,
    registry: MetricsRegistry,
    journal: Journal,
}

impl Telemetry {
    /// An enabled telemetry hub whose journal retains
    /// `journal_capacity` events.
    pub fn new(journal_capacity: usize) -> Self {
        Telemetry {
            enabled: true,
            registry: MetricsRegistry::new(true),
            journal: Journal::new(journal_capacity),
        }
    }

    /// A disabled hub: every handle it hands out is a no-op and exports
    /// render empty.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            registry: MetricsRegistry::new(false),
            journal: Journal::disabled(),
        }
    }

    /// Whether instruments from this hub record.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry (register instruments, export).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The shared event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Prometheus text exposition of every registered metric.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.registry)
    }

    /// JSON-lines rendering of every registered metric.
    pub fn metrics_jsonl(&self) -> String {
        export::metrics_jsonl(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotonic_and_invertible() {
        // Exact below 8.
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // Lower bounds invert their own bucket, and boundaries are
        // monotonic across the whole range.
        let mut last = 0usize;
        for shift in 3..64u32 {
            for sub in 0..8u64 {
                let v = (1u64 << shift) | (sub << (shift - 3));
                let b = bucket_of(v);
                assert_eq!(bucket_lower_bound(b), v, "lower bound of bucket {b}");
                assert!(b >= last, "buckets must be monotonic");
                last = b;
            }
        }
        // Every value maps into a bucket whose range contains it.
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < HISTOGRAM_BUCKETS);
            assert!(bucket_lower_bound(b) <= v);
            if b + 1 < HISTOGRAM_BUCKETS {
                assert!(v < bucket_lower_bound(b + 1), "value {v} above bucket {b}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_and_extrema() {
        let registry = MetricsRegistry::new(true);
        let h = registry.histogram("test.latency.ns");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.quantile(1.0), 1000, "p100 clamps to max");
        // Log-linear granularity bounds the relative error at 12.5%.
        let p50 = snap.p50() as f64;
        assert!((p50 - 500.0).abs() / 500.0 <= 0.125, "p50 estimate {p50}");
        let p99 = snap.p99() as f64;
        assert!((p99 - 990.0).abs() / 990.0 <= 0.125, "p99 estimate {p99}");
        assert_eq!(snap.mean(), 500);
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let registry = MetricsRegistry::new(true);
        let a = registry.counter("docs");
        let b = registry.counter("docs");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4, "same name shares one cell");
        let s1 = registry.histogram_labeled("close.shard.ns", "shard", 0);
        let s2 = registry.histogram_labeled("close.shard.ns", "shard", 1);
        s1.record(10);
        assert_eq!(s2.count(), 0, "label variants are distinct series");
        assert_eq!(registry.histogram_labeled("close.shard.ns", "shard", 0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "different instrument type")]
    fn re_registering_as_other_type_panics() {
        let registry = MetricsRegistry::new(true);
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        let c = t.registry().counter("docs");
        let g = t.registry().gauge("depth");
        let h = t.registry().histogram("lat.ns");
        c.inc();
        g.set(7);
        h.record(123);
        {
            let _span = span!(h);
        }
        t.journal().record(EventKind::TickClose, 1, 2, 3);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(t.journal().events().is_empty());
        assert_eq!(t.prometheus_text(), "");
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let t = Telemetry::new(16);
        let h = t.registry().histogram("span.ns");
        {
            let _span = span!(h);
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0, "a span records a positive elapsed time");
    }

    #[test]
    fn journal_ring_overwrites_oldest_and_counts_drops() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.record(EventKind::TickClose, i, i * 10, 0);
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.dropped(), 6);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest four retained, oldest first");
        assert_eq!(events[0].tick, 6);
        let jsonl = j.to_jsonl();
        assert!(jsonl.starts_with("{\"journal\":{\"recorded\":10,\"retained\":4,\"dropped\":6}}"));
        assert!(jsonl.contains("\"kind\":\"tick_close\""));
    }

    #[test]
    fn prometheus_export_shape() {
        let t = Telemetry::new(16);
        t.registry().counter("engine.docs").add(42);
        t.registry().gauge("pairs.tracked").set(512);
        let h0 = t.registry().histogram_labeled("close.shard.ns", "shard", 0);
        let h1 = t.registry().histogram_labeled("close.shard.ns", "shard", 1);
        h0.record(1_000);
        h1.record(2_000);
        let text = t.prometheus_text();
        assert!(text.contains("# TYPE enblogue_engine_docs counter\nenblogue_engine_docs 42\n"));
        assert!(text.contains("# TYPE enblogue_pairs_tracked gauge\nenblogue_pairs_tracked 512\n"));
        assert!(text.contains("# TYPE enblogue_close_shard_ns summary\n"));
        assert_eq!(
            text.matches("# TYPE enblogue_close_shard_ns summary").count(),
            1,
            "one TYPE header across label variants"
        );
        assert!(text.contains("enblogue_close_shard_ns{shard=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("enblogue_close_shard_ns_sum{shard=\"1\"} 2000"));
        assert!(text.contains("enblogue_close_shard_ns_count{shard=\"0\"} 1"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(series.starts_with("enblogue_"), "namespaced: {line}");
            assert!(value.parse::<i64>().is_ok(), "numeric sample: {line}");
        }
        let jsonl = t.metrics_jsonl();
        assert!(jsonl.contains("{\"metric\":\"engine.docs\",\"type\":\"counter\",\"value\":42}"));
        assert!(jsonl.contains(
            "{\"metric\":\"close.shard.ns\",\"type\":\"histogram\",\"labels\":{\"shard\":\"0\"}"
        ));
    }

    #[test]
    fn histograms_record_across_threads_without_loss() {
        let t = Telemetry::new(16);
        let h = t.registry().histogram("mt.ns");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 1..=1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000, "relaxed atomics still lose nothing");
        assert_eq!(snap.sum, 4 * 500_500);
        assert_eq!(snap.max, 1000);
    }
}
