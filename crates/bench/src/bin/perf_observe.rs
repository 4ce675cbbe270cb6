//! Cost of the observability layer itself: record-path nanoseconds,
//! exporter render times, journal throughput, and the end-to-end close
//! overhead of a live telemetry hub.
//!
//! The telemetry design contract is "cold registration, warm recording":
//! handles resolve names once, the hot path is a relaxed atomic (or one
//! branch when the hub is disabled). This bench prices every warm
//! operation the engine performs per tick —
//!
//! * counter increment, gauge store, histogram record (enabled and
//!   disabled — the disabled figure is what a telemetry-off engine pays);
//! * a full span (clock read + histogram record on drop);
//! * a journal event (ring write under a per-event mutex);
//! * one Prometheus / JSONL render over an engine-shaped registry
//!   (renders run off the hot path, at dump time);
//! * the close-throughput ratio of a telemetry-attached
//!   [`ShardedPairRegistry`] against its bare twin — the same number
//!   `perf_close --smoke` gates at 3%, recorded here for the JSON trail.
//!
//! Run: `cargo run --release -p enblogue-bench --bin perf_observe`
//! Smoke mode (CI): append `-- --test` for reduced iteration counts.

use enblogue::core::pairs::ShardedPairRegistry;
use enblogue::prelude::*;
use enblogue::stats::predict::PredictorKind;
use enblogue::stats::shift::{ErrorNormalization, ShiftScorer};
use enblogue::telemetry::{EventKind, Histogram, Telemetry};
use enblogue::types::FxHashSet;
use enblogue_bench::Table;
use std::hint::black_box;
use std::time::Instant;

const WINDOW: usize = 6;

/// Nanoseconds per op over `iters` calls of `op` (one timed block; the
/// loop body is kept opaque to the optimizer).
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        op(black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Builds a hub shaped like a mid-run engine: the real metric names,
/// populated with enough samples that renders walk realistic state.
fn engine_shaped_hub() -> Telemetry {
    let telemetry = Telemetry::new(1024);
    let registry = telemetry.registry();
    let docs = registry.counter("engine.docs");
    let ticks = registry.counter("engine.ticks");
    registry.gauge("pairs.tracked").set(33_000);
    let mut histograms: Vec<Histogram> = vec![
        registry.histogram("close.score.ns"),
        registry.histogram("close.expiry.ns"),
        registry.histogram("close.rank.ns"),
        registry.histogram("snapshot.write.ns"),
        registry.histogram("serve.publish.ns"),
    ];
    for stage in ["seed-select", "term-window", "pair-count", "shift-score", "rank-emit"] {
        histograms.push(registry.histogram_labeled("stage.close.ns", "stage", stage));
    }
    for shard in 0..4 {
        histograms.push(registry.histogram_labeled("close.shard.ns", "shard", shard));
    }
    docs.add(1_000_000);
    ticks.add(500);
    for (i, histogram) in histograms.iter().enumerate() {
        for sample in 0..500u64 {
            histogram.record(1_000 + sample * 37 * (i as u64 + 1));
        }
    }
    for tick in 0..600 {
        telemetry.journal().record(EventKind::TickClose, tick, 33_000, 10);
    }
    telemetry
}

/// One close cycle over a stable population, telemetry optionally
/// attached; returns pairs scored per second (ingest excluded from the
/// timer, as in `perf_close`).
fn close_run(live: usize, attach: bool, warmup: u64, measured: u64) -> f64 {
    let s = ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute);
    let seeds: FxHashSet<TagId> = (0..live as u32).map(TagId).collect();
    let mut registry = ShardedPairRegistry::new(1, WINDOW, Timestamp::DAY, 1, live + 1);
    if attach {
        registry.attach_telemetry(&Telemetry::new(1024));
    }
    let mut close_secs = 0.0;
    for tick in 0..warmup + measured {
        let now = Timestamp::from_hours(tick);
        for i in 0..live as u32 {
            if (i as u64 + tick).is_multiple_of(WINDOW as u64 - 1) {
                registry.observe_pair(
                    Tick(tick),
                    TagPair::new(TagId(i), TagId(i + 1_000_000)).packed(),
                );
            }
        }
        let t0 = Instant::now();
        registry.advance_to(Tick(tick));
        registry.discover_seeded(&seeds, Tick(tick), 0, false);
        registry.score_all(Tick(tick), now, &s, false, |pair, ab| {
            ab as f64 / (4.0 + (pair.lo().0 % 7) as f64)
        });
        registry.evict_parallel(Tick(tick), now, false);
        if tick >= warmup {
            close_secs += t0.elapsed().as_secs_f64();
        }
    }
    assert_eq!(registry.len(), live, "population must be stable");
    (live as u64 * measured) as f64 / close_secs.max(1e-9)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let iters: u64 = if smoke { 200_000 } else { 5_000_000 };
    let renders: u32 = if smoke { 50 } else { 500 };
    println!(
        "observability cost sweep — {iters} record ops per row{}\n",
        if smoke { " [smoke]" } else { "" }
    );

    let telemetry = Telemetry::new(1024);
    let registry = telemetry.registry();
    let counter = registry.counter("bench.counter");
    let gauge = registry.gauge("bench.gauge");
    let histogram = registry.histogram("bench.histogram.ns");
    let disabled = Histogram::disabled();
    let journal_hub = Telemetry::new(1024);

    let table = Table::new(&[26, 12]);
    table.header(&["operation", "ns/op"]);
    let mut ops: Vec<(&'static str, f64)> = Vec::new();
    ops.push(("counter.inc", ns_per_op(iters, |_| counter.inc())));
    ops.push(("gauge.set", ns_per_op(iters, |i| gauge.set(i as i64))));
    ops.push(("histogram.record", ns_per_op(iters, |i| histogram.record(i * 17 + 1))));
    ops.push(("histogram.record(off)", ns_per_op(iters, |i| disabled.record(i * 17 + 1))));
    ops.push(("span(clock+record)", {
        ns_per_op(iters / 10, |_| {
            let span = histogram.start_span();
            span.finish();
        })
    }));
    ops.push(("journal.record", {
        let journal = journal_hub.journal();
        ns_per_op(iters, |i| journal.record(EventKind::TickClose, i, i, 0))
    }));
    for &(name, ns) in &ops {
        table.row(&[name, &format!("{ns:.1}")]);
    }
    let journal_events_per_sec =
        1e9 / ops.iter().find(|(n, _)| *n == "journal.record").expect("journal row").1;

    // Exporter renders over an engine-shaped registry.
    let hub = engine_shaped_hub();
    let prom_us = ns_per_op(renders as u64, |_| {
        black_box(hub.prometheus_text().len());
    }) / 1_000.0;
    let jsonl_us = ns_per_op(renders as u64, |_| {
        black_box(hub.metrics_jsonl().len());
    }) / 1_000.0;
    let prom_bytes = hub.prometheus_text().len();
    println!(
        "\nprometheus render: {prom_us:.1} µs ({prom_bytes} bytes), jsonl render: {jsonl_us:.1} µs"
    );

    // End-to-end close overhead, interleaved best-of-N both sides.
    let live = if smoke { 2_000 } else { 20_000 };
    let (warmup, measured) = (WINDOW as u64, if smoke { 4 } else { 12 });
    let repeats = if smoke { 3 } else { 5 };
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    for _ in 0..repeats {
        best_off = best_off.max(close_run(live, false, warmup, measured));
        best_on = best_on.max(close_run(live, true, warmup, measured));
    }
    let overhead_ratio = best_on / best_off.max(1e-9);
    println!(
        "close throughput at {live} pairs: off {best_off:.0} pairs/s, on {best_on:.0} pairs/s \
         ({overhead_ratio:.3}x)"
    );

    let mut out = String::from("{\n  \"experiment\": \"observability_cost\",\n");
    out.push_str(&format!(
        "  \"machine_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!("  \"record_iters\": {iters},\n"));
    out.push_str("  \"record_ns_per_op\": {\n");
    for (i, &(name, ns)) in ops.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {ns:.1}{}\n",
            if i + 1 == ops.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"journal_events_per_sec\": {journal_events_per_sec:.0},\n"));
    out.push_str(&format!("  \"prometheus_render_us\": {prom_us:.1},\n"));
    out.push_str(&format!("  \"prometheus_render_bytes\": {prom_bytes},\n"));
    out.push_str(&format!("  \"jsonl_render_us\": {jsonl_us:.1},\n"));
    out.push_str(&format!("  \"close_pairs\": {live},\n"));
    out.push_str(&format!("  \"close_pairs_per_sec_telemetry_off\": {best_off:.0},\n"));
    out.push_str(&format!("  \"close_pairs_per_sec_telemetry_on\": {best_on:.0},\n"));
    out.push_str(&format!("  \"close_on_off_ratio\": {overhead_ratio:.3}\n}}\n"));
    if let Err(err) = std::fs::write("BENCH_observe.json", out) {
        eprintln!("warning: could not write BENCH_observe.json: {err}");
    } else {
        println!("\nrows recorded to BENCH_observe.json");
    }

    if smoke {
        // Sanity gates, deliberately loose (the hard 3% close gate lives
        // in perf_close --smoke where both sides share one process):
        // the disabled path must be far cheaper than the enabled one,
        // and exports must render the full engine-shaped metric set.
        let on = ops.iter().find(|(n, _)| *n == "histogram.record").expect("row").1;
        let off = ops.iter().find(|(n, _)| *n == "histogram.record(off)").expect("row").1;
        assert!(
            off <= on,
            "disabled record ({off:.1}ns) must not cost more than enabled ({on:.1}ns)"
        );
        assert!(hub.prometheus_text().contains("# TYPE enblogue_close_shard_ns summary"));
        assert!(hub.metrics_jsonl().lines().count() >= 14, "all series render");
        assert!(overhead_ratio > 0.5, "telemetry-on close collapsed ({overhead_ratio:.3}x)");
        println!("smoke: disabled path cheap, exports complete, overhead sane");
    }
}
