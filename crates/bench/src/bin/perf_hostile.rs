//! Hostile-workload drills — the event-time robustness layer under fire.
//!
//! Three scripted attacks from `enblogue_datagen::hostile` run against
//! the same clean background stream with one planted genuine event:
//!
//! * **late_arrival_storm** — ~30% of arrivals delayed up to a bounded
//!   number of ticks. Unprotected, documents are attributed to their
//!   *arrival* tick and rankings drift; with `bounded_lateness` covering
//!   the delay, the reorder buffer must reproduce the clean rankings
//!   byte-for-byte (correct tick attribution) on the per-arrival
//!   `run_replay` path, and the batched per-tick feed of the buffer's
//!   re-sequenced output must agree.
//! * **duplicate_flood** — one source re-emits every document twice.
//!   The dedup window must reject every copy and reproduce the clean
//!   rankings byte-for-byte.
//! * **spam_burst** — coordinated fresh sources spray a fake tag pair.
//!   Per-source token-bucket caps must throttle the spammers without
//!   touching honest traffic (verified by running the capped config
//!   over the clean stream: zero drops, byte-identical rankings) and
//!   strictly reduce the fake pair's best score.
//!
//! A streaming crash-recovery drill closes the loop: the hardened
//! engine (reorder buffer + source guard live) checkpoints periodically
//! while fed per-arrival, is killed mid-stream, resumes from the newest
//! checkpoint, and continues from the arrival cursor
//! (`metrics().docs_arrived`) — the recovered tail rankings and every
//! drop counter must match an uninterrupted run exactly.
//!
//! Results land in `BENCH_hostile.json` (schema in docs/BENCHMARKS.md).
//!
//! Run: `cargo run --release -p enblogue-bench --bin perf_hostile`
//! Smoke mode (CI): append `-- --test` for the drill-scale workload.

use enblogue::core::snapshot::latest_checkpoint;
use enblogue::datagen::hostile::{HostileConfig, HostileWorkload};
use enblogue::ingest::{PushOutcome, ReorderBuffer};
use enblogue::prelude::*;
use enblogue_bench::{replay_batched, Table};
use std::path::Path;
use std::time::Instant;

fn builder() -> enblogue::core::config::EnBlogueConfigBuilder {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(6)
        .seed_count(40)
        .min_seed_count(2)
        .min_pair_support(1)
        .top_k(20)
        .max_tracked_pairs(200_000)
        .shards(4)
        .parallel_close(false)
}

/// Replay a (sorted) stream under `config`, returning the snapshots.
fn replay(docs: &[Document], config: EnBlogueConfig) -> Vec<RankingSnapshot> {
    EnBlogueEngine::new(config).run_replay(docs)
}

/// Ticks whose rankings differ between two runs (length differences
/// count as perturbed ticks too).
fn perturbed_ticks(a: &[RankingSnapshot], b: &[RankingSnapshot]) -> usize {
    let common = a.len().min(b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count() + (a.len().max(b.len()) - common)
}

/// What an engine *without* event-time handling does to an out-of-order
/// stream: every document is counted in the tick open at its arrival,
/// i.e. its timestamp clamps to the running maximum. The clamped stream
/// is sorted, so the plain replay path models the unprotected engine.
fn arrival_attributed(arrivals: &[Document]) -> Vec<Document> {
    let mut clamped = arrivals.to_vec();
    let mut max_ts = Timestamp::from_secs(0);
    for doc in &mut clamped {
        max_ts = max_ts.max(doc.timestamp);
        doc.timestamp = max_ts;
    }
    clamped
}

struct Row {
    workload: &'static str,
    arrivals: usize,
    injected: u64,
    unprotected_perturbed: usize,
    protected_perturbed: usize,
    late_dropped: u64,
    deduped: u64,
    rate_capped: u64,
    replay_ms: f64,
}

/// Late-arrival storm: protection = reorder buffer with
/// `bounded_lateness >= max_delay`. The CI gate: protected rankings are
/// byte-identical to the clean baseline on both feed paths.
fn storm_row(config: &HostileConfig, max_delay: u64) -> Row {
    let w = HostileWorkload::late_arrival_storm(config, max_delay);
    let baseline = replay(&w.clean, builder().build().unwrap());
    let unprotected = replay(&arrival_attributed(&w.arrivals), builder().build().unwrap());

    let cfg = builder().bounded_lateness(max_delay).build().unwrap();
    let started = Instant::now();
    let mut engine = EnBlogueEngine::new(cfg.clone());
    let protected = engine.run_replay(&w.arrivals);
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = engine.metrics();
    assert_eq!(m.docs_arrived, w.arrivals.len() as u64);
    assert_eq!(m.docs_late_dropped, 0, "bound covers the delay: nothing may drop");
    assert_eq!(protected, baseline, "storm: reorder buffer must reproduce the clean rankings");

    // The batched feed over the buffer's re-sequenced arrivals must agree.
    let mut buffer = ReorderBuffer::new(cfg.tick_spec, max_delay, cfg.event_time.max_buffered_docs);
    let mut ordered = Vec::with_capacity(w.arrivals.len());
    for doc in &w.arrivals {
        assert_eq!(buffer.push(doc.clone()), PushOutcome::Buffered, "nothing may drop");
        buffer.drain_ready(&mut ordered);
    }
    buffer.flush(&mut ordered);
    let mut batched = EnBlogueEngine::new(builder().build().unwrap());
    let snapshots = replay_batched(&mut batched, &ordered);
    assert_eq!(snapshots, baseline, "storm: batched feed of the re-sequenced arrivals must agree");

    let unprotected_perturbed = perturbed_ticks(&unprotected, &baseline);
    assert!(unprotected_perturbed > 0, "the storm must actually distort an unprotected run");
    Row {
        workload: w.name,
        arrivals: w.arrivals.len(),
        injected: w.injected,
        unprotected_perturbed,
        protected_perturbed: perturbed_ticks(&protected, &baseline),
        late_dropped: m.docs_late_dropped,
        deduped: m.docs_deduped,
        rate_capped: m.docs_rate_capped,
        replay_ms,
    }
}

/// Duplicate flood: protection = dedup window. The CI gate: every copy
/// drops and rankings are byte-identical to the clean baseline.
fn flood_row(config: &HostileConfig, copies: u32) -> Row {
    let w = HostileWorkload::duplicate_flood(config, copies);
    let baseline = replay(&w.clean, builder().build().unwrap());
    let unprotected = replay(&w.arrivals, builder().build().unwrap());

    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        rate_limit_per_tick: 0.0,
        rate_burst: 0.0,
    };
    let started = Instant::now();
    let mut engine = EnBlogueEngine::new(builder().source_guard(guard).build().unwrap());
    let protected = engine.run_replay(&w.arrivals);
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = engine.metrics();
    assert_eq!(m.docs_deduped, w.injected, "every injected copy must be deduplicated");
    assert_eq!(protected, baseline, "flood: dedup must reproduce the clean rankings");

    let unprotected_perturbed = perturbed_ticks(&unprotected, &baseline);
    assert!(unprotected_perturbed > 0, "the flood must actually distort an unprotected run");
    Row {
        workload: w.name,
        arrivals: w.arrivals.len(),
        injected: w.injected,
        unprotected_perturbed,
        protected_perturbed: perturbed_ticks(&protected, &baseline),
        late_dropped: m.docs_late_dropped,
        deduped: m.docs_deduped,
        rate_capped: m.docs_rate_capped,
        replay_ms,
    }
}

/// Best (rank, score) a pair ever reaches across a snapshot sequence.
fn best_showing(snapshots: &[RankingSnapshot], pair: TagPair) -> Option<(usize, f64)> {
    snapshots
        .iter()
        .filter_map(|s| s.rank_of(pair).map(|r| (r, s.ranked[r].1)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

struct SpamOutcome {
    row: Row,
    uncapped_best: Option<(usize, f64)>,
    capped_best: Option<(usize, f64)>,
}

/// Spam burst: protection = per-source token-bucket rate caps sized well
/// above honest traffic. The CI gates: the capped config is invisible on
/// the clean stream (zero drops, byte-identical) and the admitted spam
/// volume is bounded by the bucket arithmetic — at most
/// `burst + ticks × rate` documents per spam source, however hard the
/// burst shouts. (The fake pair still *appears*: a from-zero pair
/// saturates the novelty-driven shift score at any volume — caps bound
/// the damage, they cannot un-publish the tag pair.)
fn spam_row(config: &HostileConfig, spam_sources: u32, docs_per_tick: u64) -> SpamOutcome {
    let w = HostileWorkload::spam_burst(config, spam_sources, docs_per_tick);
    let spam_pair = w.spam_pair.expect("spam burst carries its pair");
    let rate = 6.0 * config.docs_per_hour as f64 / f64::from(config.n_sources);
    assert!(rate < docs_per_tick as f64, "the cap must actually bite the spammers");
    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        rate_limit_per_tick: rate,
        rate_burst: 0.0,
    };

    let baseline = replay(&w.clean, builder().build().unwrap());
    let uncapped = replay(&w.arrivals, builder().build().unwrap());

    // Honest traffic sits far below the cap: the guarded config over the
    // clean stream must be a byte-identical no-op.
    let mut honest = EnBlogueEngine::new(builder().source_guard(guard.clone()).build().unwrap());
    let honest_snapshots = honest.run_replay(&w.clean);
    assert_eq!(honest.metrics().docs_rate_capped, 0, "honest sources must never be capped");
    assert_eq!(honest.metrics().docs_deduped, 0, "honest documents are unique");
    assert_eq!(honest_snapshots, baseline, "guards must be invisible on clean input");

    let started = Instant::now();
    let mut engine = EnBlogueEngine::new(builder().source_guard(guard).build().unwrap());
    let capped = engine.run_replay(&w.arrivals);
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = engine.metrics();
    assert!(m.docs_rate_capped > 0, "the burst must trip the rate caps");
    assert!(m.docs_rate_capped < w.injected, "caps throttle, they do not blackhole");
    // Token-bucket arithmetic: each spam source admits at most its
    // starting burst plus one refill per tick of the attack window.
    let attack_ticks = config.hours / 3 + 1;
    let admitted = w.injected - m.docs_rate_capped;
    let bound = (rate * (attack_ticks + 1) as f64 * f64::from(spam_sources)).ceil() as u64;
    assert!(
        admitted <= bound,
        "admitted spam ({admitted}) must respect the bucket bound ({bound})"
    );

    let uncapped_best = best_showing(&uncapped, spam_pair);
    let capped_best = best_showing(&capped, spam_pair);
    assert!(
        uncapped_best.is_some(),
        "an unthrottled burst must push the fake pair into the ranking"
    );

    let unprotected_perturbed = perturbed_ticks(&uncapped, &baseline);
    assert!(unprotected_perturbed > 0, "the burst must actually distort an unprotected run");
    let protected_perturbed = perturbed_ticks(&capped, &baseline);
    assert!(
        protected_perturbed <= unprotected_perturbed,
        "caps must not make the perturbation worse"
    );
    SpamOutcome {
        row: Row {
            workload: w.name,
            arrivals: w.arrivals.len(),
            injected: w.injected,
            unprotected_perturbed,
            protected_perturbed,
            late_dropped: m.docs_late_dropped,
            deduped: m.docs_deduped,
            rate_capped: m.docs_rate_capped,
            replay_ms,
        },
        uncapped_best,
        capped_best,
    }
}

/// The streaming failover drill with the full hardened stack live:
/// periodic checkpoints while arrivals stream through `offer_doc`, a
/// kill mid-stream, resume from the newest checkpoint, continue from the
/// arrival cursor. Rankings and drop counters must match an
/// uninterrupted run exactly. Returns (resumed ticks, tail arrivals).
fn recovery_drill(config: &HostileConfig, max_delay: u64, dir: &Path) -> (usize, usize) {
    let w = HostileWorkload::late_arrival_storm(config, max_delay);
    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        rate_limit_per_tick: 6.0 * config.docs_per_hour as f64 / f64::from(config.n_sources),
        rate_burst: 0.0,
    };
    let cfg = builder().bounded_lateness(max_delay).source_guard(guard).build().unwrap();

    let mut uninterrupted = EnBlogueEngine::new(cfg.clone());
    let mut baseline = Vec::new();
    for doc in &w.arrivals {
        uninterrupted.offer_doc(doc, |s| baseline.push(s));
    }
    uninterrupted.finish_stream(|s| baseline.push(s));

    // The doomed run: checkpoint every 8 ticks, killed two thirds in.
    let crash_dir = dir.join("hostile-recovery");
    let _ = std::fs::remove_dir_all(&crash_dir);
    let doomed_cfg = EnBlogueConfig {
        snapshot: SnapshotConfig::every(8, crash_dir.to_str().expect("utf-8 temp path")),
        ..cfg.clone()
    };
    let head = w.arrivals.len() * 2 / 3;
    let mut doomed = EnBlogueEngine::new(doomed_cfg);
    for doc in &w.arrivals[..head] {
        doomed.offer_doc(doc, |_| {});
    }
    assert!(doomed.metrics().snapshots_taken > 0, "the doomed run must have checkpointed");
    drop(doomed); // the "kill": everything in memory is gone

    // Recovery: the checkpoint carries watermark, pending documents,
    // dedup window, and bucket levels; `docs_arrived` is the cursor into
    // the arrival stream.
    let file = latest_checkpoint(&crash_dir).expect("readable dir").expect("a checkpoint file");
    let mut recovered = EnBlogueEngine::resume(cfg, &file).expect("restore after crash");
    let resumed_ticks = recovered.metrics().ticks_closed as usize;
    let cursor = recovered.metrics().docs_arrived as usize;
    assert!(cursor <= head, "the cursor cannot run past the kill point");
    let mut tail = Vec::new();
    for doc in &w.arrivals[cursor..] {
        recovered.offer_doc(doc, |s| tail.push(s));
    }
    recovered.finish_stream(|s| tail.push(s));
    assert_eq!(
        tail.as_slice(),
        &baseline[resumed_ticks..],
        "recovered rankings diverged from the uninterrupted hardened run"
    );
    let (a, b) = (recovered.metrics(), uninterrupted.metrics());
    assert_eq!(a.docs_arrived, b.docs_arrived, "arrival cursor must land exactly");
    assert_eq!(a.docs_late_dropped, b.docs_late_dropped, "late-drop count must survive");
    assert_eq!(a.docs_deduped, b.docs_deduped, "dedup state must survive");
    assert_eq!(a.docs_rate_capped, b.docs_rate_capped, "bucket levels must survive");
    assert_eq!(recovered.pipeline().latest_snapshot(), uninterrupted.pipeline().latest_snapshot());
    let _ = std::fs::remove_dir_all(&crash_dir);
    (resumed_ticks, w.arrivals.len() - cursor)
}

fn fmt_best(best: Option<(usize, f64)>) -> String {
    match best {
        Some((rank, score)) => format!("{{\"rank\": {rank}, \"score\": {score:.4}}}"),
        None => "null".to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    rows: &[Row],
    spam_uncapped: Option<(usize, f64)>,
    spam_capped: Option<(usize, f64)>,
    resumed_ticks: usize,
    tail_arrivals: usize,
    path: &str,
) {
    let mut out = String::from("{\n  \"experiment\": \"hostile\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"arrivals\": {}, \"injected\": {}, \
             \"unprotected_perturbed_ticks\": {}, \"protected_perturbed_ticks\": {}, \
             \"late_dropped\": {}, \"deduped\": {}, \"rate_capped\": {}, \
             \"replay_ms\": {:.2}}}{}\n",
            row.workload,
            row.arrivals,
            row.injected,
            row.unprotected_perturbed,
            row.protected_perturbed,
            row.late_dropped,
            row.deduped,
            row.rate_capped,
            row.replay_ms,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"spam_pair\": {{\"uncapped_best\": {}, \"capped_best\": {}}},\n",
        fmt_best(spam_uncapped),
        fmt_best(spam_capped),
    ));
    out.push_str(&format!(
        "  \"recovery\": {{\"resumed_ticks\": {resumed_ticks}, \
         \"tail_arrivals\": {tail_arrivals}, \"verified\": true}}\n}}\n"
    ));
    if let Err(err) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("\nrows recorded to {path}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let config = if smoke {
        HostileConfig::default()
    } else {
        HostileConfig { hours: 168, docs_per_hour: 150, n_tags: 100, ..HostileConfig::default() }
    };
    let max_delay = if smoke { 3 } else { 5 };
    let spam_rate = if smoke { 60 } else { 200 };
    println!("hostile workload drills{}\n", if smoke { " [smoke]" } else { "" });

    let table = Table::new(&[20, 9, 9, 13, 11, 9, 9]);
    table.header(&[
        "workload",
        "arrivals",
        "injected",
        "hostile ticks",
        "prot ticks",
        "dropped",
        "ms",
    ]);
    let mut rows = Vec::new();
    let spam;
    {
        rows.push(storm_row(&config, max_delay));
        rows.push(flood_row(&config, 2));
        spam = spam_row(&config, 3, spam_rate);
        rows.push(spam.row);
        for row in &rows {
            table.row(&[
                row.workload,
                &format!("{}", row.arrivals),
                &format!("{}", row.injected),
                &format!("{}", row.unprotected_perturbed),
                &format!("{}", row.protected_perturbed),
                &format!("{}", row.late_dropped + row.deduped + row.rate_capped),
                &format!("{:.1}", row.replay_ms),
            ]);
        }
    }
    match (spam.uncapped_best, spam.capped_best) {
        (Some((ur, us)), Some((cr, cs))) => println!(
            "\nspam pair: uncapped best rank {ur} (score {us:.3}) → capped rank {cr} (score {cs:.3})"
        ),
        (Some((ur, us)), None) => println!(
            "\nspam pair: uncapped best rank {ur} (score {us:.3}) → capped out of the ranking"
        ),
        _ => unreachable!("spam_row asserts the uncapped pair ranks"),
    }

    let dir = std::env::temp_dir().join(format!("enblogue-perf-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (resumed_ticks, tail_arrivals) = recovery_drill(&config, max_delay, &dir);
    println!(
        "\ncrash recovery verified: resumed at tick {resumed_ticks}, \
         {tail_arrivals} tail arrivals, rankings + drop counters identical"
    );

    write_json(
        &rows,
        spam.uncapped_best,
        spam.capped_best,
        resumed_ticks,
        tail_arrivals,
        "BENCH_hostile.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
