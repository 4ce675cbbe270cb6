//! The unification contract of the shared stage pipeline: the stand-alone
//! engine, the synchronous DAG executor and the threaded DAG executor are
//! all thin adapters over the same `TickStage` implementation, so on one
//! replay they must produce **identical** snapshot sequences — and the
//! sharded pair registry must make shard count and shard-parallel close
//! invisible in every ranking.

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 0x57A6E,
        days: 45,
        docs_per_day: 80,
        n_categories: 12,
        n_descriptors: 90,
        n_entities: 60,
        n_terms: 250,
        historic_events: 4,
    })
}

fn config(shards: usize, parallel: bool) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(25)
        .min_seed_count(3)
        .top_k(10)
        .shards(shards)
        .parallel_close(parallel)
        .build()
        .unwrap()
}

/// One snapshot sequence via the stand-alone engine's replay driver.
fn engine_snapshots(config: EnBlogueConfig, docs: &[Document]) -> Vec<RankingSnapshot> {
    EnBlogueEngine::new(config).run_replay(docs)
}

/// One snapshot sequence via the batched feed: each tick's slice goes to
/// `process_docs` in chunks of `chunk` documents (`0` = the whole tick in
/// one call), then the tick closes — gap ticks included, so correlation
/// histories stay tick-aligned. Closing starts after the engine's last
/// closed tick, so a restored engine continues where its checkpoint left
/// off. Also returns the most pair observations one `process_docs` call
/// carried.
fn batched_snapshots(
    engine: &mut EnBlogueEngine,
    docs: &[Document],
    chunk: usize,
) -> (Vec<RankingSnapshot>, usize) {
    let spec = engine.pipeline().partition_spec();
    let mut next = engine.pipeline().last_closed().map(Tick::next);
    let mut snapshots = Vec::new();
    let mut most_observations = 0;
    let mut rest = docs;
    while let Some(first) = rest.first() {
        let tick = spec.tick_spec.tick_of(first.timestamp);
        let len = rest.partition_point(|d| spec.tick_spec.tick_of(d.timestamp) == tick);
        let mut gap = next.unwrap_or(tick);
        while gap < tick {
            snapshots.push(engine.close_tick(gap));
            gap = gap.next();
        }
        for call in rest[..len].chunks(if chunk == 0 { len } else { chunk }) {
            most_observations = most_observations.max(partition_docs(call, &spec).observations);
            engine.process_docs(call);
        }
        snapshots.push(engine.close_tick(tick));
        next = Some(tick.next());
        rest = &rest[len..];
    }
    (snapshots, most_observations)
}

/// One snapshot sequence via the DAG (`PipelineBuilder` → `EngineOp` sink).
fn dag_snapshots(
    config: EnBlogueConfig,
    archive: &NytArchive,
    threaded: bool,
) -> Vec<RankingSnapshot> {
    let builder =
        PipelineBuilder::new(archive.docs.clone(), TickSpec::daily(), archive.interner.clone())
            .with_engine("parity", config);
    let (_, handles) = if threaded { builder.run_threaded(256) } else { builder.run() }.unwrap();
    let out = handles[0].lock().unwrap().clone();
    out
}

#[test]
fn engine_and_dag_agree_on_an_nyt_replay() {
    let archive = archive();
    let from_engine = engine_snapshots(config(1, false), &archive.docs);
    let from_sync_dag = dag_snapshots(config(1, false), &archive, false);
    let from_threaded_dag = dag_snapshots(config(1, false), &archive, true);

    assert!(!from_engine.is_empty(), "the replay must close ticks");
    assert!(
        from_engine.iter().any(|s| !s.ranked.is_empty()),
        "the planted events must produce rankings"
    );
    assert_eq!(from_engine, from_sync_dag, "engine vs synchronous DAG");
    assert_eq!(from_engine, from_threaded_dag, "engine vs threaded DAG");
}

#[test]
fn shard_count_is_invisible_in_rankings() {
    let archive = archive();
    let baseline = engine_snapshots(config(1, false), &archive.docs);
    for shards in [4usize, 16] {
        let serial = engine_snapshots(config(shards, false), &archive.docs);
        assert_eq!(serial, baseline, "{shards} shards, serial close");
        let parallel = engine_snapshots(config(shards, true), &archive.docs);
        assert_eq!(parallel, baseline, "{shards} shards, parallel close");
    }
}

#[test]
fn sharded_dag_matches_unsharded_engine() {
    // The full cross product of the two axes: sharded state under the DAG
    // executors against the classic single-map engine.
    let archive = archive();
    let baseline = engine_snapshots(config(1, false), &archive.docs);
    assert_eq!(dag_snapshots(config(16, true), &archive, false), baseline, "sync DAG, 16 shards");
    assert_eq!(dag_snapshots(config(4, true), &archive, true), baseline, "threaded DAG, 4 shards");
}

#[test]
fn ingestion_mode_is_invisible_in_rankings() {
    // The ingestion-parity contract of the batched feed: for one NYT
    // replay, rankings are byte-identical across (a) sequential
    // per-document feeding, (b) `Event::DocBatch` tick slices through the
    // DAG, and (c) `process_docs` over every tick slice split into chunks
    // of 1, 7, 64 or the whole tick, for several shard counts, with
    // serial and shard-parallel application.
    let archive = archive();

    // (a) Sequential per-document feeding — the semantic reference.
    let baseline = engine_snapshots(config(1, false), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    // (b) DocBatch DAG feeding: the replay source emits whole tick
    // slices, `EngineOp` takes the partitioned batch fast path.
    assert_eq!(dag_snapshots(config(4, true), &archive, false), baseline, "DocBatch DAG");

    // (c) The batched feed across the chunk × shards × close-mode grid.
    for shards in [1usize, 4, 8] {
        for parallel in [false, true] {
            for chunk in [1usize, 7, 64, 0] {
                let mut engine = EnBlogueEngine::new(config(shards, parallel));
                let (snapshots, most) = batched_snapshots(&mut engine, &archive.docs, chunk);
                assert_eq!(snapshots, baseline, "chunk={chunk} shards={shards} par={parallel}");
                assert_eq!(engine.metrics().docs_processed, archive.docs.len() as u64);
                if chunk == 0 {
                    // Whole-tick calls are large enough to take the
                    // shard-parallel apply branch when it is enabled.
                    assert!(most >= 512, "a whole tick carries {most} observations");
                }
            }
        }
    }
}

#[test]
fn guarded_batched_feed_matches_per_document_feeding() {
    // With the source guard on, `process_docs` judges every document in
    // stream order, so any chunking reaches the rankings, drop counters
    // and guard state of per-document feeding. The stream repeats every
    // fifth document (dedup drops) and the rate cap sits below a tick's
    // volume (rate drops), so the guard really rejects documents.
    let archive = archive();
    let mut docs = Vec::with_capacity(archive.docs.len() * 6 / 5 + 1);
    for (i, doc) in archive.docs.iter().enumerate() {
        docs.push(doc.clone());
        if i % 5 == 0 {
            docs.push(doc.clone());
        }
    }
    let guarded = || {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(10)
            .shards(4)
            .parallel_close(true)
            .source_guard(SourceGuardConfig {
                enabled: true,
                dedup_window_ticks: 3,
                rate_limit_per_tick: 60.0,
                rate_burst: 0.0,
            })
            .build()
            .unwrap()
    };

    let mut serial = EnBlogueEngine::new(guarded());
    let baseline = serial.run_replay(&docs);
    assert!(serial.metrics().docs_deduped > 0, "duplicates must be rejected");
    assert!(serial.metrics().docs_rate_capped > 0, "the cap must bite");
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    for chunk in [1usize, 7, 64, 0] {
        let mut engine = EnBlogueEngine::new(guarded());
        let (snapshots, _) = batched_snapshots(&mut engine, &docs, chunk);
        assert_eq!(snapshots, baseline, "guarded chunk={chunk}");
        assert_eq!(engine.metrics(), serial.metrics(), "guarded chunk={chunk}: counters");
    }
}

#[test]
fn scoring_mode_is_invisible_in_rankings() {
    // The batch-kernel contract: the lane-tiled batched close (the
    // default) and the scalar reference walk are the same computation
    // down to the bit pattern, so on one replay their snapshot sequences
    // are byte-identical — across shard pools, close modes, and the
    // batched feed.
    let archive = archive();

    let with_scoring = |shards: usize, parallel: bool, scoring: ScoringMode| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(10)
            .shards(shards)
            .parallel_close(parallel)
            .scoring_mode(scoring)
            .build()
            .unwrap()
    };

    // The scalar reference is the semantic baseline; `config()` leaves
    // the knob at its default, which must be the batched path.
    assert_eq!(config(1, false).scoring_mode, ScoringMode::Batched, "batched is the default");
    let baseline = engine_snapshots(with_scoring(1, false, ScoringMode::Scalar), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    for scoring in [ScoringMode::Scalar, ScoringMode::Batched] {
        for (shards, parallel) in [(1usize, false), (4, false), (4, true), (8, true), (16, true)] {
            let snapshots =
                engine_snapshots(with_scoring(shards, parallel, scoring), &archive.docs);
            assert_eq!(
                snapshots, baseline,
                "scoring={scoring:?} shards={shards} parallel={parallel}"
            );
        }
    }

    // Both scoring paths under the batched feed with shard-parallel apply.
    for scoring in [ScoringMode::Scalar, ScoringMode::Batched] {
        for chunk in [64usize, 0] {
            let mut engine = EnBlogueEngine::new(with_scoring(4, true, scoring));
            let (snapshots, _) = batched_snapshots(&mut engine, &archive.docs, chunk);
            assert_eq!(snapshots, baseline, "batched feed scoring={scoring:?} chunk={chunk}");
        }
    }
}

#[test]
fn checkpoint_restore_tail_replay_is_invisible_in_rankings() {
    // The crash-recovery contract of `enblogue_core::snapshot`: on one
    // replay, (a) periodic checkpointing changes no ranking, and (b)
    // checkpoint at a tick + restore into a fresh engine + replay of the
    // tail produces byte-identical snapshot sequences to the
    // uninterrupted run — across shard pools, close modes, and batch
    // splits of the tail.
    use enblogue::core::snapshot::checkpoint_file_name;

    let archive = archive();
    let baseline = engine_snapshots(config(1, false), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    // Checkpoints land at ticks 9/19/29/39 (every 10th close); resume
    // from tick 29 so the tail spans real work.
    let split = Tick(29);
    let split_at = baseline.iter().position(|s| s.tick == split).expect("tick 29 closes") + 1;
    let tail_from = archive
        .docs
        .iter()
        .position(|d| TickSpec::daily().tick_of(d.timestamp) > split)
        .expect("documents after the split");

    let build = |shards: usize, parallel: bool| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(10)
            .shards(shards)
            .parallel_close(parallel)
    };

    let grid = [
        ("1-serial", 1usize, false),
        ("4-parallel", 4, true),
        ("16-serial", 16, false),
        ("16-parallel", 16, true),
    ];
    for (name, shards, parallel) in grid {
        let dir =
            std::env::temp_dir().join(format!("enblogue-parity-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // (a) The checkpointing run itself: rankings untouched.
        let checkpointing =
            build(shards, parallel).snapshot_every(10, dir.to_str().unwrap()).build().unwrap();
        let mut engine = EnBlogueEngine::new(checkpointing);
        assert_eq!(engine.run_replay(&archive.docs), baseline, "{name}: checkpointing run");
        assert!(engine.metrics().snapshots_taken >= 4, "{name}: checkpoints written");
        assert_eq!(engine.metrics().snapshot_failures, 0, "{name}");

        // (b) Restore from the mid-stream checkpoint and replay the tail.
        // The resume config omits the snapshot section entirely — only
        // the knobs that shape state are fingerprinted.
        let resume_config = build(shards, parallel).build().unwrap();
        let file = dir.join(checkpoint_file_name(split));
        let mut resumed = EnBlogueEngine::resume(resume_config.clone(), &file).unwrap();
        assert_eq!(resumed.metrics().restores, 1, "{name}");
        assert_eq!(resumed.metrics().ticks_closed, split_at as u64, "{name}: cursor restored");
        let tail = resumed.run_replay(&archive.docs[tail_from..]);
        assert_eq!(tail, baseline[split_at..], "{name}: tail replay after restore");

        // (c) The same restore driven through the batched feed
        // (chunked tick slices, shard-parallel apply where enabled).
        for chunk in [7usize, 0] {
            let mut resumed = EnBlogueEngine::resume(resume_config.clone(), &file).unwrap();
            let (tail, _) = batched_snapshots(&mut resumed, &archive.docs[tail_from..], chunk);
            assert_eq!(tail, baseline[split_at..], "{name}: batched tail chunk={chunk}");
            assert_eq!(
                resumed.metrics().docs_processed,
                archive.docs.len() as u64,
                "{name}: every document counted once across checkpoint and tail"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_across_run_time_knobs_is_invisible_in_rankings() {
    // `parallel_close` and `scoring_mode` shape no serialized state (the
    // close mode is read at each close, the scoring path re-applied from
    // the resuming configuration), so a checkpoint written under one
    // setting resumes under any other and replays the tail byte for byte.
    // The shard count sizes the restored pool and still has to match.
    use enblogue::core::snapshot::checkpoint_file_name;
    use enblogue::types::EnBlogueError;

    let archive = archive();
    let baseline = engine_snapshots(config(1, false), &archive.docs);
    let split = Tick(29);
    let split_at = baseline.iter().position(|s| s.tick == split).expect("tick 29 closes") + 1;
    let tail_from = archive
        .docs
        .iter()
        .position(|d| TickSpec::daily().tick_of(d.timestamp) > split)
        .expect("documents after the split");
    let build = |shards: usize, parallel: bool, scoring: ScoringMode| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(10)
            .shards(shards)
            .parallel_close(parallel)
            .scoring_mode(scoring)
    };

    let dir = std::env::temp_dir().join(format!("enblogue-parity-knobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = build(4, false, ScoringMode::Batched)
        .snapshot_every(10, dir.to_str().unwrap())
        .build()
        .unwrap();
    assert_eq!(EnBlogueEngine::new(writer).run_replay(&archive.docs), baseline);
    let file = dir.join(checkpoint_file_name(split));

    for (parallel, scoring) in
        [(true, ScoringMode::Batched), (false, ScoringMode::Scalar), (true, ScoringMode::Scalar)]
    {
        let resume_config = build(4, parallel, scoring).build().unwrap();
        let mut resumed = EnBlogueEngine::resume(resume_config.clone(), &file)
            .unwrap_or_else(|e| panic!("par={parallel} scoring={scoring:?}: {e}"));
        let tail = resumed.run_replay(&archive.docs[tail_from..]);
        assert_eq!(tail, baseline[split_at..], "par={parallel} scoring={scoring:?}");

        let mut resumed = EnBlogueEngine::resume(resume_config, &file).unwrap();
        let (tail, _) = batched_snapshots(&mut resumed, &archive.docs[tail_from..], 0);
        assert_eq!(tail, baseline[split_at..], "batched par={parallel} scoring={scoring:?}");
    }

    let reshaped = build(8, false, ScoringMode::Batched).build().unwrap();
    assert!(matches!(
        EnBlogueEngine::resume(reshaped, &file),
        Err(EnBlogueError::SnapshotConfigMismatch(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_is_invisible_in_rankings() {
    // The observability contract: telemetry is a pure execution knob. One
    // replay, rankings byte-identical with the hub enabled (the default)
    // and fully disabled — including under sharding + parallel close,
    // where the per-shard close histograms record from fan-out workers.
    let archive = archive();
    let with_telemetry = |shards: usize, parallel: bool, enabled: bool| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(10)
            .shards(shards)
            .parallel_close(parallel)
            .telemetry_enabled(enabled)
            .build()
            .unwrap()
    };

    assert!(config(1, false).telemetry.enabled, "telemetry is on by default");
    let baseline = engine_snapshots(with_telemetry(1, false, false), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    for (shards, parallel) in [(1usize, false), (4, true), (16, true)] {
        for enabled in [false, true] {
            let mut engine = EnBlogueEngine::new(with_telemetry(shards, parallel, enabled));
            let snapshots = engine.run_replay(&archive.docs);
            assert_eq!(snapshots, baseline, "telemetry={enabled} shards={shards} par={parallel}");

            let telemetry = engine.telemetry();
            assert_eq!(telemetry.enabled(), enabled);
            let prom = telemetry.prometheus_text();
            if enabled {
                // The hub actually observed the run: tick spans, journal
                // events, and a well-formed Prometheus export.
                assert!(telemetry.journal().recorded() > 0, "tick closes journaled");
                let score = telemetry.registry().histogram("close.score.ns");
                assert_eq!(score.count(), baseline.len() as u64, "one score span per close");
                assert!(prom.contains("# TYPE enblogue_close_score_ns summary"));
                assert!(prom.contains("enblogue_stage_close_ns_count{stage=\"rank-emit\"}"));
            } else {
                assert!(prom.is_empty(), "a disabled hub exports nothing");
                assert_eq!(telemetry.journal().recorded(), 0);
            }
        }
    }

    // Timing views derive from the hub: populated when it is on, zero —
    // but never affecting metrics equality — when it is off.
    let mut on = EnBlogueEngine::new(with_telemetry(4, true, true));
    let mut off = EnBlogueEngine::new(with_telemetry(4, true, false));
    assert_eq!(on.run_replay(&archive.docs), off.run_replay(&archive.docs));
    assert!(on.metrics().timings.close_score_micros > 0 || on.metrics().ticks_closed == 0);
    assert_eq!(off.metrics().timings, enblogue::core::stages::EngineTimings::default());
    assert_eq!(on.metrics(), off.metrics(), "timings are excluded from metrics equality");
}

#[test]
fn batched_ingestion_matches_streamed_ingestion() {
    // Whole tick slices through `process_docs` against the streamed
    // per-document replay, on the default serial-close pool.
    let archive = archive();
    let cfg = config(4, false);
    let mut engine = EnBlogueEngine::new(cfg.clone());
    let (batched, _) = batched_snapshots(&mut engine, &archive.docs, 0);
    let streamed = engine_snapshots(cfg, &archive.docs);
    assert_eq!(batched, streamed);
}

/// The same NYT knobs with the event-time robustness layer switched on.
fn hardened_config(event: bool, guard: bool) -> EnBlogueConfig {
    let mut builder = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(25)
        .min_seed_count(3)
        .top_k(10)
        .shards(4)
        .parallel_close(false);
    if event {
        builder = builder.bounded_lateness(3);
    }
    if guard {
        // The archive is a single (anonymous) source, so the cap must sit
        // far above one source's full volume to be a pure pass-through.
        builder = builder.source_guard(SourceGuardConfig {
            enabled: true,
            dedup_window_ticks: 3,
            rate_limit_per_tick: 1e9,
            rate_burst: 0.0,
        });
    }
    builder.build().unwrap()
}

#[test]
fn event_time_layer_is_invisible_on_clean_input() {
    // The robustness layer's parity contract: on a sorted, duplicate-free,
    // within-cap stream, enabling the reorder buffer, the source guard, or
    // both changes nothing — rankings stay byte-identical, and no drop
    // counter moves.
    let archive = archive();
    let baseline = engine_snapshots(config(4, false), &archive.docs);
    for (event, guard) in [(true, false), (false, true), (true, true)] {
        let mut engine = EnBlogueEngine::new(hardened_config(event, guard));
        let snapshots = engine.run_replay(&archive.docs);
        assert_eq!(snapshots, baseline, "event={event} guard={guard} must be invisible");
        let m = engine.metrics();
        assert_eq!(m.docs_late_dropped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_buffer_overflow, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_deduped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_rate_capped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_processed, archive.docs.len() as u64, "every document admitted");
    }
}
