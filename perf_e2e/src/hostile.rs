//! `hostile_restart`: an hourly stream fed per arrival through the
//! event-time front end (`offer_doc`/`finish_stream`) with the reorder
//! buffer and source guard on and a checkpoint every 24 ticks. The
//! arrivals are a late-arrival storm with every source-1 document sent
//! twice. Two thirds in, the engine is killed, brought back with
//! `resume_latest` and fed the tail from its arrival cursor. This drives
//! the per-document front end, checkpoint writes and restore, which the
//! other workloads never touch.

use crate::common::{self, Counts};
use crate::probe::{Meter, Probe};
use crate::report::Round;
use crate::trace::{self, Hub, HubSample, Makespan, Tracer};
use crate::Workload;
use enblogue::datagen::entities::EntityUniverse;
use enblogue::datagen::eval::evaluate;
use enblogue::datagen::hostile::{HostileConfig, HostileWorkload};
use enblogue::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

const HOURS: u64 = 500;
const DOCS_PER_HOUR: u64 = 2000;
const TAGS: usize = 2000;
const SOURCES: u32 = 12;
/// Storm delay bound, in ticks; the reorder buffer's lateness covers it.
const MAX_DELAY: u64 = 3;
const CHECKPOINT_EVERY: u64 = 24;

pub struct Hostile {
    arrivals: Vec<Document>,
    /// Event tick of each arrival, computed once so the per-arrival loop
    /// carries as little of the benchmark's own work as possible.
    arrival_ticks: Vec<u32>,
    /// Source-1 copies added to the storm.
    copies: u64,
    clean: Vec<Document>,
    clean_slices: Vec<(Tick, Range<usize>)>,
    interner: TagInterner,
    script: enblogue::datagen::events::EventScript,
    universe: EntityUniverse,
    config: EnBlogueConfig,
    /// The clean stream replayed sequentially: one ranking per tick.
    reference: Vec<RankingSnapshot>,
    /// An uninterrupted run of the same arrivals, and its final counters.
    uninterrupted: Vec<RankingSnapshot>,
    uninterrupted_metrics: EngineMetrics,
    /// Whether the uninterrupted run matched the clean replay; checked
    /// once per run, in the first round.
    uninterrupted_ok: Option<bool>,
    checkpoints: PathBuf,
    last_published: Vec<RankingSnapshot>,
}

fn builder() -> enblogue::core::config::EnBlogueConfigBuilder {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(6)
        .seed_count(40)
        .min_seed_count(2)
        .min_pair_support(3)
        .top_k(20)
        .max_tracked_pairs(200_000)
}

fn hardened_config() -> EnBlogueConfig {
    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        // Well above any honest source's hourly volume.
        rate_limit_per_tick: 6.0 * DOCS_PER_HOUR as f64 / f64::from(SOURCES),
        rate_burst: 0.0,
    };
    builder().bounded_lateness(MAX_DELAY).source_guard(guard).build().expect("valid hostile config")
}

impl Hostile {
    pub fn prepare(seed: u64) -> Self {
        let storm = HostileWorkload::late_arrival_storm(
            &HostileConfig {
                seed,
                hours: HOURS,
                docs_per_hour: DOCS_PER_HOUR,
                n_tags: TAGS,
                n_sources: SOURCES,
            },
            MAX_DELAY,
        );
        let mut arrivals = Vec::with_capacity(storm.arrivals.len() * 11 / 10);
        let mut copies = 0u64;
        for doc in &storm.arrivals {
            arrivals.push(doc.clone());
            if doc.source == SourceId(1) {
                arrivals.push(doc.clone());
                copies += 1;
            }
        }
        let config = hardened_config();
        let reference =
            EnBlogueEngine::new(builder().shards(1).parallel_close(false).build().expect("valid"))
                .run_replay(&storm.clean);
        let mut engine = EnBlogueEngine::new(config.clone());
        let mut uninterrupted = Vec::new();
        for doc in &arrivals {
            engine.offer_doc(doc, |s| uninterrupted.push(s));
        }
        engine.finish_stream(|s| uninterrupted.push(s));
        let clean_slices = common::tick_slices(&storm.clean, config.tick_spec);
        assert_eq!(reference.len(), clean_slices.len(), "one reference ranking per hour");
        let arrival_ticks =
            arrivals.iter().map(|d| config.tick_spec.tick_of(d.timestamp).0 as u32).collect();
        Hostile {
            arrival_ticks,
            uninterrupted_ok: Some(uninterrupted == reference),
            uninterrupted_metrics: engine.metrics(),
            uninterrupted,
            arrivals,
            copies,
            clean: storm.clean,
            clean_slices,
            interner: storm.interner,
            script: storm.script,
            universe: EntityUniverse::generate(400, seed ^ 0xE171),
            config,
            reference,
            checkpoints: PathBuf::from(format!(".bench_out/checkpoints-{}", std::process::id())),
            last_published: Vec::new(),
        }
    }
}

impl Drop for Hostile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.checkpoints);
    }
}

/// Book-keeping shared by the killed and the resumed engine.
struct Feed<'a> {
    tr: Tracer,
    round: Round,
    reference: &'a [RankingSnapshot],
    uninterrupted: &'a [RankingSnapshot],
    /// Per tick: when its first arrival was offered (stream wall seconds),
    /// and whether it has been visible yet (ticks republished after the
    /// restart count once).
    first_offer: Vec<Option<f64>>,
    shown: Vec<bool>,
    published: Vec<Option<RankingSnapshot>>,
    emitted: Vec<RankingSnapshot>,
    makespan: Makespan,
    last_shard_ns: Vec<u64>,
    pairs_scored: u64,
    closes: u64,
    /// Epochs the current engine's handle has published.
    epoch: u64,
}

impl Feed<'_> {
    /// Offers one arrival; returns the last tick it made visible.
    fn offer(
        &mut self,
        engine: &mut EnBlogueEngine,
        handle: &QueryHandle,
        hub: &Hub,
        meter: &Meter,
        doc: &Document,
        tick: u32,
    ) -> Option<Tick> {
        let slot = &mut self.first_offer[tick as usize];
        if slot.is_none() {
            *slot = Some(meter.wall_s());
        }
        let s = self.tr.begin("ingest.offer", u64::from(tick));
        let emitted = &mut self.emitted;
        engine.offer_doc(doc, |snapshot| emitted.push(snapshot));
        self.tr.end(s);
        self.after_closes(engine, handle, hub, meter)
    }

    fn finish(
        &mut self,
        engine: &mut EnBlogueEngine,
        handle: &QueryHandle,
        hub: &Hub,
        meter: &Meter,
    ) -> Option<Tick> {
        let s = self.tr.begin("ingest.finish", 0);
        let emitted = &mut self.emitted;
        engine.finish_stream(|snapshot| emitted.push(snapshot));
        self.tr.end(s);
        self.after_closes(engine, handle, hub, meter)
    }

    /// Waits for the ticks a feed call closed to become visible, reads the
    /// ranking back through the handle and checks every emitted ranking.
    fn after_closes(
        &mut self,
        engine: &EnBlogueEngine,
        handle: &QueryHandle,
        hub: &Hub,
        meter: &Meter,
    ) -> Option<Tick> {
        let last = self.emitted.last()?.tick;
        self.closes += self.emitted.len() as u64;
        self.epoch += self.emitted.len() as u64;
        if self.tr.enabled() {
            let now = hub.shard_ns();
            self.makespan.add(&self.last_shard_ns, &now);
            self.last_shard_ns = now;
            let tracked = engine.pipeline().state().registry().len() as u64;
            self.pairs_scored += tracked * self.emitted.len() as u64;
        }
        let s = self.tr.begin("serve.visible", last.0);
        let visible = common::wait_visible(handle, self.epoch, last);
        self.tr.end(s);
        let now = meter.wall_s();
        for snapshot in &self.emitted {
            let t = snapshot.tick.0 as usize;
            if !self.shown[t] {
                self.shown[t] = true;
                if let Some(first) = self.first_offer[t] {
                    self.round.visible_ms.push((now - first) * 1e3);
                }
            }
        }
        let s = self.tr.begin("serve.readback", last.0);
        let read = handle.ranking();
        self.tr.end(s);
        self.round.check(visible && read.as_ref() == self.emitted.last());
        for snapshot in self.emitted.drain(..) {
            let t = snapshot.tick.0 as usize;
            let ok = self.reference.get(t) == Some(&snapshot)
                && self.uninterrupted.get(t) == Some(&snapshot);
            self.round.check(ok);
            self.published[t] = Some(snapshot);
        }
        Some(last)
    }
}

impl Workload for Hostile {
    fn round(&mut self, traced: bool, probe: &mut Probe) -> Round {
        let _ = std::fs::remove_dir_all(&self.checkpoints);
        let config = EnBlogueConfig {
            snapshot: SnapshotConfig::every(
                CHECKPOINT_EVERY,
                self.checkpoints.to_str().expect("checkpoint path is UTF-8"),
            ),
            ..self.config.clone()
        };
        let ticks = HOURS as usize + MAX_DELAY as usize + 2;
        let mut round = Round::new(traced);
        if let Some(ok) = self.uninterrupted_ok.take() {
            round.check(ok);
        }
        let (p, dict_build_s, setup_s) =
            common::set_up_timed(&self.universe, &config, &self.interner, probe);
        let common::Pipeline { tagger: _, mut engine, handle } = p;
        round.setup_s = setup_s;
        let hub = Hub::new(&engine);
        let hub_start = hub.sample();
        let counts_start = Counts::of(&engine);
        let mut feed = Feed {
            tr: Tracer::new(traced),
            round,
            reference: &self.reference,
            uninterrupted: &self.uninterrupted,
            first_offer: vec![None; ticks],
            shown: vec![false; ticks],
            published: vec![None; ticks],
            emitted: Vec::new(),
            makespan: Makespan::default(),
            last_shard_ns: hub.shard_ns(),
            pairs_scored: 0,
            closes: 0,
            epoch: 0,
        };

        let head = self.arrivals.len() * 2 / 3;
        let mut meter = Meter::start(probe);
        let mut killed_at = None;
        for (doc, &tick) in self.arrivals[..head].iter().zip(&self.arrival_ticks) {
            let shown = feed.offer(&mut engine, &handle, &hub, &meter, doc, tick);
            if shown.is_some() {
                killed_at = shown;
                meter.boundary();
            }
        }
        let killed_at = killed_at.expect("the head closes ticks");
        // The kill: everything in memory is gone. Reading the killed
        // engine's counters and freeing it are not part of the stream's
        // time, nor is the benchmark's own book-keeping on the new engine.
        meter.pause();
        let doomed = engine.metrics();
        let doomed_hub = hub.sample().since(&hub_start);
        let doomed_counts = Counts::of(&engine).since(counts_start);
        drop(handle);
        drop(engine);
        meter.resume();

        let resume_at = meter.wall_s();
        let resume_start = Instant::now();
        let s = feed.tr.begin("snapshot.restore", killed_at.0);
        let resumed =
            EnBlogueEngine::resume_latest(config.clone(), &self.checkpoints).map(|engine| {
                let cursor = engine.metrics().docs_arrived as usize;
                (engine, cursor)
            });
        feed.tr.end(s);
        let restore_s = resume_start.elapsed().as_secs_f64();
        let (mut engine, cursor) = match resumed {
            Ok(resumed) => resumed,
            Err(e) => {
                println!("# FAIL: resume_latest: {e}");
                let mut round = feed.round;
                round.check(false);
                round.set_stream(meter.finish());
                round.docs = head as u64;
                return round;
            }
        };
        feed.round.check(true);
        let s = feed.tr.begin("serve.attach", killed_at.0);
        let handle =
            QueryHandle::attach(&mut engine, self.interner.clone(), ServeConfig::default());
        feed.tr.end(s);
        meter.pause();
        let hub = Hub::new(&engine);
        let hub_resumed = hub.sample();
        feed.last_shard_ns = hub.shard_ns();
        feed.epoch = 0;
        let counts_resumed = Counts::of(&engine);
        let resumed_metrics = engine.metrics();
        meter.resume();
        let mut recovery: Option<(f64, u64)> = None;
        let tail = self.arrivals[cursor..].iter().zip(&self.arrival_ticks[cursor..]);
        for (i, (doc, &tick)) in tail.enumerate() {
            let shown = feed.offer(&mut engine, &handle, &hub, &meter, doc, tick);
            if recovery.is_none() && shown.is_some_and(|t| t >= killed_at) {
                recovery = Some((meter.wall_s() - resume_at, i as u64 + 1));
            }
            if shown.is_some() {
                meter.boundary();
            }
        }
        feed.finish(&mut engine, &handle, &hub, &meter);
        let (recovery_s, tail_arrivals) = recovery.unwrap_or((meter.wall_s() - resume_at, 0));
        let metered = meter.finish();

        let m = engine.metrics();
        let want = &self.uninterrupted_metrics;
        let Feed { tr, mut round, published, makespan, pairs_scored, closes, .. } = feed;
        round.check(
            m.docs_arrived == want.docs_arrived
                && m.docs_late_dropped == want.docs_late_dropped
                && m.docs_buffer_overflow == want.docs_buffer_overflow
                && m.docs_rate_capped == want.docs_rate_capped
                && m.docs_deduped == want.docs_deduped,
        );
        round.check(m.docs_deduped == self.copies);
        round.check(
            doomed.snapshot_failures == 0
                && m.snapshot_failures == resumed_metrics.snapshot_failures,
        );
        round.check(
            published.len() >= self.reference.len()
                && published[..self.reference.len()].iter().all(Option::is_some),
        );
        round.set_stream(metered);
        round.docs = self.arrivals.len() as u64;
        round.extra.push(("recovery_s", "s", recovery_s));
        self.last_published = published.into_iter().flatten().collect();

        if traced {
            let times = tr.times();
            let hub: HubSample = doomed_hub.plus(&hub.sample().since(&hub_resumed));
            let publish = hub.stage_s("serve-publish");
            let checkpoint = hub.stage_s("checkpoint");
            let offer_s = trace::self_s(&times, "ingest.offer")
                + trace::self_s(&times, "ingest.finish")
                - hub.all_stages_s();
            let restore_span_s = trace::self_s(&times, "snapshot.restore");
            round.layer_self_s = vec![
                ("entity", 0.0),
                ("ingest", offer_s),
                ("core", hub.detect_stages_s()),
                (
                    "serve",
                    trace::self_s(&times, "serve.visible")
                        + trace::self_s(&times, "serve.readback")
                        + trace::self_s(&times, "serve.attach")
                        + publish,
                ),
                ("snapshot", checkpoint + restore_span_s),
            ];
            let (partition_s, observations) =
                common::partition_pass(&engine, &self.clean, &self.clean_slices);
            let arrivals = self.arrivals.len() as f64;
            let dropped =
                m.docs_late_dropped + m.docs_buffer_overflow + m.docs_deduped + m.docs_rate_capped;
            let resumed_counts = Counts::of(&engine).since(counts_resumed);
            let counts = Counts {
                discovered: doomed_counts.discovered + resumed_counts.discovered,
                evicted: doomed_counts.evicted + resumed_counts.evicted,
                rebalances: doomed_counts.rebalances + resumed_counts.rebalances,
                migrated: doomed_counts.migrated + resumed_counts.migrated,
            };
            let snapshot_bytes = doomed.snapshot_bytes_written + m.snapshot_bytes_written
                - resumed_metrics.snapshot_bytes_written;
            round.layers.extend([
                ("entity.dict_build_s", "s", dict_build_s),
                ("ingest.feed_s", "s", offer_s),
                ("ingest.offer_s", "s", offer_s),
                ("ingest.partition_s", "s", partition_s),
                ("ingest.observations", "count", observations as f64),
                ("ingest.ns_per_observation", "ns", offer_s * 1e9 / observations.max(1) as f64),
                ("ingest.arrivals", "count", arrivals),
                ("ingest.late_dropped", "count", m.docs_late_dropped as f64),
                ("ingest.deduped", "count", m.docs_deduped as f64),
                ("ingest.rate_capped", "count", m.docs_rate_capped as f64),
                ("ingest.overflow_dropped", "count", m.docs_buffer_overflow as f64),
                ("ingest.admitted_share", "ratio", (arrivals - dropped as f64) / arrivals),
                ("serve.epochs", "count", closes as f64),
                ("snapshot.writes", "count", hub.snapshot_writes as f64),
                ("snapshot.bytes", "bytes", snapshot_bytes as f64),
                ("snapshot.write_s", "s", hub.snapshot_write_ns as f64 * 1e-9),
                ("snapshot.restore_s", "s", restore_s),
                ("recovery.tail_arrivals", "count", tail_arrivals as f64),
                ("recovery.tail_s", "s", recovery_s - restore_s),
            ]);
            common::close_layers(&mut round, &hub, &makespan, pairs_scored, closes, counts);
            round.tracer = Some(tr);
        }
        round
    }

    fn summary(&self) -> Vec<(&'static str, &'static str, f64)> {
        let report =
            evaluate(&self.last_published, &self.script, self.config.k, 6 * Timestamp::HOUR);
        vec![
            ("recall_at_k", "ratio", report.recall),
            ("precision_at_k", "ratio", report.precision_at_k),
            ("detect_delay_ticks", "ticks", report.mean_latency_ticks(Timestamp::HOUR)),
        ]
    }
}
