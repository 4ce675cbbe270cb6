//! `live_minutely`: live monitoring of a tweet stream (Show Case 2).
//! Minute ticks, each fed with `process_docs` and closed with
//! `close_tick`, while one reader thread issues `top_k` and
//! `personalized` queries back to back through the `QueryHandle` (a
//! closed loop). The close dominates, there is one epoch per tick, and
//! reads run beside writes: a change that speeds the close but slows
//! reads, or the reverse, shows here.

use crate::common::{self, Counts};
use crate::probe::{Meter, Probe};
use crate::report::Round;
use crate::stats::LogHist;
use crate::trace::{self, Hub, Makespan, Tracer};
use crate::Workload;
use enblogue::datagen::entities::EntityUniverse;
use enblogue::datagen::eval::evaluate;
use enblogue::datagen::twitter::{TweetConfig, TweetStream};
use enblogue::prelude::*;
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const HOURS: u64 = 12;
const TWEETS_PER_MINUTE: u64 = 300;
const HASHTAGS: usize = 4000;
const SEEDS: usize = 256;

pub struct Live {
    input: TweetStream,
    universe: EntityUniverse,
    config: EnBlogueConfig,
    slices: Vec<(Tick, Range<usize>)>,
    reference: Vec<RankingSnapshot>,
    single_thread_docs_per_s: f64,
    profiles: Vec<UserProfile>,
    last_published: Vec<RankingSnapshot>,
}

fn engine_config(shards: Option<usize>) -> EnBlogueConfig {
    let builder = EnBlogueConfig::builder()
        .tick_spec(TickSpec::minutely())
        .window_ticks(30)
        .seed_count(SEEDS)
        .min_seed_count(3)
        .top_k(10);
    match shards {
        Some(n) => builder.shards(n).parallel_close(false),
        None => builder,
    }
    .build()
    .expect("valid live config")
}

impl Live {
    pub fn prepare(seed: u64) -> Self {
        let input = TweetStream::generate(&TweetConfig {
            seed,
            hours: HOURS,
            tweets_per_minute: TWEETS_PER_MINUTE,
            n_hashtags: HASHTAGS,
            n_terms: 800,
            planted_events: 4,
            sigmod_stunt: true,
        });
        let universe = EntityUniverse::generate(400, seed ^ 0xE171);
        let config = engine_config(None);
        let slices = common::tick_slices(&input.docs, config.tick_spec);
        // Reference and single-thread baseline: one shard, serial close,
        // no reader.
        let start = Instant::now();
        let reference = EnBlogueEngine::new(engine_config(Some(1))).run_replay(&input.docs);
        let single_thread_docs_per_s = input.docs.len() as f64 / start.elapsed().as_secs_f64();
        assert_eq!(reference.len(), slices.len(), "one reference ranking per minute");
        // Readers follow popular hashtags.
        let profiles = (0..4)
            .map(|i| {
                UserProfile::new(format!("reader-{i}"))
                    .with_keyword(input.hashtags.word(i * 3))
                    .with_keyword(input.hashtags.word(i * 3 + 1))
            })
            .collect();
        Live {
            input,
            universe,
            config,
            slices,
            reference,
            single_thread_docs_per_s,
            profiles,
            last_published: Vec::new(),
        }
    }
}

/// What the reader thread saw.
struct Reads {
    count: u64,
    failed: u64,
    busy_s: f64,
    elapsed_s: f64,
    latency_ns: LogHist,
    epoch_lag_max: u64,
}

/// Closed-loop reader: one query after another until `stop`. A read
/// fails when it finds no view after the first publish, or a view older
/// than the one before it.
fn read_loop(
    handle: &QueryHandle,
    profiles: &[UserProfile],
    k: usize,
    stop: &AtomicBool,
    published: &AtomicBool,
    fed_ticks: &AtomicU64,
) -> Reads {
    let mut reads = Reads {
        count: 0,
        failed: 0,
        busy_s: 0.0,
        elapsed_s: 0.0,
        latency_ns: LogHist::new(),
        epoch_lag_max: 0,
    };
    let mut last_epoch = 0u64;
    let mut busy_ns = 0u64;
    let start = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let was_published = published.load(Ordering::Acquire);
        let t0 = Instant::now();
        let view = handle.view();
        let ok = match &view {
            None => !was_published,
            Some(view) => {
                let epoch = view.epoch();
                if reads.count.is_multiple_of(2) {
                    black_box(view.top_k(k));
                } else {
                    let profile = &profiles[(reads.count / 2) as usize % profiles.len()];
                    black_box(view.personalized(profile));
                }
                let monotone = epoch >= last_epoch;
                last_epoch = epoch;
                monotone
            }
        };
        drop(view);
        let ns = t0.elapsed().as_nanos() as u64;
        busy_ns += ns;
        reads.latency_ns.record(ns);
        reads.count += 1;
        reads.failed += u64::from(!ok);
        let lag = fed_ticks.load(Ordering::Relaxed).saturating_sub(last_epoch);
        reads.epoch_lag_max = reads.epoch_lag_max.max(lag);
    }
    reads.elapsed_s = start.elapsed().as_secs_f64();
    reads.busy_s = busy_ns as f64 * 1e-9;
    reads
}

impl Workload for Live {
    fn round(&mut self, traced: bool, probe: &mut Probe) -> Round {
        let mut round = Round::new(traced);
        let (p, dict_build_s, setup_s) =
            common::set_up_timed(&self.universe, &self.config, &self.input.interner, probe);
        let common::Pipeline { tagger: _, mut engine, handle } = p;
        round.setup_s = setup_s;
        let hub = Hub::new(&engine);
        let hub_start = hub.sample();
        let counts_start = Counts::of(&engine);
        let mut tr = Tracer::new(traced);
        let mut makespan = Makespan::default();
        let mut pairs_scored = 0u64;
        let mut visible_ok = Vec::with_capacity(self.slices.len());
        let mut published = Vec::with_capacity(self.slices.len());
        let docs = &self.input.docs;
        let stop = AtomicBool::new(false);
        let first_publish = AtomicBool::new(false);
        let fed_ticks = AtomicU64::new(0);

        let reads = std::thread::scope(|scope| {
            let reader = {
                let handle = handle.clone();
                let (profiles, k) = (&self.profiles, self.config.k);
                let (stop, first_publish, fed_ticks) = (&stop, &first_publish, &fed_ticks);
                scope.spawn(move || read_loop(&handle, profiles, k, stop, first_publish, fed_ticks))
            };
            let mut meter = Meter::start(probe);
            for (i, (tick, range)) in self.slices.iter().enumerate() {
                let tick_start = Instant::now();
                let tick_span = tr.begin("tick", tick.0);
                fed_ticks.store(i as u64 + 1, Ordering::Relaxed);
                let s = tr.begin("ingest.feed", tick.0);
                engine.process_docs(&docs[range.clone()]);
                tr.end(s);
                let shards_before = if traced { hub.shard_ns() } else { Vec::new() };
                let s = tr.begin("core.close", tick.0);
                engine.close_tick(*tick);
                tr.end(s);
                if traced {
                    makespan.add(&shards_before, &hub.shard_ns());
                    pairs_scored += engine.pipeline().state().registry().len() as u64;
                }
                let s = tr.begin("serve.visible", tick.0);
                visible_ok.push(common::wait_visible(&handle, i as u64 + 1, *tick));
                first_publish.store(true, Ordering::Release);
                tr.end(s);
                round.visible_ms.push(tick_start.elapsed().as_secs_f64() * 1e3);
                let s = tr.begin("serve.readback", tick.0);
                published.push(handle.ranking());
                tr.end(s);
                tr.end(tick_span);
                meter.boundary();
            }
            round.set_stream(meter.finish());
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        round.docs = docs.len() as u64;

        for ((ok, got), want) in visible_ok.iter().zip(&published).zip(&self.reference) {
            round.check(*ok && got.as_ref() == Some(want));
        }
        round.attempted += reads.count;
        round.failed += reads.failed;
        self.last_published = published.into_iter().flatten().collect();
        let read_tail = reads.latency_ns.tail();
        round.extra.extend([
            ("reads_per_s", "1/s", reads.count as f64 / reads.elapsed_s),
            ("read_p50_us", "us", reads.latency_ns.median() * 1e-3),
            ("read_tail_us", "us", read_tail.value * 1e-3),
            ("read_tail_percentile", "%", read_tail.percentile),
            ("read_samples", "count", reads.latency_ns.total() as f64),
        ]);

        if traced {
            let times = tr.times();
            let hub = hub.sample().since(&hub_start);
            let publish = hub.stage_s("serve-publish");
            let checkpoint = hub.stage_s("checkpoint");
            let feed_s = trace::self_s(&times, "ingest.feed");
            round.layer_self_s = vec![
                ("entity", 0.0),
                ("ingest", feed_s),
                ("core", trace::self_s(&times, "core.close") - publish - checkpoint),
                (
                    "serve",
                    trace::self_s(&times, "serve.visible")
                        + trace::self_s(&times, "serve.readback")
                        + publish,
                ),
                ("snapshot", checkpoint),
            ];
            let (partition_s, observations) = common::partition_pass(&engine, docs, &self.slices);
            round.layers.extend([
                ("entity.dict_build_s", "s", dict_build_s),
                ("ingest.feed_s", "s", feed_s),
                ("ingest.partition_s", "s", partition_s),
                ("ingest.observations", "count", observations as f64),
                ("ingest.ns_per_observation", "ns", feed_s * 1e9 / observations.max(1) as f64),
                ("ingest.arrivals", "count", docs.len() as f64),
                ("ingest.admitted_share", "ratio", 1.0),
                ("serve.epochs", "count", handle.epoch() as f64),
                ("serve.reads", "count", reads.count as f64),
                ("serve.read_busy_s", "s", reads.busy_s),
                ("serve.epoch_lag_max", "count", reads.epoch_lag_max as f64),
            ]);
            let counts = Counts::of(&engine).since(counts_start);
            common::close_layers(
                &mut round,
                &hub,
                &makespan,
                pairs_scored,
                self.slices.len() as u64,
                counts,
            );
            round.tracer = Some(tr);
        }
        round
    }

    fn summary(&self) -> Vec<(&'static str, &'static str, f64)> {
        let k = self.config.k;
        let report = evaluate(&self.last_published, &self.input.script, k, 2 * Timestamp::HOUR);
        vec![
            ("recall_at_k", "ratio", report.recall),
            ("precision_at_k", "ratio", report.precision_at_k),
            ("detect_delay_ticks", "ticks", report.mean_latency_ticks(Timestamp::MINUTE)),
            ("baseline.single_thread_docs_per_s", "1/s", self.single_thread_docs_per_s),
        ]
    }
}
