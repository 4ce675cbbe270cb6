//! `archive_timelapse`: the paper's time-lapse replay of a news archive
//! (Show Case 1). Full-text articles, daily ticks; per day the loop tags
//! the day's articles, feeds them and closes the tick, with a query handle
//! attached. A closed loop on one thread, no readers, no checkpoints:
//! entity tagging and the feed path dominate, the close is a minor share.

use crate::common::{self, Counts};
use crate::probe::{Meter, Probe};
use crate::report::Round;
use crate::trace::{self, Hub, Makespan, Tracer};
use crate::Workload;
use enblogue::datagen::eval::evaluate;
use enblogue::datagen::nyt::{NytArchive, NytConfig};
use enblogue::prelude::*;
use std::ops::Range;
use std::time::Instant;

const DAYS: u64 = 180;
const DOCS_PER_DAY: u64 = 1000;

pub struct Archive {
    input: NytArchive,
    config: EnBlogueConfig,
    slices: Vec<(Tick, Range<usize>)>,
    reference: Vec<RankingSnapshot>,
    single_thread_docs_per_s: f64,
    last_published: Vec<RankingSnapshot>,
}

fn engine_config(shards: Option<usize>) -> EnBlogueConfig {
    let builder = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3);
    match shards {
        Some(n) => builder.shards(n).parallel_close(false),
        None => builder,
    }
    .build()
    .expect("valid archive config")
}

impl Archive {
    pub fn prepare(seed: u64) -> Self {
        let input = NytArchive::generate(&NytConfig {
            seed,
            days: DAYS,
            docs_per_day: DOCS_PER_DAY,
            ..NytConfig::default()
        });
        let config = engine_config(None);
        let slices = common::tick_slices(&input.docs, config.tick_spec);

        // Reference: the same stream tagged and replayed sequentially on
        // one shard with a serial close and no reader. Timed, it is the
        // single-thread baseline.
        let mut docs = input.docs.clone();
        let tagger = EntityTagger::new(common::dictionary(&input.universe));
        let start = Instant::now();
        for doc in &mut docs {
            common::tag_doc(&tagger, &input.interner, doc);
        }
        let reference = EnBlogueEngine::new(engine_config(Some(1))).run_replay(&docs);
        let single_thread_docs_per_s = docs.len() as f64 / start.elapsed().as_secs_f64();
        assert_eq!(reference.len(), slices.len(), "one reference ranking per day");
        Archive {
            input,
            config,
            slices,
            reference,
            single_thread_docs_per_s,
            last_published: Vec::new(),
        }
    }
}

impl Workload for Archive {
    fn round(&mut self, traced: bool, probe: &mut Probe) -> Round {
        let mut round = Round::new(traced);
        let mut docs = self.input.docs.clone();
        let interner = &self.input.interner;
        let (p, dict_build_s, setup_s) =
            common::set_up_timed(&self.input.universe, &self.config, interner, probe);
        let common::Pipeline { tagger, mut engine, handle } = p;
        round.setup_s = setup_s;
        let hub = Hub::new(&engine);
        let hub_start = hub.sample();
        let counts_start = Counts::of(&engine);
        let mut tr = Tracer::new(traced);
        let mut makespan = Makespan::default();
        let mut pairs_scored = 0u64;
        let mut mentions = 0u64;
        let mut visible_ok = Vec::with_capacity(self.slices.len());
        let mut published = Vec::with_capacity(self.slices.len());

        let mut meter = Meter::start(probe);
        for (i, (tick, range)) in self.slices.iter().enumerate() {
            let tick_start = Instant::now();
            let tick_span = tr.begin("tick", tick.0);
            for doc in &mut docs[range.clone()] {
                let s = tr.begin("entity.tag", tick.0);
                mentions += common::tag_doc(&tagger, interner, doc);
                tr.end(s);
            }
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
            tr.end(s);
            round.visible_ms.push(tick_start.elapsed().as_secs_f64() * 1e3);
            let s = tr.begin("serve.readback", tick.0);
            published.push(handle.ranking());
            tr.end(s);
            tr.end(tick_span);
            meter.boundary();
        }
        round.set_stream(meter.finish());
        round.docs = docs.len() as u64;

        for ((ok, got), want) in visible_ok.iter().zip(&published).zip(&self.reference) {
            round.check(*ok && got.as_ref() == Some(want));
        }
        self.last_published = published.into_iter().flatten().collect();

        if traced {
            let times = tr.times();
            let hub = hub.sample().since(&hub_start);
            let publish = hub.stage_s("serve-publish");
            let checkpoint = hub.stage_s("checkpoint");
            let tag_s = trace::self_s(&times, "entity.tag");
            let feed_s = trace::self_s(&times, "ingest.feed");
            let close_s = trace::self_s(&times, "core.close");
            round.layer_self_s = vec![
                ("entity", tag_s),
                ("ingest", feed_s),
                ("core", close_s - publish - checkpoint),
                (
                    "serve",
                    trace::self_s(&times, "serve.visible")
                        + trace::self_s(&times, "serve.readback")
                        + publish,
                ),
                ("snapshot", checkpoint),
            ];
            let (partition_s, observations) = common::partition_pass(&engine, &docs, &self.slices);
            let n = docs.len() as f64;
            round.layers.extend([
                ("entity.dict_build_s", "s", dict_build_s),
                ("entity.tag_s", "s", tag_s),
                ("entity.docs", "count", n),
                ("entity.mentions", "count", mentions as f64),
                ("entity.ns_per_doc", "ns", tag_s * 1e9 / n),
                ("ingest.feed_s", "s", feed_s),
                ("ingest.partition_s", "s", partition_s),
                ("ingest.observations", "count", observations as f64),
                ("ingest.ns_per_observation", "ns", feed_s * 1e9 / observations.max(1) as f64),
                ("ingest.arrivals", "count", n),
                ("ingest.admitted_share", "ratio", 1.0),
                ("serve.epochs", "count", handle.epoch() as f64),
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
        let report = evaluate(&self.last_published, &self.input.script, k, 2 * Timestamp::DAY);
        vec![
            ("recall_at_k", "ratio", report.recall),
            ("precision_at_k", "ratio", report.precision_at_k),
            ("detect_delay_ticks", "ticks", report.mean_latency_ticks(Timestamp::DAY)),
            ("baseline.single_thread_docs_per_s", "1/s", self.single_thread_docs_per_s),
        ]
    }
}
