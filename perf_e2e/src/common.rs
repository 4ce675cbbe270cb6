//! Pieces every workload shares: engine set-up, entity tagging, the wait
//! for a tick to become visible, and the per-layer figures of the close.

use crate::env;
use crate::probe::Probe;
use crate::report::Round;
use crate::trace::{HubSample, Makespan};
use enblogue::datagen::entities::EntityUniverse;
use enblogue::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A freshly set-up pipeline.
pub struct Pipeline {
    pub tagger: EntityTagger,
    pub engine: EnBlogueEngine,
    pub handle: QueryHandle,
}

/// Set-ups timed per round; the round keeps the last pipeline. A set-up
/// takes well under a millisecond, so many are cheap and their median is
/// steady.
const SETUPS_PER_ROUND: usize = 15;

/// [`set_up`] repeated [`SETUPS_PER_ROUND`] times, each between two
/// probes of the host's speed: returns the last pipeline, its dictionary
/// build time and every set-up time, all at the probe's reference speed.
pub fn set_up_timed(
    universe: &EntityUniverse,
    config: &EnBlogueConfig,
    interner: &TagInterner,
    probe: &mut Probe,
) -> (Pipeline, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut last = None;
    for _ in 0..SETUPS_PER_ROUND {
        let before = probe.run();
        let (pipeline, dict_build_s, setup_s) = set_up(universe, config, interner);
        let factor = Probe::factor(before, probe.run());
        times.push(setup_s * factor);
        last = Some((pipeline, dict_build_s * factor));
    }
    let (pipeline, dict_build_s) = last.expect("at least one set-up");
    (pipeline, dict_build_s, times)
}

/// Set-up as a user pays it: build the entity dictionary, the tagger, the
/// engine and its query handle. Returns the pipeline, the dictionary build
/// time and the whole set-up time, in process CPU seconds (set-up runs on
/// one thread and never waits, so that is its wall time less any time the
/// host stole).
pub fn set_up(
    universe: &EntityUniverse,
    config: &EnBlogueConfig,
    interner: &TagInterner,
) -> (Pipeline, f64, f64) {
    let start = env::Stamp::now();
    let gazetteer = dictionary(universe);
    let dict_build_s = start.elapsed().cpu_s;
    let tagger = EntityTagger::new(gazetteer);
    let mut engine = EnBlogueEngine::new(config.clone());
    let handle = QueryHandle::attach(&mut engine, interner.clone(), ServeConfig::default());
    let setup_s = start.elapsed().cpu_s;
    (Pipeline { tagger, engine, handle }, dict_build_s, setup_s)
}

/// The entity dictionary: every entity's title plus its aliases as
/// redirects.
pub fn dictionary(universe: &EntityUniverse) -> Arc<Gazetteer> {
    let mut builder = Gazetteer::builder();
    for entity in &universe.entities {
        builder.add_title(&entity.name);
        for alias in &entity.aliases {
            builder.add_redirect(alias, &entity.name);
        }
    }
    Arc::new(builder.build())
}

/// Tags one document's text into its entity set and drops the text, as
/// the library's tagging operator does. Returns the mentions found.
pub fn tag_doc(tagger: &EntityTagger, interner: &TagInterner, doc: &mut Document) -> u64 {
    let Some(text) = doc.text.take() else { return 0 };
    let mentions = tagger.tag_text(&text);
    for mention in &mentions {
        doc.entities.push(interner.intern(&mention.name, TagKind::Entity));
    }
    doc.normalize();
    mentions.len() as u64
}

/// Spins until the handle has published `epoch`; returns whether the
/// published view is for `tick`.
pub fn wait_visible(handle: &QueryHandle, epoch: u64, tick: Tick) -> bool {
    while handle.epoch() < epoch {
        std::hint::spin_loop();
    }
    handle.tick() == Some(tick)
}

/// Splits a time-sorted stream into per-tick index ranges. Every tick
/// between the first and the last must hold a document: the workloads
/// close one tick per slice, and a reference replay would close gap
/// ticks in between.
pub fn tick_slices(docs: &[Document], spec: TickSpec) -> Vec<(Tick, std::ops::Range<usize>)> {
    let mut slices: Vec<(Tick, std::ops::Range<usize>)> = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let tick = spec.tick_of(doc.timestamp);
        match slices.last_mut() {
            Some((t, range)) if *t == tick => range.end = i + 1,
            Some((t, _)) => {
                assert_eq!(tick, t.next(), "generated stream has a gap tick or is unsorted");
                slices.push((tick, i..i + 1));
            }
            None => slices.push((tick, i..i + 1)),
        }
    }
    slices
}

/// Engine counters a round reports, taken before and after it.
#[derive(Clone, Copy)]
pub struct Counts {
    pub discovered: u64,
    pub evicted: u64,
    pub rebalances: u64,
    pub migrated: u64,
}

impl Counts {
    pub fn of(engine: &EnBlogueEngine) -> Self {
        let m = engine.metrics();
        Counts {
            discovered: m.pairs_discovered,
            evicted: m.pairs_evicted,
            rebalances: m.rebalances,
            migrated: m.pairs_migrated,
        }
    }

    pub fn since(self, start: Counts) -> Counts {
        Counts {
            discovered: self.discovered - start.discovered,
            evicted: self.evicted - start.evicted,
            rebalances: self.rebalances - start.rebalances,
            migrated: self.migrated - start.migrated,
        }
    }
}

/// The close's per-layer figures, from the hub's histograms over a round.
pub fn close_layers(
    round: &mut Round,
    hub: &HubSample,
    makespan: &Makespan,
    pairs_scored: u64,
    ticks: u64,
    counts: Counts,
) {
    let s = |ns: u64| ns as f64 * 1e-9;
    let tick_s = hub.detect_stages_s();
    round.layers.extend([
        ("close.tick_s", "s", tick_s),
        ("close.seed_select_s", "s", hub.stage_s("seed-select")),
        ("close.term_window_s", "s", hub.stage_s("term-window")),
        ("close.pair_count_s", "s", hub.stage_s("pair-count")),
        ("close.shift_score_s", "s", hub.stage_s("shift-score")),
        ("close.score_s", "s", s(hub.score_ns)),
        ("close.expiry_s", "s", s(hub.expiry_ns)),
        ("close.rank_s", "s", s(hub.rank_ns)),
        ("close.rank_emit_s", "s", hub.stage_s("rank-emit")),
        ("close.ns_per_pair", "ns", tick_s * 1e9 / pairs_scored.max(1) as f64),
        ("close.shard_makespan_s", "s", makespan.makespan_s()),
        ("close.shard_imbalance", "ratio", makespan.imbalance()),
        ("pairs.scored", "count", pairs_scored as f64),
        ("pairs.tracked_mean", "count", pairs_scored as f64 / ticks.max(1) as f64),
        ("pairs.discovered", "count", counts.discovered as f64),
        ("pairs.evicted", "count", counts.evicted as f64),
        ("routing.rebalances", "count", counts.rebalances as f64),
        ("routing.pairs_migrated", "count", counts.migrated as f64),
        ("serve.publish_s", "s", s(hub.publish_ns)),
    ]);
}

/// Times `partition_docs` over the given per-tick slices with the
/// engine's partitioning spec: the feed's partitioning step on its own.
/// Returns (seconds, pair observations).
pub fn partition_pass(
    engine: &EnBlogueEngine,
    docs: &[Document],
    slices: &[(Tick, std::ops::Range<usize>)],
) -> (f64, u64) {
    let spec = engine.pipeline().partition_spec();
    let start = Instant::now();
    let mut observations = 0u64;
    for (_, range) in slices {
        let batch = partition_docs(&docs[range.clone()], &spec);
        observations += batch.observations as u64;
    }
    (start.elapsed().as_secs_f64(), observations)
}
