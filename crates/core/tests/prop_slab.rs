//! Property tests for the slab-resident pair storage: the sharded
//! registry (slab columns, arena history rings, lane-based windowed
//! counts, incrementally maintained iteration order) must be observably
//! indistinguishable from a straightforward map-of-structs reference
//! model under random ingest / close / evict / snapshot-restore
//! sequences — including bit-exact scores, since both
//! sides must perform the identical float operations in the identical
//! order.

use enblogue_core::pairs::ShardedPairRegistry;
use enblogue_stats::predict::PredictorKind;
use enblogue_stats::shift::{ErrorNormalization, ShiftScorer};
use enblogue_types::{FxHashSet, TagId, TagPair, Tick, Timestamp};
use enblogue_window::DecayValue;
use proptest::prelude::*;
use std::collections::BTreeMap;

const POOL: usize = 4;
const WINDOW: usize = 5;
const MIN_SUPPORT: u64 = 1;
const CAP: usize = 12;
const TOP_K: usize = 16;

fn scorer() -> ShiftScorer {
    ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute)
}

/// The synthetic but deterministic correlation both sides compute.
fn correlate(pair: TagPair, ab: u64) -> f64 {
    ab as f64 / (3.0 + (pair.lo().0 % 7) as f64)
}

fn seeded(pair: TagPair, seeds: &FxHashSet<TagId>) -> bool {
    seeds.contains(&pair.lo()) || seeds.contains(&pair.hi())
}

/// The straightforward reference: a `BTreeMap` of per-pair structs with
/// `Vec` histories, and brute-force windowed counts over the retained
/// per-tick observation log. No slabs, no lanes, no incremental anything.
struct RefModel {
    states: BTreeMap<u64, RefState>,
    /// Every observation ever, as `(tick, packed)` — windowed counts are
    /// recomputed from scratch on demand.
    log: Vec<(u64, u64)>,
    current: Vec<u64>,
    evicted: u64,
}

struct RefState {
    history: Vec<f64>,
    score: DecayValue,
    last_support: Tick,
    since: Tick,
}

impl RefModel {
    fn new() -> Self {
        RefModel { states: BTreeMap::new(), log: Vec::new(), current: Vec::new(), evicted: 0 }
    }

    fn observe(&mut self, tick: u64, packed: u64) {
        self.log.push((tick, packed));
        self.current.push(packed);
    }

    /// Windowed co-occurrence count of `packed` in the window ending at
    /// `tick`, brute-force over the log.
    fn count(&self, tick: u64, packed: u64) -> u64 {
        let lo = tick.saturating_sub(WINDOW as u64 - 1);
        self.log.iter().filter(|&&(t, k)| k == packed && t >= lo && t <= tick).count() as u64
    }

    fn close(&mut self, tick: u64, seeds: &FxHashSet<TagId>, s: &ShiftScorer) {
        let now = Timestamp::from_hours(tick);
        // Discovery: this tick's seeded co-occurrences become tracked.
        let candidates = std::mem::take(&mut self.current);
        for packed in candidates {
            let pair = TagPair::from_packed(packed);
            if seeded(pair, seeds) {
                self.states.entry(packed).or_insert_with(|| RefState {
                    history: Vec::new(),
                    score: DecayValue::new(Timestamp::DAY),
                    last_support: Tick(tick),
                    since: Tick(tick),
                });
            }
        }
        // Scoring: every tracked pair, history before this tick's value.
        let counts: Vec<(u64, u64)> =
            self.states.keys().map(|&packed| (packed, self.count(tick, packed))).collect();
        for (packed, ab) in counts {
            let state = self.states.get_mut(&packed).expect("key from same map");
            let correlation = correlate(TagPair::from_packed(packed), ab);
            let shift = if ab >= MIN_SUPPORT {
                s.score(&state.history, correlation).map(|(v, _)| v).unwrap_or(0.0)
            } else {
                0.0
            };
            state.score.observe_max(now, shift);
            state.history.push(correlation);
            if state.history.len() > WINDOW {
                state.history.remove(0);
            }
            if ab >= MIN_SUPPORT {
                state.last_support = Tick(tick);
            }
        }
        // Eviction: support loss, then the global cap (weakest first).
        let before = self.states.len();
        self.states.retain(|_, state| Tick(tick).since(state.last_support) < WINDOW as u64);
        self.evicted += (before - self.states.len()) as u64;
        if self.states.len() > CAP {
            let excess = self.states.len() - CAP;
            let mut scored: Vec<(f64, u64)> =
                self.states.iter().map(|(&packed, s)| (s.score.value_at(now), packed)).collect();
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            for &(_, packed) in scored.iter().take(excess) {
                self.states.remove(&packed);
                self.evicted += 1;
            }
        }
    }

    fn ranking(&self, tick: u64) -> Vec<(TagPair, f64)> {
        let now = Timestamp::from_hours(tick);
        let mut ranked: Vec<(TagPair, f64)> = self
            .states
            .iter()
            .map(|(&packed, s)| (TagPair::from_packed(packed), s.score.value_at(now)))
            .filter(|&(_, score)| score > 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite").then(a.0.packed().cmp(&b.0.packed()))
        });
        ranked.truncate(TOP_K);
        ranked
    }
}

fn registry() -> ShardedPairRegistry {
    ShardedPairRegistry::new(POOL, WINDOW, Timestamp::DAY, MIN_SUPPORT, CAP)
}

/// Round-trips the registry through its standalone snapshot payload.
fn roundtrip(registry: ShardedPairRegistry) -> ShardedPairRegistry {
    let bytes = registry.snapshot_bytes();
    ShardedPairRegistry::from_snapshot_bytes(&bytes, POOL, WINDOW, Timestamp::DAY, MIN_SUPPORT, CAP)
        .expect("self-produced snapshot restores")
}

proptest! {
    /// The full observable surface of the slab registry — tracked keys,
    /// correlation histories, windowed counts, rankings, eviction totals
    /// — matches the reference model at every tick close, with snapshot
    /// round-trips injected between ticks.
    #[test]
    fn slab_registry_matches_reference_model(
        obs in proptest::collection::vec((0u64..8, 0u32..16, 0u32..16), 1..300),
        snapshot_at in proptest::collection::vec(0u64..8, 0..3),
    ) {
        let s = scorer();
        // Only even tags seed, so some observed pairs stay undiscovered —
        // their windowed counts must still survive restore.
        let seeds: FxHashSet<TagId> = (0..40u32).filter(|a| a % 2 == 0).map(TagId).collect();
        let mut r = registry();
        let mut model = RefModel::new();
        let last_tick = obs.iter().map(|&(t, _, _)| t).max().unwrap_or(0);
        let mut observed: Vec<u64> = Vec::new();

        for tick in 0..=last_tick {
            for &(t, a, b) in &obs {
                if t == tick {
                    // Self-pairs are invalid; offset the second tag space.
                    let pair = TagPair::new(TagId(a), TagId(b + 100));
                    r.observe_pair(Tick(tick), pair.packed());
                    model.observe(tick, pair.packed());
                    observed.push(pair.packed());
                }
            }
            r.advance_to(Tick(tick));
            r.discover_seeded(&seeds, Tick(tick), 0, false);
            r.score_all(Tick(tick), Timestamp::from_hours(tick), &s, false, |p, ab| {
                correlate(p, ab)
            });
            r.evict_parallel(Tick(tick), Timestamp::from_hours(tick), false);
            model.close(tick, &seeds, &s);

            // Every close: full observable comparison.
            let keys = r.tracked_keys();
            let expected: Vec<u64> = model.states.keys().copied().collect();
            prop_assert_eq!(&keys, &expected, "tracked keys at tick {}", tick);
            prop_assert_eq!(r.evicted_total(), model.evicted, "evictions at tick {}", tick);
            for &packed in &keys {
                let pair = TagPair::from_packed(packed);
                prop_assert_eq!(
                    r.history_of(pair).expect("tracked"),
                    model.states[&packed].history.clone(),
                    "history of {} at tick {}", pair, tick
                );
                let info = r.info(pair, Tick(tick), Timestamp::from_hours(tick)).expect("tracked");
                let state = &model.states[&packed];
                prop_assert_eq!(
                    info.score.to_bits(),
                    state.score.value_at(Timestamp::from_hours(tick)).to_bits(),
                    "score of {} at tick {}", pair, tick
                );
                prop_assert_eq!(
                    info.correlation,
                    state.history.last().copied().unwrap_or(0.0),
                    "newest correlation of {} at tick {}", pair, tick
                );
                prop_assert_eq!(
                    info.tracked_ticks,
                    Tick(tick).since(state.since),
                    "tracked ticks of {} at tick {}", pair, tick
                );
            }
            observed.sort_unstable();
            observed.dedup();
            for &packed in &observed {
                prop_assert_eq!(
                    r.pair_count(TagPair::from_packed(packed)),
                    model.count(tick, packed),
                    "windowed count of {:#x} at tick {}", packed, tick
                );
            }
            prop_assert_eq!(
                r.ranking(TOP_K, Timestamp::from_hours(tick)),
                model.ranking(tick),
                "ranking at tick {}", tick
            );

            // Scripted round-trips between ticks: the model has no notion
            // of them, so they must be observably invisible.
            if snapshot_at.contains(&tick) {
                r = roundtrip(r);
            }
        }
    }
}
