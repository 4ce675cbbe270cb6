//! Property tests for checkpoint/restore: serializing the engine at an
//! arbitrary point of an arbitrary stream and restoring into a fresh
//! engine must preserve *every* observable surface — windowed pair counts
//! (including observed-but-undiscovered keys), correlation histories,
//! seed sets, per-shard placement, and the ranking — and a tail replay from
//! the restore point must be byte-identical to the uninterrupted run.

use enblogue_core::config::EnBlogueConfig;
use enblogue_core::engine::EnBlogueEngine;
use enblogue_types::{Document, TagId, TagPair, Tick, TickSpec, Timestamp};
use proptest::prelude::*;
use std::path::PathBuf;

/// Builds the timestamp-sorted document stream of one generated case:
/// each `(tick, a, b)` observation becomes a two-tag document (the second
/// member is offset so self-pairs cannot occur).
fn docs_of(obs: &[(u64, u32, u32)]) -> Vec<Document> {
    let mut sorted: Vec<(u64, u32, u32)> = obs.to_vec();
    sorted.sort_by_key(|&(t, _, _)| t);
    sorted
        .into_iter()
        .enumerate()
        .map(|(id, (tick, a, b))| {
            Document::builder(id as u64, Timestamp::from_hours(tick))
                .tags([TagId(a), TagId(b + 100)])
                .build()
        })
        .collect()
}

fn config(shards: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(5)
        // A small seed set leaves some observed pairs seedless: their
        // windowed counts exist *without* tracked state and must survive
        // the snapshot round trip all the same.
        .seed_count(6)
        .min_seed_count(1)
        .top_k(12)
        .min_pair_support(1)
        .shards(shards)
        .parallel_close(false)
        .build()
        .unwrap()
}

fn snap_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enblogue-prop-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.snap"))
}

/// Every externally observable surface of an engine, for equality checks.
type Surface = (
    Option<enblogue_types::RankingSnapshot>,
    Vec<u64>,
    Vec<u64>,
    Vec<Option<Vec<f64>>>,
    Vec<TagId>,
    Vec<usize>,
    (usize, u64, u64),
);

fn surface(engine: &EnBlogueEngine, observed: &[u64]) -> Surface {
    let registry = engine.pipeline().state().registry();
    let tracked = registry.tracked_keys();
    let counts = observed.iter().map(|&k| registry.pair_count(TagPair::from_packed(k))).collect();
    let histories = tracked.iter().map(|&k| registry.history_of(TagPair::from_packed(k))).collect();
    let stats = registry.stats();
    let metrics = engine.metrics();
    (
        engine.pipeline().latest_snapshot().cloned(),
        tracked,
        counts,
        histories,
        engine.pipeline().current_seeds(),
        stats.per_shard_pairs,
        (metrics.pairs_tracked, metrics.pairs_discovered, metrics.pairs_evicted),
    )
}

/// All distinct packed pair keys a case's observations can produce.
fn observed_keys(obs: &[(u64, u32, u32)]) -> Vec<u64> {
    let mut keys: Vec<u64> =
        obs.iter().map(|&(_, a, b)| TagPair::new(TagId(a), TagId(b + 100)).packed()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    /// Checkpoint at a random tick, restore, replay the tail: the final
    /// state and every intermediate ranking match the uninterrupted run.
    #[test]
    fn checkpoint_restore_preserves_every_surface(
        obs in proptest::collection::vec((0u64..8, 0u32..20, 0u32..20), 1..300),
        split in 0u64..8,
        knob in 0u32..2,
    ) {
        let shards = if knob == 0 { 1 } else { 4 };
        let cfg = config(shards);
        let docs = docs_of(&obs);
        let observed = observed_keys(&obs);
        let cut = docs.partition_point(|d| cfg.tick_spec.tick_of(d.timestamp).0 <= split);

        let mut uninterrupted = EnBlogueEngine::new(cfg.clone());
        let full = uninterrupted.run_replay(&docs);

        let mut first = EnBlogueEngine::new(cfg.clone());
        let head = first.run_replay(&docs[..cut]);
        let path = snap_path(&format!("case-{shards}"));
        first.checkpoint(&path).unwrap();
        drop(first);

        let mut resumed = EnBlogueEngine::resume(cfg, &path).unwrap();
        prop_assert_eq!(resumed.metrics().restores, 1);
        let tail = resumed.run_replay(&docs[cut..]);

        let mut spliced = head;
        spliced.extend(tail);
        prop_assert_eq!(&spliced, &full, "snapshot sequences diverged");
        prop_assert_eq!(
            surface(&resumed, &observed),
            surface(&uninterrupted, &observed),
            "engine surfaces diverged after restore + tail replay"
        );
    }

    /// An immediate restore (no tail) is a perfect clone of the
    /// checkpointed engine, windowed counts of seedless pairs included.
    #[test]
    fn restore_is_a_perfect_clone(
        obs in proptest::collection::vec((0u64..6, 0u32..16, 0u32..16), 1..200),
    ) {
        let cfg = config(3);
        let docs = docs_of(&obs);
        let observed = observed_keys(&obs);
        let mut original = EnBlogueEngine::new(cfg.clone());
        original.run_replay(&docs);
        let path = snap_path("clone");
        original.checkpoint(&path).unwrap();
        let resumed = EnBlogueEngine::resume(cfg, &path).unwrap();
        prop_assert_eq!(surface(&resumed, &observed), surface(&original, &observed));
    }

    /// Random corruption of a snapshot file is rejected with a typed
    /// error — any byte, anywhere — never a panic and never a silent
    /// half-restore.
    #[test]
    fn corrupted_snapshots_are_rejected_not_panicking(
        obs in proptest::collection::vec((0u64..4, 0u32..12, 0u32..12), 1..80),
        victim in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let cfg = config(2);
        let docs = docs_of(&obs);
        let mut engine = EnBlogueEngine::new(cfg.clone());
        engine.run_replay(&docs);
        let path = snap_path("corrupt");
        engine.checkpoint(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let index = victim % raw.len();
        raw[index] ^= flip;
        std::fs::write(&path, &raw).unwrap();
        match EnBlogueEngine::resume(cfg, &path) {
            // Every corruption must surface as one of the snapshot error
            // kinds (flipping a version byte reads as a version
            // mismatch; most flips trip the checksum first).
            Err(enblogue_types::EnBlogueError::SnapshotCorrupt(_))
            | Err(enblogue_types::EnBlogueError::SnapshotVersionMismatch { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "corrupted snapshot restored silently"),
        }
    }
}

#[test]
fn tick_cursor_survives_even_empty_engines() {
    // Degenerate but legal: checkpoint before any document or close.
    let cfg = config(1);
    let mut engine = EnBlogueEngine::new(cfg.clone());
    let path = snap_path("empty");
    let stats = engine.checkpoint(&path).unwrap();
    assert_eq!(stats.tick, None);
    assert_eq!(stats.tracked_pairs, 0);
    let mut resumed = EnBlogueEngine::resume(cfg, &path).unwrap();
    assert!(resumed.pipeline().latest_snapshot().is_none());
    // The restored empty engine behaves exactly like a fresh one.
    let docs = docs_of(&[(0, 1, 2), (1, 1, 2), (2, 3, 4)]);
    let mut fresh = EnBlogueEngine::new(config(1));
    assert_eq!(resumed.run_replay(&docs), fresh.run_replay(&docs));
    assert_eq!(resumed.metrics().ticks_closed, Tick(2).0 + 1);
}
