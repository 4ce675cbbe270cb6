//! Source guards: dedup window + per-source token-bucket flood caps.
//!
//! EnBlogue's shift scores react to *correlation changes*, which makes
//! them a target: one feed replaying the same document, or spraying a
//! fixed tag pair at high rate, can manufacture an "emergent topic" and
//! hijack the ranking (the link-anomaly and incremental-ML literature in
//! PAPERS.md motivates exactly these detector-level defenses). The
//! [`SourceGuard`] sits between the (re-ordered, tick-monotonic) document
//! stream and the seed/pair stages and applies two checks per document,
//! in order:
//!
//! 1. **Dedup window** — an exact-duplicate observation, keyed by
//!    `(source, doc id)`, is rejected if the same key was *admitted*
//!    within the last `dedup_window_ticks` ticks. Only admitted
//!    documents are recorded, so a rejected document never extends its
//!    own window. A width of `0` disables the check.
//! 2. **Token-bucket rate cap** — each source holds a bucket of
//!    `rate_burst` tokens refilled at `rate_limit_per_tick` tokens per
//!    event tick (derived from document timestamps, *not* wall clock);
//!    each admitted document spends one token. A flooding source runs
//!    dry and its excess documents drop — it degrades alone instead of
//!    starving everyone. A limit of `0` disables the check. Duplicates
//!    are rejected *before* metering, so a replay attack cannot drain
//!    its own source's budget and then claim the drops were the cap.
//!
//! Like the reorder buffer, the guard is a **pure function of the
//! admitted document sequence**: refill and expiry advance on event
//! ticks carried by the stream itself, never on wall-clock time or close
//! scheduling. That is what lets per-document and batched feeding reach
//! byte-identical guard state (pinned in `tests/stage_parity.rs`), and
//! what makes
//! [`SourceGuard::to_snapshot`] an exact checkpoint.

use enblogue_types::{DocId, FxHashMap, SourceId, Tick};

/// Verdict of [`SourceGuard::admit`] for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Passed both checks; feed it to the stages.
    Admitted,
    /// Exact duplicate of an admitted `(source, doc)` within the window.
    Duplicate,
    /// The source's token bucket is dry.
    RateCapped,
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last_refill: u64,
}

/// Complete serializable state of a [`SourceGuard`] (see
/// `enblogue_core::snapshot` for the on-disk codec). Map contents are
/// sorted by key so equal states produce equal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardSnapshot {
    /// Documents that passed both checks.
    pub admitted: u64,
    /// Documents rejected by the dedup window.
    pub deduped: u64,
    /// Documents rejected by the rate cap.
    pub rate_capped: u64,
    /// Event tick of the most recent document offered.
    pub current_tick: Option<Tick>,
    /// Admitted `(source, doc)` keys with their admission tick, sorted.
    pub dedup: Vec<(SourceId, DocId, Tick)>,
    /// Per-source buckets, sorted: `(source, tokens, last_refill_tick)`.
    /// Tokens restore bit-for-bit (the checkpoint codec writes the IEEE
    /// bit pattern).
    pub buckets: Vec<(SourceId, f64, Tick)>,
}

/// The per-source ingestion guard (module docs have the contract).
///
/// `admit` expects a tick-monotonic stream — exactly what the reorder
/// buffer emits and what a sorted replay already is. A document whose
/// tick lies *below* the guard's current tick (a late arrival the
/// pipeline folds into its open tick when no reorder buffer runs) is
/// metered at the current tick instead — mirroring where its
/// observations land — so guard time never moves backwards.
#[derive(Debug)]
pub struct SourceGuard {
    dedup_window_ticks: u64,
    rate_limit_per_tick: f64,
    rate_burst: f64,
    /// `(source, doc)` → tick the key was last *admitted* at.
    dedup: FxHashMap<(SourceId, DocId), u64>,
    buckets: FxHashMap<SourceId, TokenBucket>,
    current_tick: Option<u64>,
    admitted: u64,
    deduped: u64,
    rate_capped: u64,
}

impl SourceGuard {
    /// A fresh guard. `dedup_window_ticks == 0` disables dedup;
    /// `rate_limit_per_tick == 0.0` disables the cap. `rate_burst` is the
    /// bucket capacity new sources start with (config resolution
    /// guarantees it is ≥ the per-tick limit when the cap is on).
    pub fn new(dedup_window_ticks: u64, rate_limit_per_tick: f64, rate_burst: f64) -> Self {
        SourceGuard {
            dedup_window_ticks,
            rate_limit_per_tick,
            rate_burst,
            dedup: FxHashMap::default(),
            buckets: FxHashMap::default(),
            current_tick: None,
            admitted: 0,
            deduped: 0,
            rate_capped: 0,
        }
    }

    /// Judges one document of a (nominally tick-monotonic) stream. A
    /// tick below the current one is clamped to it — see the type docs.
    pub fn admit(&mut self, source: SourceId, doc: DocId, tick: Tick) -> GuardVerdict {
        let tick = self.current_tick.map_or(tick.0, |current| tick.0.max(current));
        if self.current_tick != Some(tick) {
            self.expire(tick);
            self.current_tick = Some(tick);
        }

        let key = (source, doc);
        if self.dedup_window_ticks > 0 {
            if let Some(&seen) = self.dedup.get(&key) {
                if tick - seen < self.dedup_window_ticks {
                    self.deduped += 1;
                    return GuardVerdict::Duplicate;
                }
            }
        }

        if self.rate_limit_per_tick > 0.0 {
            let bucket = self
                .buckets
                .entry(source)
                .or_insert(TokenBucket { tokens: self.rate_burst, last_refill: tick });
            let elapsed = (tick - bucket.last_refill) as f64;
            bucket.tokens = self.rate_burst.min(bucket.tokens + elapsed * self.rate_limit_per_tick);
            bucket.last_refill = tick;
            if bucket.tokens < 1.0 {
                self.rate_capped += 1;
                return GuardVerdict::RateCapped;
            }
            bucket.tokens -= 1.0;
        }

        if self.dedup_window_ticks > 0 {
            self.dedup.insert(key, tick);
        }
        self.admitted += 1;
        GuardVerdict::Admitted
    }

    /// Drops dedup entries whose window has fully elapsed (bounds memory
    /// to the documents admitted within the window).
    fn expire(&mut self, tick: u64) {
        if self.dedup_window_ticks == 0 || self.dedup.is_empty() {
            return;
        }
        let window = self.dedup_window_ticks;
        self.dedup.retain(|_, &mut seen| tick - seen < window);
    }

    /// Documents that passed both checks.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Documents rejected by the dedup window.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Documents rejected by the rate cap.
    pub fn rate_capped(&self) -> u64 {
        self.rate_capped
    }

    /// Captures the complete state for checkpointing (sorted, so equal
    /// states serialize to equal bytes).
    pub fn to_snapshot(&self) -> GuardSnapshot {
        let mut dedup: Vec<(SourceId, DocId, Tick)> =
            self.dedup.iter().map(|(&(s, d), &t)| (s, d, Tick(t))).collect();
        dedup.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let mut buckets: Vec<(SourceId, f64, Tick)> =
            self.buckets.iter().map(|(&s, b)| (s, b.tokens, Tick(b.last_refill))).collect();
        buckets.sort_unstable_by_key(|&(s, _, _)| s);
        GuardSnapshot {
            admitted: self.admitted,
            deduped: self.deduped,
            rate_capped: self.rate_capped,
            current_tick: self.current_tick.map(Tick),
            dedup,
            buckets,
        }
    }

    /// Rebuilds a guard from a checkpointed state (inverse of
    /// [`to_snapshot`](Self::to_snapshot); the knobs come from the
    /// fingerprint-checked engine config).
    pub fn from_snapshot(
        dedup_window_ticks: u64,
        rate_limit_per_tick: f64,
        rate_burst: f64,
        snapshot: GuardSnapshot,
    ) -> Self {
        let mut guard = SourceGuard::new(dedup_window_ticks, rate_limit_per_tick, rate_burst);
        guard.admitted = snapshot.admitted;
        guard.deduped = snapshot.deduped;
        guard.rate_capped = snapshot.rate_capped;
        guard.current_tick = snapshot.current_tick.map(|t| t.0);
        for (source, doc, tick) in snapshot.dedup {
            guard.dedup.insert((source, doc), tick.0);
        }
        for (source, tokens, last_refill) in snapshot.buckets {
            guard.buckets.insert(source, TokenBucket { tokens, last_refill: last_refill.0 });
        }
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(s: u32) -> SourceId {
        SourceId(s)
    }

    #[test]
    fn duplicates_within_window_reject_and_expire_after() {
        let mut guard = SourceGuard::new(3, 0.0, 0.0);
        assert_eq!(guard.admit(src(1), 10, Tick(0)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 10, Tick(0)), GuardVerdict::Duplicate);
        assert_eq!(guard.admit(src(1), 10, Tick(2)), GuardVerdict::Duplicate);
        // Different source or doc id is a different key.
        assert_eq!(guard.admit(src(2), 10, Tick(2)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 11, Tick(2)), GuardVerdict::Admitted);
        // Window elapsed: tick 3 − admission tick 0 ≥ 3.
        assert_eq!(guard.admit(src(1), 10, Tick(3)), GuardVerdict::Admitted);
        assert_eq!(guard.deduped(), 2);
        assert_eq!(guard.admitted(), 4);
    }

    #[test]
    fn rejected_duplicates_do_not_extend_their_window() {
        let mut guard = SourceGuard::new(2, 0.0, 0.0);
        assert_eq!(guard.admit(src(1), 5, Tick(0)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 5, Tick(1)), GuardVerdict::Duplicate);
        // Window runs from the *admission* at tick 0, not the rejected
        // replay at tick 1.
        assert_eq!(guard.admit(src(1), 5, Tick(2)), GuardVerdict::Admitted);
    }

    #[test]
    fn rate_cap_meters_per_source() {
        let mut guard = SourceGuard::new(0, 2.0, 2.0);
        assert_eq!(guard.admit(src(1), 1, Tick(0)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 2, Tick(0)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 3, Tick(0)), GuardVerdict::RateCapped);
        // Another source has its own bucket.
        assert_eq!(guard.admit(src(2), 4, Tick(0)), GuardVerdict::Admitted);
        // One tick refills 2 tokens.
        assert_eq!(guard.admit(src(1), 5, Tick(1)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 6, Tick(1)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 7, Tick(1)), GuardVerdict::RateCapped);
        assert_eq!(guard.rate_capped(), 2);
    }

    #[test]
    fn duplicates_do_not_burn_tokens() {
        let mut guard = SourceGuard::new(5, 1.0, 1.0);
        assert_eq!(guard.admit(src(1), 1, Tick(0)), GuardVerdict::Admitted);
        // Bucket is dry, but the replay is judged a duplicate first.
        assert_eq!(guard.admit(src(1), 1, Tick(0)), GuardVerdict::Duplicate);
        assert_eq!(guard.admit(src(1), 2, Tick(0)), GuardVerdict::RateCapped);
    }

    #[test]
    fn expiry_bounds_dedup_memory() {
        let mut guard = SourceGuard::new(2, 0.0, 0.0);
        for tick in 0..50u64 {
            guard.admit(src(1), tick, Tick(tick));
        }
        // Only keys admitted within the last 2 ticks survive.
        assert!(guard.to_snapshot().dedup.len() <= 2);
    }

    #[test]
    fn ticks_below_current_clamp_to_current() {
        let mut guard = SourceGuard::new(3, 0.0, 0.0);
        assert_eq!(guard.admit(src(1), 1, Tick(5)), GuardVerdict::Admitted);
        // A late arrival is metered at the current tick (5), where the
        // pipeline folds its observations: still within key 1's window.
        assert_eq!(guard.admit(src(1), 1, Tick(2)), GuardVerdict::Duplicate);
        // A fresh late key anchors its window at the clamped tick too.
        assert_eq!(guard.admit(src(1), 2, Tick(0)), GuardVerdict::Admitted);
        assert_eq!(guard.admit(src(1), 2, Tick(7)), GuardVerdict::Duplicate);
        assert_eq!(guard.admit(src(1), 2, Tick(8)), GuardVerdict::Admitted);
    }

    #[test]
    fn snapshot_round_trips_and_continues_identically() {
        let mut guard = SourceGuard::new(4, 1.5, 3.0);
        for (s, d, t) in [(1, 1, 0), (1, 1, 0), (2, 2, 0), (1, 3, 1), (1, 4, 1), (1, 5, 1)] {
            guard.admit(src(s), d, Tick(t));
        }
        let snap = guard.to_snapshot();
        let mut restored = SourceGuard::from_snapshot(4, 1.5, 3.0, snap.clone());
        assert_eq!(restored.to_snapshot(), snap);
        for (s, d, t) in [(1, 6, 2), (2, 2, 2), (1, 1, 3), (1, 7, 9)] {
            assert_eq!(
                guard.admit(src(s), d, Tick(t)),
                restored.admit(src(s), d, Tick(t)),
                "diverged on ({s}, {d}, {t})"
            );
        }
        assert_eq!(guard.to_snapshot(), restored.to_snapshot());
    }
}
