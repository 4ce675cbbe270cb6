//! Bounded event-time reordering: the watermark buffer.
//!
//! Real web 2.0 traffic is late: a document *published* (event time,
//! [`Document::timestamp`]) in tick `T` may *arrive* (stream position)
//! while the feed is already deep into tick `T+k`. The tick semantics of
//! `enblogue_core::stages` require a timestamp-sorted feed, so something
//! has to re-sequence arrivals — that is this buffer.
//!
//! # Watermark contract
//!
//! The buffer is **arrival-driven**: it holds documents per event tick
//! and tracks the maximum event tick seen so far (`max_tick_seen`). The
//! *low watermark* is
//!
//! ```text
//! watermark = max_tick_seen − bounded_lateness
//! ```
//!
//! and every tick **strictly below** the watermark is sealed: its
//! documents drain out in event-tick order (arrival order preserved
//! within a tick) and the tick may close downstream. Equivalently, a
//! document is accepted iff its lateness — `max_tick_seen` at arrival
//! minus its own event tick — is at most `bounded_lateness`; anything
//! later targets an already-sealed tick and is dropped (counted in
//! [`ReorderBuffer::late_dropped`], surfaced as telemetry + journal
//! events by the consumer).
//!
//! Three properties make this a safe default in the parity-pinned
//! pipeline:
//!
//! * **Pure function of the arrival stream.** No wall clock anywhere:
//!   sealing advances only when arrivals advance `max_tick_seen`, so the
//!   same arrival sequence always produces the same emission sequence and
//!   the same drops, so replays are deterministic.
//! * **Invisible on clean input.** For an already-sorted stream the
//!   emission order equals the arrival order and nothing is ever late,
//!   so downstream state is byte-identical to feeding directly
//!   (pinned in `tests/stage_parity.rs`).
//! * **Exactly resumable.** [`ReorderBuffer::to_snapshot`] captures the
//!   complete state — pending documents included — and `arrivals` is the
//!   cursor into the arrival stream, so crash recovery replays the tail
//!   from that index and continues bit-exactly
//!   (`enblogue_core::snapshot`).
//!
//! Memory is bounded twice: sealing caps the *tick span* held at
//! `bounded_lateness + 1` open ticks, and `max_buffered_docs` caps the
//! document count outright (a stalled watermark — e.g. a source that
//! stops advancing event time — cannot grow the buffer without bound;
//! excess arrivals drop into [`ReorderBuffer::overflow_dropped`]).

use enblogue_types::{Document, Tick, TickSpec};
use std::collections::BTreeMap;

/// What [`ReorderBuffer::push`] did with a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Accepted and held until its tick seals.
    Buffered,
    /// Event tick already sealed (lateness beyond the bound) — dropped.
    Late,
    /// `max_buffered_docs` reached — dropped without advancing the
    /// watermark.
    Overflow,
}

/// Complete serializable state of a [`ReorderBuffer`] (see
/// `enblogue_core::snapshot` for the on-disk codec).
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderSnapshot {
    /// Arrival-stream cursor: total documents ever pushed.
    pub arrivals: u64,
    /// Documents dropped as beyond the lateness bound.
    pub late_dropped: u64,
    /// Documents dropped by the `max_buffered_docs` cap.
    pub overflow_dropped: u64,
    /// Highest event tick observed.
    pub max_tick_seen: Option<Tick>,
    /// Highest tick already sealed (emitted or skipped while empty).
    pub emitted_through: Option<Tick>,
    /// Buffered documents per open tick, ascending.
    pub pending: Vec<(Tick, Vec<Document>)>,
}

/// The bounded event-time reordering buffer (module docs have the
/// watermark contract).
#[derive(Debug)]
pub struct ReorderBuffer {
    tick_spec: TickSpec,
    bounded_lateness: u64,
    max_buffered_docs: usize,
    /// Open ticks → documents in arrival order. `BTreeMap` so draining
    /// walks ticks ascending deterministically.
    pending: BTreeMap<u64, Vec<Document>>,
    buffered: usize,
    max_tick_seen: Option<Tick>,
    emitted_through: Option<Tick>,
    arrivals: u64,
    late_dropped: u64,
    overflow_dropped: u64,
}

impl ReorderBuffer {
    /// An empty buffer. `bounded_lateness` is in ticks; `max_buffered_docs`
    /// must be non-zero (validated by `EventTimeConfig`).
    pub fn new(tick_spec: TickSpec, bounded_lateness: u64, max_buffered_docs: usize) -> Self {
        ReorderBuffer {
            tick_spec,
            bounded_lateness,
            max_buffered_docs,
            pending: BTreeMap::new(),
            buffered: 0,
            max_tick_seen: None,
            emitted_through: None,
            arrivals: 0,
            late_dropped: 0,
            overflow_dropped: 0,
        }
    }

    /// Offers one arrival. On [`PushOutcome::Buffered`] the document is
    /// held until [`drain_ready`](Self::drain_ready) (or
    /// [`flush`](Self::flush)) releases its tick.
    pub fn push(&mut self, doc: Document) -> PushOutcome {
        self.arrivals += 1;
        let tick = self.tick_spec.tick_of(doc.timestamp);
        if self.emitted_through.is_some_and(|sealed| tick <= sealed) {
            self.late_dropped += 1;
            return PushOutcome::Late;
        }
        if self.buffered >= self.max_buffered_docs {
            self.overflow_dropped += 1;
            return PushOutcome::Overflow;
        }
        if self.max_tick_seen.is_none_or(|max| tick > max) {
            self.max_tick_seen = Some(tick);
        }
        self.pending.entry(tick.0).or_default().push(doc);
        self.buffered += 1;
        PushOutcome::Buffered
    }

    /// Appends to `out` every document whose tick the watermark has
    /// sealed, in event-tick order (arrival order within a tick), and
    /// advances `emitted_through` — across *empty* sealed ticks too, so a
    /// late arrival for a tick nothing was buffered in still drops
    /// deterministically.
    pub fn drain_ready(&mut self, out: &mut Vec<Document>) {
        let Some(max) = self.max_tick_seen else { return };
        // Ticks strictly below the watermark (max − lateness) are sealed.
        let Some(seal) = max.0.checked_sub(self.bounded_lateness + 1) else { return };
        if self.emitted_through.is_some_and(|done| done.0 >= seal) {
            return;
        }
        self.emit_through(seal, out);
    }

    /// End of stream: releases everything still pending (in tick order)
    /// and seals through `max_tick_seen`. Further pushes for old ticks
    /// count as late.
    pub fn flush(&mut self, out: &mut Vec<Document>) {
        if let Some(max) = self.max_tick_seen {
            self.emit_through(max.0, out);
        }
    }

    fn emit_through(&mut self, seal: u64, out: &mut Vec<Document>) {
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() > seal {
                break;
            }
            let docs = entry.remove();
            self.buffered -= docs.len();
            out.extend(docs);
        }
        if self.emitted_through.is_none_or(|done| done.0 < seal) {
            self.emitted_through = Some(Tick(seal));
        }
    }

    /// The low watermark (`max_tick_seen − bounded_lateness`, floored at
    /// tick 0); ticks strictly below it are sealed. `None` until the
    /// first accepted document.
    pub fn watermark(&self) -> Option<Tick> {
        self.max_tick_seen.map(|max| Tick(max.0.saturating_sub(self.bounded_lateness)))
    }

    /// The highest tick ever emitted (drained or flushed), advancing
    /// across empty sealed ticks. `None` until something was sealed.
    /// Every tick at or below it is complete: all of its surviving
    /// documents have been released downstream.
    pub fn emitted_through(&self) -> Option<Tick> {
        self.emitted_through
    }

    /// Arrival-stream cursor: documents ever offered (accepted or not).
    /// Crash recovery replays the arrival stream from this index.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Documents dropped as beyond the lateness bound.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Documents dropped by the `max_buffered_docs` cap.
    pub fn overflow_dropped(&self) -> u64 {
        self.overflow_dropped
    }

    /// Documents currently held.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Captures the complete state for checkpointing.
    pub fn to_snapshot(&self) -> ReorderSnapshot {
        ReorderSnapshot {
            arrivals: self.arrivals,
            late_dropped: self.late_dropped,
            overflow_dropped: self.overflow_dropped,
            max_tick_seen: self.max_tick_seen,
            emitted_through: self.emitted_through,
            pending: self.pending.iter().map(|(&tick, docs)| (Tick(tick), docs.clone())).collect(),
        }
    }

    /// Rebuilds a buffer from a checkpointed state (inverse of
    /// [`to_snapshot`](Self::to_snapshot); the config knobs come from the
    /// fingerprint-checked engine config, not the snapshot).
    pub fn from_snapshot(
        tick_spec: TickSpec,
        bounded_lateness: u64,
        max_buffered_docs: usize,
        snapshot: ReorderSnapshot,
    ) -> Self {
        let mut pending = BTreeMap::new();
        let mut buffered = 0;
        for (tick, docs) in snapshot.pending {
            buffered += docs.len();
            pending.insert(tick.0, docs);
        }
        ReorderBuffer {
            tick_spec,
            bounded_lateness,
            max_buffered_docs,
            pending,
            buffered,
            max_tick_seen: snapshot.max_tick_seen,
            emitted_through: snapshot.emitted_through,
            arrivals: snapshot.arrivals,
            late_dropped: snapshot.late_dropped,
            overflow_dropped: snapshot.overflow_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::Timestamp;

    fn doc(id: u64, hour: u64) -> Document {
        Document::builder(id, Timestamp::from_secs(hour * 3600)).build()
    }

    #[test]
    fn in_order_stream_passes_through_unchanged() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 2, 1000);
        let mut emitted = Vec::new();
        for (id, hour) in [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 4)] {
            assert_eq!(buffer.push(doc(id, hour)), PushOutcome::Buffered);
            buffer.drain_ready(&mut emitted);
        }
        buffer.flush(&mut emitted);
        let ids: Vec<u64> = emitted.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(buffer.late_dropped(), 0);
        assert_eq!(buffer.overflow_dropped(), 0);
        assert_eq!(buffer.buffered(), 0);
    }

    #[test]
    fn late_within_bound_resequences_into_true_tick() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 2, 1000);
        let mut emitted = Vec::new();
        // Arrivals: tick 0, 1, 2, then a straggler for tick 1 (lateness
        // 1 ≤ 2), then tick 4 which seals ticks 0 and 1.
        for (id, hour) in [(1, 0), (2, 1), (3, 2), (4, 1), (5, 4)] {
            assert_eq!(buffer.push(doc(id, hour)), PushOutcome::Buffered);
            buffer.drain_ready(&mut emitted);
        }
        // watermark = 4 − 2 = 2 → ticks 0 and 1 sealed.
        let ids: Vec<u64> = emitted.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(buffer.watermark(), Some(Tick(2)));
        buffer.flush(&mut emitted);
        let ids: Vec<u64> = emitted.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 2, 4, 3, 5]);
    }

    #[test]
    fn beyond_bound_drops_and_counts() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 1, 1000);
        let mut emitted = Vec::new();
        buffer.push(doc(1, 0));
        buffer.push(doc(2, 5)); // watermark 4: ticks ≤ 3 sealed
        buffer.drain_ready(&mut emitted);
        assert_eq!(buffer.push(doc(3, 2)), PushOutcome::Late);
        assert_eq!(buffer.push(doc(4, 3)), PushOutcome::Late);
        assert_eq!(buffer.push(doc(5, 4)), PushOutcome::Buffered);
        assert_eq!(buffer.late_dropped(), 2);
        assert_eq!(buffer.arrivals(), 5);
    }

    #[test]
    fn empty_sealed_ticks_still_advance_the_seal() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 0, 1000);
        let mut emitted = Vec::new();
        buffer.push(doc(1, 0));
        buffer.push(doc(2, 10)); // seals ticks ≤ 9, all empty but 0
        buffer.drain_ready(&mut emitted);
        assert_eq!(emitted.len(), 1);
        // A late arrival for empty-but-sealed tick 5 drops.
        assert_eq!(buffer.push(doc(3, 5)), PushOutcome::Late);
    }

    #[test]
    fn overflow_cap_bounds_memory() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 100, 3);
        for id in 0..5 {
            buffer.push(doc(id, id));
        }
        assert_eq!(buffer.buffered(), 3);
        assert_eq!(buffer.overflow_dropped(), 2);
    }

    #[test]
    fn snapshot_round_trips_mid_stream() {
        let mut buffer = ReorderBuffer::new(TickSpec::hourly(), 2, 1000);
        let mut emitted = Vec::new();
        for (id, hour) in [(1, 0), (2, 3), (3, 1), (4, 4)] {
            buffer.push(doc(id, hour));
            buffer.drain_ready(&mut emitted);
        }
        let snap = buffer.to_snapshot();
        let mut restored = ReorderBuffer::from_snapshot(TickSpec::hourly(), 2, 1000, snap.clone());
        assert_eq!(restored.to_snapshot(), snap);
        // Continuations agree.
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        buffer.push(doc(5, 6));
        restored.push(doc(5, 6));
        buffer.drain_ready(&mut out_a);
        restored.drain_ready(&mut out_b);
        buffer.flush(&mut out_a);
        restored.flush(&mut out_b);
        assert_eq!(out_a, out_b);
        assert_eq!(buffer.to_snapshot(), restored.to_snapshot());
    }
}
