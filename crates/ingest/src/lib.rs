//! # enblogue-ingest — the pure front of the feed path
//!
//! Three stateless-or-checkpointable pieces the stage pipeline in
//! `enblogue-core` drives from its one batched feed
//! (`StagePipeline::process_docs`) and its event-time front end
//! (`StagePipeline::offer_doc`):
//!
//! * [`partition`] — the partitioning pre-pass:
//!   [`partition::partition_docs`] tokenizes a document slice into
//!   `(tick, packed pair)` co-occurrence observations exactly once and
//!   buckets them by pair shard (the static hash routing
//!   [`enblogue_types::shard_of_packed`] the consuming registry uses). No
//!   locks, no threads, no own state; the per-shard observation order is
//!   exactly the order a sequential feeder would have produced, which is
//!   what lets the registry apply the buckets one writer per shard and
//!   stay order-identical.
//! * [`reorder`] — the bounded watermark buffer: holds out-of-order
//!   arrivals per event tick, seals ticks `bounded_lateness` behind the
//!   maximum event tick seen, re-sequences late documents into their
//!   true tick, and drops anything beyond the bound.
//! * [`guard`] — per-source defenses: an exact-duplicate window keyed by
//!   `(source, doc)` and token-bucket flood caps, so one hostile feed
//!   degrades alone instead of hijacking the rankings.
//!
//! The reorder buffer and the guard are pure functions of the document
//! stream, so every feed path reaches byte-identical state, and both are
//! exactly checkpointable. Batch splits and shard counts are invisible in
//! rankings (pinned by `tests/stage_parity.rs` in the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guard;
pub mod partition;
pub mod reorder;

pub use guard::{GuardSnapshot, GuardVerdict, SourceGuard};
pub use partition::{partition_docs, PartitionSpec, PartitionedBatch};
pub use reorder::{PushOutcome, ReorderBuffer, ReorderSnapshot};
