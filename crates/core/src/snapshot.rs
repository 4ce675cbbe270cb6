//! Versioned checkpoint/restore of the full engine state.
//!
//! EnBlogue is a continuously running service: tag-pair windows and shift
//! scores accumulate over the whole stream, so a crash loses state that
//! replay alone can only rebuild by re-reading everything. This module is
//! the failover answer: the complete [`crate::stages::PipelineState`] —
//! per-shard pair states, windowed counts *including
//! observed-but-undiscovered keys*, seed-tracker windows, and the tick
//! cursor — serializes into one length-prefixed, checksummed binary file,
//! written atomically (temp file + rename) and restored into a fresh
//! pipeline that continues mid-stream. Shard routing is static hash
//! routing, so the file carries no routing section: restore checks that
//! every key sits in the store `shard_of_packed` names and refuses the
//! file otherwise.
//!
//! The headline invariant, pinned by `tests/stage_parity.rs` and
//! `crates/core/tests/prop_snapshot.rs`: **checkpoint at any tick close +
//! restore + replay of the tail produces byte-identical rankings to the
//! uninterrupted run**, across every execution knob (shard count, close
//! mode, ingest workers). Restores of truncated,
//! corrupted, or incompatible files surface a typed
//! [`EnBlogueError`] — never a panic: a half-written checkpoint from a
//! crash is exactly the input the restore path exists for.
//!
//! # File format (version 3)
//!
//! ```text
//! magic   8 bytes  b"ENBSNP01"
//! version u32 LE   SNAPSHOT_VERSION
//! length  u64 LE   payload byte count
//! payload          component sections (see the encode_snapshot impls)
//! checksum u64 LE  FNV-1a 64 over the payload
//! ```
//!
//! All integers are little-endian and fixed-width; `f64`s are written as
//! their IEEE-754 bit patterns, so every float restores *bit-for-bit*
//! (running window sums are shaped by past evictions and must not be
//! recomputed). Map contents are written in sorted key order, which makes
//! equal states produce equal bytes.
//!
//! # Entry points
//!
//! * [`crate::engine::EnBlogueEngine::checkpoint`] /
//!   [`crate::engine::EnBlogueEngine::resume`] — explicit engine-level API.
//! * `EnBlogueConfig::snapshot` ([`crate::config::SnapshotConfig`]) — a
//!   `checkpoint` stage at tick close writes `checkpoint-<tick>.snap`
//!   files on an interval and prunes beyond the retention count.
//! * [`latest_checkpoint`] — finds the newest checkpoint in a directory
//!   for crash recovery (`resume` + tail replay).

use crate::config::{EnBlogueConfig, SnapshotConfig, TelemetryConfig};
use crate::pairs::ScoringMode;
use enblogue_types::{EnBlogueError, TagId, Tick, Timestamp};
use std::path::{Path, PathBuf};

/// The snapshot format version this build reads and writes.
///
/// Version 2 appended the event-time robustness sections (reordering
/// buffer — pending documents included — and source-guard state) behind
/// presence bytes. Version 3 dropped the registry's routing-table and
/// load-accounting section when routing became static. Files of any
/// other version are rejected with a typed
/// [`EnBlogueError::SnapshotVersionMismatch`] rather than misparsed.
pub const SNAPSHOT_VERSION: u32 = 3;

/// File magic: identifies EnBlogue snapshots regardless of extension.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ENBSNP01";

/// Canonical extension of checkpoint files.
pub const SNAPSHOT_EXTENSION: &str = "snap";

/// Result of one checkpoint write (see
/// [`crate::engine::EnBlogueEngine::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Where the snapshot landed.
    pub path: PathBuf,
    /// Total file size in bytes (framing included).
    pub bytes: u64,
    /// Wall-clock microseconds spent encoding and writing.
    pub write_micros: u64,
    /// Pairs tracked at checkpoint time.
    pub tracked_pairs: usize,
    /// The tick cursor captured (None if no tick was closed yet).
    pub tick: Option<Tick>,
}

/// FNV-1a 64-bit hash — the payload checksum. Not cryptographic; it
/// detects truncation and bit rot, which is the failure model of a local
/// checkpoint file.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of every configuration knob that shapes serialized state.
///
/// The snapshot section itself is excluded (changing where checkpoints go
/// must not invalidate old checkpoints), and so are the knobs read only
/// at run time: telemetry, `parallel_close` (read at each close) and
/// `scoring_mode` (re-applied from the resuming configuration). Every
/// other knob — semantic ones *and* `shards` — must match exactly for a
/// resume, because the restored structures (shard pool, window lengths,
/// sketch capacities) are sized by them.
pub(crate) fn config_fingerprint(config: &EnBlogueConfig) -> u64 {
    let mut config = config.clone();
    config.snapshot = SnapshotConfig::default();
    // A checkpoint written with telemetry off must resume with it on (and
    // vice versa); the same holds for the close mode and scoring path.
    config.telemetry = TelemetryConfig::default();
    config.parallel_close = false;
    config.scoring_mode = ScoringMode::default();
    // `Debug` output is a stable, total rendering of the plain-data config
    // struct (no maps, no addresses), so its hash is a stable fingerprint.
    fnv1a64(format!("{config:?}").as_bytes())
}

/// Shorthand for a corrupt-snapshot error.
pub(crate) fn corrupt(message: impl Into<String>) -> EnBlogueError {
    EnBlogueError::SnapshotCorrupt(message.into())
}

fn io_err(context: &str, path: &Path, err: std::io::Error) -> EnBlogueError {
    EnBlogueError::SnapshotIo(format!("{context} {}: {err}", path.display()))
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Append-only payload writer (little-endian, fixed-width).
#[derive(Default)]
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub(crate) fn new() -> Self {
        SnapWriter { buf: Vec::with_capacity(4096) }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// IEEE-754 bit pattern — restores bit-for-bit, NaN payloads included.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn tick(&mut self, t: Tick) {
        self.u64(t.0);
    }

    pub(crate) fn timestamp(&mut self, t: Timestamp) {
        self.u64(t.0);
    }

    pub(crate) fn tag(&mut self, t: TagId) {
        self.u32(t.0);
    }

    pub(crate) fn opt_tick(&mut self, t: Option<Tick>) {
        match t {
            Some(t) => {
                self.u8(1);
                self.tick(t);
            }
            None => self.u8(0),
        }
    }

    /// Length-prefixed raw byte string (buffered document text).
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor-based payload reader; every read is bounds-checked and returns
/// a typed [`EnBlogueError::SnapshotCorrupt`] on truncation.
pub(crate) struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EnBlogueError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| corrupt("payload truncated mid-field"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EnBlogueError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EnBlogueError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EnBlogueError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, EnBlogueError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn tick(&mut self) -> Result<Tick, EnBlogueError> {
        Ok(Tick(self.u64()?))
    }

    pub(crate) fn timestamp(&mut self) -> Result<Timestamp, EnBlogueError> {
        Ok(Timestamp(self.u64()?))
    }

    pub(crate) fn tag(&mut self) -> Result<TagId, EnBlogueError> {
        Ok(TagId(self.u32()?))
    }

    pub(crate) fn opt_tick(&mut self) -> Result<Option<Tick>, EnBlogueError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.tick()?)),
            tag => Err(corrupt(format!("invalid Option tag {tag}"))),
        }
    }

    /// Reads a sequence length and sanity-checks it against the remaining
    /// bytes (each element needs at least `min_elem_bytes`), so a corrupt
    /// length cannot trigger an absurd allocation before the truncation
    /// would surface naturally.
    pub(crate) fn seq(&mut self, min_elem_bytes: usize) -> Result<usize, EnBlogueError> {
        let len = self.u64()? as usize;
        let remaining = self.data.len() - self.pos;
        if len.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(corrupt(format!(
                "sequence of {len} elements exceeds the {remaining} bytes left in the payload"
            )));
        }
        Ok(len)
    }

    /// Length-prefixed raw byte string (inverse of
    /// [`SnapWriter::bytes`]).
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, EnBlogueError> {
        let len = self.seq(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), EnBlogueError> {
        if self.pos != self.data.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after the last section",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File framing
// ---------------------------------------------------------------------------

/// Frames `payload` (magic + version + length + checksum) and writes it
/// atomically and durably: the bytes land in a sibling temp file, are
/// `fsync`ed, `rename`d over `path`, and the directory entry is synced —
/// so neither a process crash nor a power loss mid-write can leave a
/// partial file under the checkpoint name. Returns the framed byte count.
pub(crate) fn write_snapshot_file(path: &Path, payload: &[u8]) -> Result<u64, EnBlogueError> {
    use std::io::Write;

    let mut framed = Vec::with_capacity(payload.len() + 28);
    framed.extend_from_slice(&SNAPSHOT_MAGIC);
    framed.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&fnv1a64(payload).to_le_bytes());

    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| io_err("creating", parent, e))?;
    }
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
        file.write_all(&framed).map_err(|e| io_err("writing", &tmp, e))?;
        // Flush data to stable storage *before* the rename becomes
        // visible: otherwise a power loss can journal the rename while
        // the data blocks are still in flight, publishing a checkpoint
        // name over zero-length or garbage content.
        file.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io_err("publishing", path, e))
    })();
    if let Err(err) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(err);
    }
    // Persist the directory entry too (best-effort: on filesystems or
    // platforms that refuse directory fsync the rename is still atomic
    // for process crashes, which is the common failure).
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(framed.len() as u64)
}

/// The temp-file name used by the atomic write (process-id suffixed so
/// concurrent checkpointers in different processes cannot collide).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Reads and verifies a snapshot file, returning the raw payload.
///
/// Every malformation — short file, wrong magic, unsupported version,
/// length mismatch, checksum mismatch — surfaces as a typed error.
pub(crate) fn read_snapshot_payload(path: &Path) -> Result<Vec<u8>, EnBlogueError> {
    const HEADER: usize = SNAPSHOT_MAGIC.len() + 4 + 8;
    let mut bytes = std::fs::read(path).map_err(|e| io_err("reading", path, e))?;
    if bytes.len() < HEADER + 8 {
        return Err(corrupt(format!("file is {} bytes, smaller than the frame", bytes.len())));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic: not an EnBlogue snapshot"));
    }
    let version = u32::from_le_bytes(
        bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].try_into().expect("4 bytes"),
    );
    if version != SNAPSHOT_VERSION {
        return Err(EnBlogueError::SnapshotVersionMismatch {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let len =
        u64::from_le_bytes(bytes[SNAPSHOT_MAGIC.len() + 4..HEADER].try_into().expect("8 bytes"))
            as usize;
    if bytes.len() != HEADER + len + 8 {
        return Err(corrupt(format!(
            "length prefix says {len} payload bytes, file carries {}",
            bytes.len().saturating_sub(HEADER + 8)
        )));
    }
    let expected = u64::from_le_bytes(bytes[HEADER + len..].try_into().expect("8 bytes"));
    let actual = fnv1a64(&bytes[HEADER..HEADER + len]);
    if actual != expected {
        return Err(corrupt(format!(
            "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
        )));
    }
    // Strip the frame in place rather than copying the payload out: a
    // restore already holds the whole file, and a second full-size copy
    // doubles peak memory exactly when a failover process is tightest.
    bytes.truncate(HEADER + len);
    bytes.drain(..HEADER);
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Checkpoint directories
// ---------------------------------------------------------------------------

/// The canonical file name of the checkpoint taken at `tick`
/// (zero-padded so lexicographic order is tick order).
pub fn checkpoint_file_name(tick: Tick) -> String {
    format!("checkpoint-{:012}.{SNAPSHOT_EXTENSION}", tick.0)
}

/// Checkpoint files in `dir`, oldest first. Non-checkpoint files are
/// ignored; a missing directory reads as empty (nothing checkpointed yet).
pub fn list_checkpoints(dir: &Path) -> Result<Vec<PathBuf>, EnBlogueError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("listing", dir, e)),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".snap"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// The newest checkpoint in `dir`, if any — the crash-recovery entry
/// point (pass it to [`crate::engine::EnBlogueEngine::resume`]).
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, EnBlogueError> {
    Ok(list_checkpoints(dir)?.pop())
}

/// Deletes the oldest checkpoints beyond `retention`, plus temp files
/// orphaned by *other* processes' crashes mid-write (our own pid's temp
/// may be a live write in flight). Best-effort: a file that cannot be
/// removed is skipped (the next prune retries), because retention is
/// hygiene, not correctness.
pub(crate) fn prune_checkpoints(dir: &Path, retention: usize) {
    let Ok(files) = list_checkpoints(dir) else { return };
    let excess = files.len().saturating_sub(retention.max(1));
    for path in files.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
    let own_suffix = format!(".tmp.{}", std::process::id());
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.filter_map(|entry| entry.ok().map(|e| e.path())) {
        let orphaned = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
            n.starts_with("checkpoint-") && n.contains(".snap.tmp.") && !n.ends_with(&own_suffix)
        });
        if orphaned {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enblogue-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn codec_round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.f64(-0.125);
        w.tick(Tick(42));
        w.opt_tick(None);
        w.opt_tick(Some(Tick(9)));
        w.timestamp(Timestamp::from_hours(3));
        w.tag(TagId(11));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.tick().unwrap(), Tick(42));
        assert_eq!(r.opt_tick().unwrap(), None);
        assert_eq!(r.opt_tick().unwrap(), Some(Tick(9)));
        assert_eq!(r.timestamp().unwrap(), Timestamp::from_hours(3));
        assert_eq!(r.tag().unwrap(), TagId(11));
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.u64().is_err(), "reading past the end must fail");
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(EnBlogueError::SnapshotCorrupt(_))));
    }

    #[test]
    fn absurd_sequence_lengths_are_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.seq(8), Err(EnBlogueError::SnapshotCorrupt(_))));
    }

    #[test]
    fn file_round_trip_and_corruption_detection() {
        let dir = tmp_dir("frame");
        let path = dir.join("state.snap");
        let payload = b"engine state bytes".to_vec();
        let bytes = write_snapshot_file(&path, &payload).unwrap();
        assert_eq!(bytes, payload.len() as u64 + 28);
        assert_eq!(read_snapshot_payload(&path).unwrap(), payload);

        // Flip one payload byte: checksum mismatch.
        let mut raw = std::fs::read(&path).unwrap();
        raw[SNAPSHOT_MAGIC.len() + 4 + 8] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_snapshot_payload(&path),
            Err(EnBlogueError::SnapshotCorrupt(msg)) if msg.contains("checksum")
        ));

        // Truncate: length mismatch.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        assert!(matches!(read_snapshot_payload(&path), Err(EnBlogueError::SnapshotCorrupt(_))));

        // Wrong version: a future one, and version 2 (the last format
        // with a routing section).
        for found in [99u32, 2] {
            let mut raw = Vec::new();
            raw.extend_from_slice(&SNAPSHOT_MAGIC);
            raw.extend_from_slice(&found.to_le_bytes());
            raw.extend_from_slice(&0u64.to_le_bytes());
            raw.extend_from_slice(&fnv1a64(b"").to_le_bytes());
            std::fs::write(&path, &raw).unwrap();
            assert_eq!(
                read_snapshot_payload(&path),
                Err(EnBlogueError::SnapshotVersionMismatch { found, supported: SNAPSHOT_VERSION })
            );
        }

        // Wrong magic.
        std::fs::write(&path, b"NOTASNAPSHOTFILE----------------").unwrap();
        assert!(matches!(
            read_snapshot_payload(&path),
            Err(EnBlogueError::SnapshotCorrupt(msg)) if msg.contains("magic")
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_are_io_errors_not_panics() {
        let err = read_snapshot_payload(Path::new("/nonexistent/enblogue.snap")).unwrap_err();
        assert!(matches!(err, EnBlogueError::SnapshotIo(_)));
    }

    #[test]
    fn retention_prunes_oldest_checkpoints() {
        let dir = tmp_dir("retention");
        for tick in [3u64, 1, 7, 5] {
            write_snapshot_file(&dir.join(checkpoint_file_name(Tick(tick))), b"x").unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        prune_checkpoints(&dir, 2);
        let kept = list_checkpoints(&dir).unwrap();
        assert_eq!(
            kept.iter()
                .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
                .collect::<Vec<_>>(),
            vec![checkpoint_file_name(Tick(5)), checkpoint_file_name(Tick(7))],
            "newest two survive, name order is tick order"
        );
        assert!(dir.join("unrelated.txt").exists(), "non-checkpoint files untouched");
        // Orphaned temp files from a crashed *other* process are swept;
        // our own pid's in-flight temp is left alone.
        let orphan = dir.join("checkpoint-000000000009.snap.tmp.1");
        let own = dir.join(format!("checkpoint-000000000009.snap.tmp.{}", std::process::id()));
        std::fs::write(&orphan, b"torn").unwrap();
        std::fs::write(&own, b"in flight").unwrap();
        prune_checkpoints(&dir, 2);
        assert!(!orphan.exists(), "foreign orphan removed");
        assert!(own.exists(), "own temp file kept");
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(dir.join(checkpoint_file_name(Tick(7)))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_lists_empty() {
        let ghost = std::env::temp_dir().join("enblogue-snap-does-not-exist-xyz");
        assert_eq!(list_checkpoints(&ghost).unwrap(), Vec::<PathBuf>::new());
        assert_eq!(latest_checkpoint(&ghost).unwrap(), None);
    }

    #[test]
    fn fingerprint_ignores_the_snapshot_section_only() {
        let base = EnBlogueConfig::builder().build().unwrap();
        let mut moved = base.clone();
        moved.snapshot =
            SnapshotConfig { interval_ticks: 5, directory: "/elsewhere".into(), retention: 9 };
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&moved),
            "checkpoint placement must not invalidate old checkpoints"
        );
        let mut semantic = base.clone();
        semantic.window_ticks += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&semantic));
        let mut execution = base.clone();
        execution.shards += 1;
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&execution),
            "the shard count sizes the restored pool and is fingerprinted too"
        );
        let mut run_time = base.clone();
        run_time.parallel_close = !run_time.parallel_close;
        run_time.scoring_mode = match base.scoring_mode {
            ScoringMode::Batched => ScoringMode::Scalar,
            ScoringMode::Scalar => ScoringMode::Batched,
        };
        run_time.telemetry.enabled = !run_time.telemetry.enabled;
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&run_time),
            "knobs read only at run time must not invalidate checkpoints"
        );
    }
}
