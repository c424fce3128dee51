//! Durable, versioned on-disk cache tier.
//!
//! This crate implements [`CacheStore`], a crash-safe key-value store that
//! sits *below* the in-memory cache shards of the perception cache
//! (`caesura-modal`) and the validated plan cache (`caesura-llm`). The design
//! is a classic append-only segment log:
//!
//! - Writes append fixed-framed records (`checksum | key_len | val_len |
//!   tombstone | key | value`) to the active segment file; deletes append a
//!   tombstone record. Nothing is ever updated in place.
//! - Records are appended in **groups** ([`CacheStore::put_batch`];
//!   [`CacheStore::put`] is a group of one): a group's records are framed
//!   into one buffer and their index entries built before the store lock is
//!   taken, then the group costs one lock and one `write_all`. The perception
//!   cache files one group per dispatch batch.
//! - Reads are served from an in-memory index (`key -> value`) rebuilt by
//!   scanning the segments on [`CacheStore::open`]. The index is the
//!   authoritative read path; the log exists only for durability.
//! - On open, each segment is replayed up to its *valid prefix*: the scan
//!   stops at the first truncated or checksum-corrupt record, so a crash (or
//!   bit rot) costs at most the damaged tail — a cold start for those keys,
//!   never a panic and never a wrong answer. The active segment is truncated
//!   back to its valid prefix before new appends.
//! - When the dead-byte count (overwritten or tombstoned records) exceeds
//!   both a floor and the live-byte count, the store compacts: live entries
//!   are rewritten into fresh segments, synced, and the old segments deleted.
//!   Disk usage is therefore bounded by `O(live bytes)`.
//!
//! Every segment begins with a magic header that encodes the on-disk format
//! version; segments written by an unknown format are skipped wholesale
//! (again: cold start, not a crash). Callers additionally namespace their
//! keys with backend identity and schema fingerprints — see the cache
//! integrations — so a store written under one model configuration can never
//! answer for another.
//!
//! What a group append promises:
//!
//! - **Durability.** Every record of a group reaches `write(2)` before
//!   [`CacheStore::put_batch`] returns, so a process crash after that loses
//!   none of them. No append calls `fsync` (only compaction syncs), so a
//!   machine crash may still lose what the page cache had not flushed.
//! - **Crash window.** Groups are appended one at a time under the store
//!   lock, so a process crash mid-append tears at most the tail of one group.
//!   Valid-prefix recovery on the next open keeps every record before the
//!   tear.
//! - **Segment roll.** The size bound is checked once per group, before it
//!   is written, so a segment can exceed [`StoreOptions::segment_bytes`] by at
//!   most one group, and a group never spans two segments.
//! - **Failed append.** A group whose write fails indexes none of its
//!   records, and its torn bytes are cut back off the segment where the
//!   filesystem allows. The caller gets the error: [`TieredCache`] counts
//!   every record of the group in [`TieredStats::disk_errors`] and keeps
//!   serving the entries from memory.
//!
//! A `LOCK` file guarded by an OS advisory lock ([`std::fs::File::try_lock`])
//! makes concurrent opens of one directory fail fast with
//! [`StoreError::Locked`] instead of interleaving segment writes. The lock is
//! released when the store (or its process) dies, so there are no stale-lock
//! recovery paths.
//!
//! The [`tiered`] module holds [`TieredCache`], the one sharded-LRU memory
//! tier both caches put above a store.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod tiered;

pub use tiered::{
    keyed_hash, push_part, take_part, CacheKey, Hit, PrehashedMap, Put, Removed, Tier, TieredCache,
    TieredStats,
};

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every segment file. The trailing `1` is the on-disk
/// format version; bump it when the record framing changes so old segments
/// are skipped (cold start) instead of misparsed.
const SEGMENT_MAGIC: &[u8; 8] = b"CSTORE\x001";

/// Fixed bytes per record before the key and value payloads:
/// `u32` checksum + `u32` key_len + `u32` val_len + `u8` tombstone flag.
const RECORD_HEADER: usize = 13;

/// Upper bound accepted for a single key or value length. Corruption in a
/// length field must not trigger a multi-gigabyte allocation; anything this
/// large is treated as a damaged record.
const MAX_PART_LEN: u32 = 256 * 1024 * 1024;

/// Errors returned by [`CacheStore`].
#[derive(Debug)]
pub enum StoreError {
    /// Another handle (usually another process) holds the directory lock.
    Locked {
        /// The store directory that is already locked.
        dir: PathBuf,
    },
    /// An I/O error, with the path that produced it.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Locked { dir } => write!(
                f,
                "cache store directory '{}' is locked by another process",
                dir.display()
            ),
            StoreError::Io { path, source } => {
                write!(f, "cache store I/O error at '{}': {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Locked { .. } => None,
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

impl StoreError {
    fn io(path: &Path, source: io::Error) -> Self {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

/// Convenience alias for store results.
pub type StoreResult<T> = Result<T, StoreError>;

/// Tuning knobs for [`CacheStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Roll the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
    /// Never compact while fewer than this many dead bytes have accumulated
    /// (avoids rewriting a tiny store over and over).
    pub compact_min_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 4 * 1024 * 1024,
            compact_min_bytes: 1024 * 1024,
        }
    }
}

/// Point-in-time counters describing a store's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of segment files on disk.
    pub segments: usize,
    /// Number of live keys in the index.
    pub live_records: usize,
    /// Bytes occupied by live records.
    pub live_bytes: u64,
    /// Bytes occupied by overwritten / tombstoned records awaiting compaction.
    pub dead_bytes: u64,
    /// Bytes dropped during the last open because of truncated or corrupt
    /// record tails (valid-prefix recovery).
    pub corrupt_bytes_dropped: u64,
    /// Number of compactions performed since open.
    pub compactions: u64,
    /// Segment writes that carried records since open: one per group
    /// appended by [`CacheStore::put_batch`] (or [`CacheStore::put`]), one
    /// per tombstone, and one per record a compaction rewrites.
    pub appends: u64,
}

struct IndexEntry {
    value: Box<[u8]>,
    record_bytes: u64,
}

struct Inner {
    index: HashMap<Box<[u8]>, IndexEntry>,
    /// Segment ids currently on disk, ascending; the last one is active.
    segments: Vec<u64>,
    active: File,
    active_len: u64,
    live_bytes: u64,
    dead_bytes: u64,
    corrupt_bytes_dropped: u64,
    compactions: u64,
    appends: u64,
}

/// A crash-safe on-disk key-value store (see the crate docs for the design).
///
/// All operations are internally synchronized; share a store between threads
/// with `Arc<CacheStore>`.
pub struct CacheStore {
    dir: PathBuf,
    options: StoreOptions,
    inner: Mutex<Inner>,
    /// Held open for the store's lifetime; the OS releases the advisory lock
    /// when this handle (or the process) dies.
    _lock: File,
}

impl fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheStore")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.log"))
}

fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// FNV-1a over the record's framed bytes (lengths, tombstone flag, key,
/// value), truncated to 32 bits.
fn record_checksum(key: &[u8], value: &[u8], tombstone: bool) -> u32 {
    let key_len = (key.len() as u32).to_le_bytes();
    let value_len = (value.len() as u32).to_le_bytes();
    let mut hash: u64 = 0xcbf29ce484222325;
    for part in [&key_len[..], &value_len, &[u8::from(tombstone)], key, value] {
        for &byte in part {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    (hash ^ (hash >> 32)) as u32
}

/// Frame one record onto the end of `out`.
fn push_record(out: &mut Vec<u8>, key: &[u8], value: &[u8], tombstone: bool) {
    out.extend_from_slice(&record_checksum(key, value, tombstone).to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.push(u8::from(tombstone));
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

fn encode_record(key: &[u8], value: &[u8], tombstone: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
    push_record(&mut out, key, value, tombstone);
    out
}

/// Result of scanning one segment's bytes: records applied to the index plus
/// how far the valid prefix reached.
struct ScanOutcome {
    valid_len: u64,
    record_bytes: u64,
}

impl CacheStore {
    /// Open (creating if needed) the store rooted at `dir` with default
    /// [`StoreOptions`].
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<CacheStore> {
        CacheStore::open_with(dir, StoreOptions::default())
    }

    /// Open (creating if needed) the store rooted at `dir`.
    ///
    /// Fails with [`StoreError::Locked`] when another live handle — in this
    /// process or another — already has the directory open.
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> StoreResult<CacheStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;

        let lock_path = dir.join("LOCK");
        let lock = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&lock_path)
            .map_err(|e| StoreError::io(&lock_path, e))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => return Err(StoreError::Locked { dir }),
            Err(TryLockError::Error(e)) => return Err(StoreError::io(&lock_path, e)),
        }

        let mut segments: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))? {
            let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                segments.push(id);
            }
        }
        segments.sort_unstable();

        let mut index: HashMap<Box<[u8]>, IndexEntry> = HashMap::new();
        let mut record_bytes_total: u64 = 0;
        let mut dead_from_tombstones: u64 = 0;
        let mut corrupt_bytes_dropped: u64 = 0;
        let mut active_valid_len: u64 = 0;
        for (pos, &id) in segments.iter().enumerate() {
            let path = segment_path(&dir, id);
            let mut bytes = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| StoreError::io(&path, e))?;
            let outcome = scan_segment(&bytes, &mut index, &mut dead_from_tombstones);
            corrupt_bytes_dropped += bytes.len() as u64 - outcome.valid_len;
            record_bytes_total += outcome.record_bytes;
            if pos == segments.len() - 1 {
                active_valid_len = outcome.valid_len.max(SEGMENT_MAGIC.len() as u64);
            }
        }

        if segments.is_empty() {
            segments.push(1);
        }
        let active_id = *segments.last().expect("at least one segment");
        let active_path = segment_path(&dir, active_id);
        let active = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&active_path)
            .map_err(|e| StoreError::io(&active_path, e))?;
        let current_len = active
            .metadata()
            .map_err(|e| StoreError::io(&active_path, e))?
            .len();
        if current_len < SEGMENT_MAGIC.len() as u64 {
            // Brand-new (or header-truncated) active segment: start it fresh.
            active
                .set_len(0)
                .and_then(|()| (&active).write_all(SEGMENT_MAGIC))
                .map_err(|e| StoreError::io(&active_path, e))?;
            active_valid_len = SEGMENT_MAGIC.len() as u64;
        } else if current_len > active_valid_len {
            // Drop the damaged tail so new appends continue the valid prefix.
            active
                .set_len(active_valid_len)
                .map_err(|e| StoreError::io(&active_path, e))?;
        }

        let live_bytes: u64 = index.values().map(|e| e.record_bytes).sum();
        // Everything ever written minus what is still live is dead weight:
        // overwritten records plus the tombstone records themselves.
        let dead_bytes = record_bytes_total.saturating_sub(live_bytes) + dead_from_tombstones;

        Ok(CacheStore {
            dir,
            options,
            inner: Mutex::new(Inner {
                index,
                segments,
                active,
                active_len: active_valid_len,
                live_bytes,
                dead_bytes,
                corrupt_bytes_dropped,
                compactions: 0,
                appends: 0,
            }),
            _lock: lock,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look up `key`, returning a copy of its value.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let inner = self.inner.lock().expect("store mutex poisoned");
        inner.index.get(key).map(|e| e.value.to_vec())
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        let inner = self.inner.lock().expect("store mutex poisoned");
        inner.index.contains_key(key)
    }

    /// Insert or overwrite `key`: a group of one record (see
    /// [`CacheStore::put_batch`]).
    pub fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        self.put_batch(vec![(key.to_vec(), value.to_vec())])
    }

    /// Insert or overwrite every `(key, value)` of `records`, in order (a key
    /// given twice keeps its last value), as one group appended to the active
    /// segment: the records are framed into one buffer and their index
    /// entries built before the lock is taken, then the group costs one lock
    /// and one write. The crate docs state what a group append promises; on
    /// an error no record of the group is indexed.
    pub fn put_batch(&self, records: Vec<(Vec<u8>, Vec<u8>)>) -> StoreResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        let framed = |(key, value): &(Vec<u8>, Vec<u8>)| RECORD_HEADER + key.len() + value.len();
        let mut group = Vec::with_capacity(records.iter().map(framed).sum());
        let entries: Vec<(Box<[u8]>, IndexEntry)> = records
            .into_iter()
            .map(|(key, value)| {
                let start = group.len();
                push_record(&mut group, &key, &value, false);
                let entry = IndexEntry {
                    value: value.into_boxed_slice(),
                    record_bytes: (group.len() - start) as u64,
                };
                (key.into_boxed_slice(), entry)
            })
            .collect();
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        self.append(&mut inner, &group)?;
        for (key, entry) in entries {
            inner.live_bytes += entry.record_bytes;
            if let Some(old) = inner.index.insert(key, entry) {
                inner.live_bytes -= old.record_bytes;
                inner.dead_bytes += old.record_bytes;
            }
        }
        self.maybe_compact(&mut inner)
    }

    /// Remove `key`, appending a tombstone record. Returns whether the key
    /// was present.
    pub fn remove(&self, key: &[u8]) -> StoreResult<bool> {
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        let Some(old) = inner.index.remove(key) else {
            return Ok(false);
        };
        let record = encode_record(key, &[], true);
        self.append(&mut inner, &record)?;
        inner.live_bytes -= old.record_bytes;
        inner.dead_bytes += old.record_bytes + record.len() as u64;
        self.maybe_compact(&mut inner)?;
        Ok(true)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("store mutex poisoned");
        inner.index.len()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters (segment count, live/dead bytes, recovery drops).
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store mutex poisoned");
        StoreStats {
            segments: inner.segments.len(),
            live_records: inner.index.len(),
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes,
            corrupt_bytes_dropped: inner.corrupt_bytes_dropped,
            compactions: inner.compactions,
            appends: inner.appends,
        }
    }

    /// Append framed records with one write, rolling the active segment first
    /// if it is over the size bound. A failed write is cut back off the
    /// segment (best effort), so later appends continue the valid prefix.
    fn append(&self, inner: &mut Inner, records: &[u8]) -> StoreResult<()> {
        if inner.active_len >= self.options.segment_bytes {
            let next_id = inner.segments.last().copied().unwrap_or(0) + 1;
            let path = segment_path(&self.dir, next_id);
            let file = OpenOptions::new()
                .create_new(true)
                .read(true)
                .append(true)
                .open(&path)
                .map_err(|e| StoreError::io(&path, e))?;
            (&file)
                .write_all(SEGMENT_MAGIC)
                .map_err(|e| StoreError::io(&path, e))?;
            inner.segments.push(next_id);
            inner.active = file;
            inner.active_len = SEGMENT_MAGIC.len() as u64;
        }
        if let Err(e) = (&inner.active).write_all(records) {
            let _ = inner.active.set_len(inner.active_len);
            let path = segment_path(&self.dir, *inner.segments.last().expect("active segment"));
            return Err(StoreError::io(&path, e));
        }
        inner.active_len += records.len() as u64;
        inner.appends += 1;
        Ok(())
    }

    /// Rewrite live entries into fresh segments and delete the old ones once
    /// dead bytes dominate. Crash-safe ordering: the replacement segments are
    /// fully written and synced *before* any old segment is removed, and
    /// segment ids only grow, so a crash mid-compaction leaves at worst
    /// duplicate records that replay to the same index.
    fn maybe_compact(&self, inner: &mut Inner) -> StoreResult<()> {
        if inner.dead_bytes < self.options.compact_min_bytes || inner.dead_bytes < inner.live_bytes
        {
            return Ok(());
        }
        let old_segments = std::mem::take(&mut inner.segments);
        let mut next_id = old_segments.last().copied().unwrap_or(0) + 1;

        let new_segment = |id: u64| -> StoreResult<(File, PathBuf)> {
            let path = segment_path(&self.dir, id);
            let file = OpenOptions::new()
                .create_new(true)
                .read(true)
                .append(true)
                .open(&path)
                .map_err(|e| StoreError::io(&path, e))?;
            (&file)
                .write_all(SEGMENT_MAGIC)
                .map_err(|e| StoreError::io(&path, e))?;
            Ok((file, path))
        };

        let (mut file, mut path) = new_segment(next_id)?;
        let mut new_segments = vec![next_id];
        let mut written = SEGMENT_MAGIC.len() as u64;
        let mut live_bytes = 0u64;
        for (key, entry) in &mut inner.index {
            if written >= self.options.segment_bytes {
                file.sync_all().map_err(|e| StoreError::io(&path, e))?;
                next_id += 1;
                let (f, p) = new_segment(next_id)?;
                file = f;
                path = p;
                new_segments.push(next_id);
                written = SEGMENT_MAGIC.len() as u64;
            }
            let record = encode_record(key, &entry.value, false);
            (&file)
                .write_all(&record)
                .map_err(|e| StoreError::io(&path, e))?;
            inner.appends += 1;
            written += record.len() as u64;
            entry.record_bytes = record.len() as u64;
            live_bytes += record.len() as u64;
        }
        file.sync_all().map_err(|e| StoreError::io(&path, e))?;

        for id in old_segments {
            let old_path = segment_path(&self.dir, id);
            fs::remove_file(&old_path).map_err(|e| StoreError::io(&old_path, e))?;
        }

        inner.active = file;
        inner.active_len = written;
        inner.segments = new_segments;
        inner.live_bytes = live_bytes;
        inner.dead_bytes = 0;
        inner.compactions += 1;
        Ok(())
    }
}

/// Replay one segment's bytes into `index`, stopping at the first truncated
/// or corrupt record. Returns how far the valid prefix reached and how many
/// record bytes were applied. A segment whose magic header is missing or
/// from an unknown format version contributes nothing (cold start).
fn scan_segment(
    bytes: &[u8],
    index: &mut HashMap<Box<[u8]>, IndexEntry>,
    dead_from_tombstones: &mut u64,
) -> ScanOutcome {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return ScanOutcome {
            valid_len: 0,
            record_bytes: 0,
        };
    }
    let mut pos = SEGMENT_MAGIC.len();
    let mut record_bytes = 0u64;
    while pos + RECORD_HEADER <= bytes.len() {
        let checksum = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let key_len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let val_len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let tombstone = bytes[pos + 12];
        if key_len > MAX_PART_LEN || val_len > MAX_PART_LEN || tombstone > 1 {
            break;
        }
        let total = RECORD_HEADER + key_len as usize + val_len as usize;
        if pos + total > bytes.len() {
            break;
        }
        let key = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + key_len as usize];
        let value = &bytes[pos + RECORD_HEADER + key_len as usize..pos + total];
        if record_checksum(key, value, tombstone == 1) != checksum {
            break;
        }
        if tombstone == 1 {
            index.remove(key);
            *dead_from_tombstones += total as u64;
        } else {
            index.insert(
                key.into(),
                IndexEntry {
                    value: value.into(),
                    record_bytes: total as u64,
                },
            );
            record_bytes += total as u64;
        }
        pos += total;
    }
    ScanOutcome {
        valid_len: pos as u64,
        record_bytes,
    }
}

// ---------------------------------------------------------------------------
// Persistence configuration shared by the cache tiers.
// ---------------------------------------------------------------------------

/// Configuration for the persistent cache tier: the directory both tiers
/// live under, read from `CAESURA_CACHE_DIR` or built programmatically.
///
/// With `CAESURA_CACHE_DIR` unset the whole disk tier is off and sessions
/// behave byte-identically to a build without this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory for the on-disk tier. The perception and plan stores
    /// live in `perception/` and `plans/` subdirectories.
    pub dir: PathBuf,
}

impl PersistConfig {
    /// A config persisting both tiers under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into() }
    }

    /// Both tiers under the directory `CAESURA_CACHE_DIR` names. Returns
    /// `None` — disk tier fully off — when the variable is unset or empty.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("CAESURA_CACHE_DIR").ok()?;
        let dir = dir.trim();
        (!dir.is_empty()).then(|| PersistConfig::new(dir))
    }

    /// Directory of the perception-answer store.
    pub fn perception_dir(&self) -> PathBuf {
        self.dir.join("perception")
    }

    /// Directory of the validated-plan store.
    pub fn plans_dir(&self) -> PathBuf {
        self.dir.join("plans")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let mut dir = std::env::temp_dir();
            dir.push(format!(
                "caesura-store-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn put_get_overwrite_remove() {
        let tmp = TempDir::new("basic");
        let store = CacheStore::open(&tmp.0).expect("open");
        assert!(store.is_empty());
        store.put(b"k1", b"v1").expect("put");
        store.put(b"k2", b"v2").expect("put");
        assert_eq!(store.get(b"k1"), Some(b"v1".to_vec()));
        store.put(b"k1", b"v1b").expect("overwrite");
        assert_eq!(store.get(b"k1"), Some(b"v1b".to_vec()));
        assert!(store.remove(b"k2").expect("remove"));
        assert!(!store.remove(b"k2").expect("remove missing"));
        assert_eq!(store.get(b"k2"), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn reopen_recovers_index() {
        let tmp = TempDir::new("reopen");
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"a", b"1").expect("put");
            store.put(b"b", b"2").expect("put");
            store.put(b"a", b"3").expect("overwrite");
            store.remove(b"b").expect("remove");
        }
        let store = CacheStore::open(&tmp.0).expect("reopen");
        assert_eq!(store.get(b"a"), Some(b"3".to_vec()));
        assert_eq!(store.get(b"b"), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn second_open_fails_locked() {
        let tmp = TempDir::new("locked");
        let first = CacheStore::open(&tmp.0).expect("open");
        match CacheStore::open(&tmp.0) {
            Err(StoreError::Locked { dir }) => assert_eq!(dir, tmp.0),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(first);
        CacheStore::open(&tmp.0).expect("reopen after release");
    }

    #[test]
    fn truncated_tail_recovers_valid_prefix() {
        let tmp = TempDir::new("truncate");
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"keep", b"ok").expect("put");
            store.put(b"tail", b"damaged").expect("put");
        }
        let seg = segment_path(&tmp.0, 1);
        let len = fs::metadata(&seg).expect("meta").len();
        let file = OpenOptions::new().write(true).open(&seg).expect("open seg");
        file.set_len(len - 3).expect("truncate");
        drop(file);

        let store = CacheStore::open(&tmp.0).expect("reopen");
        assert_eq!(store.get(b"keep"), Some(b"ok".to_vec()));
        assert_eq!(store.get(b"tail"), None, "damaged record must be dropped");
        assert!(store.stats().corrupt_bytes_dropped > 0);
        // Appending after recovery continues the valid prefix.
        store
            .put(b"tail", b"rewritten")
            .expect("put after recovery");
        drop(store);
        let store = CacheStore::open(&tmp.0).expect("reopen again");
        assert_eq!(store.get(b"tail"), Some(b"rewritten".to_vec()));
    }

    /// `(key, value)` records, owned as a group takes them.
    fn records(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let owned =
            |(key, value): &(&str, &str)| (key.as_bytes().to_vec(), value.as_bytes().to_vec());
        pairs.iter().map(owned).collect()
    }

    #[test]
    fn a_group_round_trips_through_reopen() {
        let tmp = TempDir::new("group");
        let group = [("k1", "v1"), ("k2", "v2"), ("k3", "v3")];
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put_batch(records(&group)).expect("group");
            store.put_batch(Vec::new()).expect("an empty group");
            let stats = store.stats();
            assert_eq!((stats.live_records, stats.appends), (3, 1));
        }
        let store = CacheStore::open(&tmp.0).expect("reopen");
        for (key, value) in group {
            assert_eq!(store.get(key.as_bytes()), Some(value.as_bytes().to_vec()));
        }
        assert_eq!(store.stats().corrupt_bytes_dropped, 0);
    }

    #[test]
    fn a_key_twice_in_one_group_keeps_its_last_value() {
        let tmp = TempDir::new("group-repeat");
        let before = {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"a", b"0").expect("put");
            let group = [("a", "1"), ("b", "2"), ("a", "three")];
            store.put_batch(records(&group)).expect("group");
            assert_eq!(store.get(b"a"), Some(b"three".to_vec()));
            store.stats()
        };
        let store = CacheStore::open(&tmp.0).expect("reopen");
        assert_eq!(store.get(b"a"), Some(b"three".to_vec()));
        assert_eq!(store.get(b"b"), Some(b"2".to_vec()));
        let after = store.stats();
        let bytes = |s: StoreStats| (s.live_records, s.live_bytes, s.dead_bytes);
        assert_eq!(
            bytes(after),
            bytes(before),
            "live and dead bytes match a reopen"
        );
        assert_eq!(after.live_records, 2);
        assert!(after.dead_bytes > 0);
    }

    #[test]
    fn a_tear_inside_a_group_keeps_the_records_before_it() {
        let tmp = TempDir::new("group-tear");
        let group = [("r1", "one"), ("r2", "two"), ("r3", "six"), ("r4", "ten")];
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put_batch(records(&group)).expect("group");
        }
        // Every record frames a 2-byte key and a 3-byte value: cut the
        // segment inside the third.
        let record = (RECORD_HEADER + 2 + 3) as u64;
        let cut = SEGMENT_MAGIC.len() as u64 + 2 * record + 4;
        let seg = segment_path(&tmp.0, 1);
        let file = OpenOptions::new().write(true).open(&seg).expect("open seg");
        file.set_len(cut).expect("truncate");
        drop(file);

        let store = CacheStore::open(&tmp.0).expect("reopen");
        for (i, (key, value)) in group.iter().enumerate() {
            let expected = (i < 2).then(|| value.as_bytes().to_vec());
            assert_eq!(store.get(key.as_bytes()), expected, "record {}", i + 1);
        }
        assert!(store.stats().corrupt_bytes_dropped > 0);
        // A later put continues the valid prefix.
        store.put(b"r5", b"new").expect("put after recovery");
        drop(store);
        let store = CacheStore::open(&tmp.0).expect("reopen again");
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(b"r5"), Some(b"new".to_vec()));
        assert_eq!(store.stats().corrupt_bytes_dropped, 0);
    }

    #[test]
    fn a_group_larger_than_a_segment_lands_whole_and_the_next_group_rolls() {
        let tmp = TempDir::new("group-roll");
        let options = StoreOptions {
            segment_bytes: 64,
            ..StoreOptions::default()
        };
        let store = CacheStore::open_with(&tmp.0, options).expect("open");
        let value = "x".repeat(32);
        let first = [("a1", &*value), ("a2", &value), ("a3", &value)];
        store.put_batch(records(&first)).expect("first group");
        let first_len = fs::metadata(segment_path(&tmp.0, 1)).expect("meta").len();
        assert_eq!(store.stats().segments, 1, "the group lands whole");
        assert!(first_len > 2 * options.segment_bytes);

        let second = [("b1", &*value), ("b2", &value)];
        store.put_batch(records(&second)).expect("second group");
        assert_eq!(store.stats().segments, 2, "the next group rolls");
        let untouched = fs::metadata(segment_path(&tmp.0, 1)).expect("meta").len();
        assert_eq!(untouched, first_len);
        drop(store);
        let store = CacheStore::open_with(&tmp.0, options).expect("reopen");
        assert_eq!((store.len(), store.stats().segments), (5, 2));
    }

    #[test]
    fn bit_flip_drops_damaged_suffix() {
        let tmp = TempDir::new("bitflip");
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"first", b"good").expect("put");
            store.put(b"second", b"flipped").expect("put");
        }
        let seg = segment_path(&tmp.0, 1);
        let mut bytes = fs::read(&seg).expect("read");
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0xff;
        fs::write(&seg, &bytes).expect("write back");

        let store = CacheStore::open(&tmp.0).expect("reopen");
        assert_eq!(store.get(b"first"), Some(b"good".to_vec()));
        assert_eq!(store.get(b"second"), None);
        assert!(store.stats().corrupt_bytes_dropped > 0);
    }

    #[test]
    fn unknown_format_version_is_cold_start() {
        let tmp = TempDir::new("version");
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"k", b"v").expect("put");
        }
        let seg = segment_path(&tmp.0, 1);
        let mut bytes = fs::read(&seg).expect("read");
        bytes[7] = b'9'; // future format version
        fs::write(&seg, &bytes).expect("write back");
        let store = CacheStore::open(&tmp.0).expect("reopen");
        assert_eq!(store.get(b"k"), None, "unknown format must not be parsed");
    }

    #[test]
    fn segments_roll_and_compaction_bounds_disk() {
        let tmp = TempDir::new("compact");
        let options = StoreOptions {
            segment_bytes: 512,
            compact_min_bytes: 1024,
        };
        let store = CacheStore::open_with(&tmp.0, options).expect("open");
        let value = [7u8; 64];
        // Overwrite a small key set many times: dead bytes pile up and must
        // eventually be compacted away.
        for round in 0..64u32 {
            for k in 0..4u32 {
                let key = format!("key-{k}");
                store
                    .put(key.as_bytes(), &value[..32 + ((round as usize) % 32)])
                    .expect("put");
            }
        }
        let stats = store.stats();
        assert!(stats.compactions > 0, "expected at least one compaction");
        assert_eq!(stats.live_records, 4);
        assert!(
            stats.dead_bytes < 2 * 1024,
            "dead bytes unbounded: {stats:?}"
        );
        let on_disk: u64 = fs::read_dir(&tmp.0)
            .expect("read dir")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum();
        assert!(on_disk < 8 * 1024, "disk usage unbounded: {on_disk}");
        // Contents survive compaction and reopen.
        drop(store);
        let store = CacheStore::open_with(&tmp.0, options).expect("reopen");
        assert_eq!(store.len(), 4);
        for k in 0..4u32 {
            assert!(store.get(format!("key-{k}").as_bytes()).is_some());
        }
    }

    #[test]
    fn persist_config_names_one_directory_per_tier() {
        // Programmatic construction only — env vars are process-global and
        // other tests run in parallel, so from_env is covered by the
        // dedicated integration suite instead.
        let config = PersistConfig::new("/tmp/somewhere");
        assert_eq!(
            config.perception_dir(),
            PathBuf::from("/tmp/somewhere/perception")
        );
        assert_eq!(config.plans_dir(), PathBuf::from("/tmp/somewhere/plans"));
    }
}
