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

pub mod tiered;

pub use tiered::{
    capacity_from_env, keyed_hash, push_part, take_part, CacheKey, Hit, PrehashedMap, Put, Removed,
    Tier, TieredCache, TieredStats,
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

fn encode_record(key: &[u8], value: &[u8], tombstone: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
    out.extend_from_slice(&record_checksum(key, value, tombstone).to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.push(u8::from(tombstone));
    out.extend_from_slice(key);
    out.extend_from_slice(value);
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

    /// Insert or overwrite `key`, appending the record to the active segment.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        let record = encode_record(key, value, false);
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        self.append(&mut inner, &record)?;
        let entry = IndexEntry {
            value: value.into(),
            record_bytes: record.len() as u64,
        };
        inner.live_bytes += record.len() as u64;
        if let Some(old) = inner.index.insert(key.into(), entry) {
            inner.live_bytes -= old.record_bytes;
            inner.dead_bytes += old.record_bytes;
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
        }
    }

    /// Append a framed record, rolling the active segment first if it is
    /// over the size bound.
    fn append(&self, inner: &mut Inner, record: &[u8]) -> StoreResult<()> {
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
        let path = segment_path(&self.dir, *inner.segments.last().expect("active segment"));
        (&inner.active)
            .write_all(record)
            .map_err(|e| StoreError::io(&path, e))?;
        inner.active_len += record.len() as u64;
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

/// Configuration for the persistent cache tier, read from `CAESURA_CACHE_DIR`
/// (both tiers on) or built programmatically.
///
/// With `CAESURA_CACHE_DIR` unset the whole disk tier is off and sessions
/// behave byte-identically to a build without this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory for the on-disk tier. The perception and plan stores
    /// live in `perception/` and `plans/` subdirectories.
    pub dir: PathBuf,
    /// Whether the perception answer cache gets a disk tier.
    pub perception: bool,
    /// Whether the validated plan cache gets a disk tier.
    pub plans: bool,
}

impl PersistConfig {
    /// A config persisting both tiers under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            perception: true,
            plans: true,
        }
    }

    /// Both tiers under the directory `CAESURA_CACHE_DIR` names. Returns
    /// `None` — disk tier fully off — when the variable is unset or empty.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("CAESURA_CACHE_DIR").ok()?;
        let dir = dir.trim();
        (!dir.is_empty()).then(|| PersistConfig::new(dir))
    }

    /// Whether at least one tier is enabled.
    pub fn is_enabled(&self) -> bool {
        self.perception || self.plans
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
        assert!(config.is_enabled());
        assert!(config.perception && config.plans);
        assert_eq!(
            config.perception_dir(),
            PathBuf::from("/tmp/somewhere/perception")
        );
        assert_eq!(config.plans_dir(), PathBuf::from("/tmp/somewhere/plans"));
        let off = PersistConfig {
            dir: PathBuf::from("/tmp/x"),
            perception: false,
            plans: false,
        };
        assert!(!off.is_enabled());
    }
}
