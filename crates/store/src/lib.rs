//! Durable, versioned on-disk cache tier.
//!
//! This crate implements [`CacheStore`], a crash-safe key-value store that
//! sits *below* the in-memory cache shards of the perception cache
//! (`caesura-modal`) and the validated plan cache (`caesura-llm`). The design
//! is Bitcask's append-only segment log:
//!
//! - Writes append framed records (`checksum | key_len | val_len |
//!   tombstone | key | value`) to the active segment file; deletes append a
//!   tombstone record. Nothing is ever updated in place.
//! - Records are appended in **groups** ([`CacheStore::put_batch`];
//!   [`CacheStore::put`] is a group of one): a group's records are framed
//!   into one buffer and their keys hashed before the store lock is taken,
//!   then the group costs one lock and one `write_all`. The perception
//!   cache files one group per dispatch batch.
//! - **Segment mirrors.** Each segment's bytes stay resident in one buffer:
//!   the valid prefix read on [`CacheStore::open`] and, for the active
//!   segment, every group appended since. A record costs its framed bytes in
//!   a mirror and no allocation of its own.
//! - **Index.** Each live key maps to where its newest frame starts,
//!   `(segment, offset)` into the mirrors, filed under the key's
//!   [`keyed_hash`]: hashed once, when the record is framed or found on open,
//!   and never again as the index grows (it is pre-sized on open). Keys that
//!   share a 64-bit hash share a slot, and the key bytes in the mirror decide
//!   which location is whose. The hasher is keyed because store keys carry
//!   lake text, which comes from outside the program.
//!   [`CacheStore::get_with`] hands the caller the value where it lies in the
//!   mirror; the files are read only on open.
//! - On open, each segment is replayed up to its *valid prefix*: the scan
//!   stops at the first truncated or checksum-corrupt record, so a crash (or
//!   bit rot) costs at most the damaged tail — a cold start for those keys,
//!   never a panic and never a wrong answer. The active segment is truncated
//!   back to its valid prefix before new appends.
//! - When the dead-byte count (overwritten or tombstoned records) exceeds
//!   both a floor and the live-byte count, the store compacts: the live
//!   frames are copied as they are into fresh segments, synced, and the old
//!   segments deleted. Disk and memory are therefore both `O(live bytes)`:
//!   [`StoreStats::resident_bytes`] is the live and dead bytes plus an 8-byte
//!   header per segment, and the dead bytes stay under the larger of the live
//!   bytes and [`StoreOptions::compact_min_bytes`], overshooting by at most
//!   the group that crossed the bound.
//!
//! Every segment begins with a magic header that encodes the on-disk format
//! version, now `2`: the record checksum reads 8 bytes at a time (format `1`
//! folded them in one at a time with FNV-1a). Segments written by another
//! format are skipped wholesale — a directory written by format `1` opens
//! cold, never misparsed — and stay on disk untouched until the next
//! compaction deletes them; when the newest segment is one of them, new
//! appends go to a fresh segment after it. Callers additionally namespace
//! their keys with backend identity and schema fingerprints — see the cache
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
//!   filesystem allows; the mirror only ever holds what was written. The
//!   caller gets the error: [`TieredCache`] counts every record of the group
//!   in [`TieredStats::disk_errors`] and keeps serving the entries from
//!   memory.
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

use std::collections::hash_map::Entry;
use std::fmt;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every segment file. The trailing `2` is the on-disk
/// format version; bump it when the record framing changes so old segments
/// are skipped (cold start) instead of misparsed.
const SEGMENT_MAGIC: &[u8; 8] = b"CSTORE\x002";

/// Fixed bytes per record before the key and value payloads:
/// `u32` checksum + `u32` key_len + `u32` val_len + `u8` tombstone flag.
const RECORD_HEADER: usize = 13;

/// Upper bound accepted for a single key or value length. Corruption in a
/// length field must not trigger a multi-gigabyte allocation; anything this
/// large is treated as a damaged record, and refused by a put.
const MAX_PART_LEN: u32 = 256 * 1024 * 1024;

/// Longest a segment may grow, so that every frame offset fits the `u32` of
/// a [`Loc`].
const MAX_SEGMENT_LEN: usize = u32::MAX as usize;

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

    /// A group the format cannot hold: a key or value over
    /// [`MAX_PART_LEN`], or a group over [`MAX_SEGMENT_LEN`].
    fn too_large(dir: &Path) -> Self {
        let message = "a cache store record or group is too large for the segment format";
        StoreError::io(dir, io::Error::new(io::ErrorKind::InvalidInput, message))
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
    /// Bytes held in memory by the segment mirrors: the live and dead bytes
    /// plus each readable segment's 8-byte header.
    pub resident_bytes: u64,
    /// Bytes dropped during the last open because of truncated or corrupt
    /// record tails (valid-prefix recovery).
    pub corrupt_bytes_dropped: u64,
    /// Number of compactions performed since open.
    pub compactions: u64,
    /// Segment writes that carried records since open: one per group
    /// appended by [`CacheStore::put_batch`] (or [`CacheStore::put`]), one
    /// per tombstone, and one per segment a compaction writes.
    pub appends: u64,
}

/// One segment file and its mirror.
#[derive(Debug)]
struct Segment {
    id: u64,
    /// The file's valid prefix, header included, every frame of it whole and
    /// checked; empty for a segment of another format, which holds no
    /// record this store can read.
    bytes: Vec<u8>,
}

impl Segment {
    /// A new segment holding only its header.
    fn new(id: u64) -> Segment {
        Segment {
            id,
            bytes: SEGMENT_MAGIC.to_vec(),
        }
    }
}

/// Where a record's frame starts: a position in the store's segment list
/// and a byte offset into that segment's mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    segment: u32,
    offset: u32,
}

impl Loc {
    fn new(segment: usize, offset: usize) -> Loc {
        Loc {
            segment: u32::try_from(segment).expect("a store lists fewer than 2^32 segments"),
            offset: u32::try_from(offset).expect("a segment stays within MAX_SEGMENT_LEN"),
        }
    }
}

/// One framed record, borrowed from a segment's bytes.
struct Frame<'a> {
    /// The whole frame, checksum field first.
    bytes: &'a [u8],
    key_len: usize,
    tombstone: bool,
}

impl<'a> Frame<'a> {
    /// The frame that starts at `at` of `bytes`, if its header is sane and
    /// the frame lies wholly inside `bytes`. The checksum is not checked.
    fn parse(bytes: &'a [u8], at: usize) -> Option<Frame<'a>> {
        let header = bytes.get(at..at.checked_add(RECORD_HEADER)?)?;
        let part_len = |from: usize| {
            let len = u32::from_le_bytes(header[from..from + 4].try_into().expect("4 bytes"));
            (len <= MAX_PART_LEN).then_some(len as usize)
        };
        let (key_len, value_len) = (part_len(4)?, part_len(8)?);
        let tombstone = match header[12] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let end = (at + RECORD_HEADER)
            .checked_add(key_len)?
            .checked_add(value_len)?;
        Some(Frame {
            bytes: bytes.get(at..end)?,
            key_len,
            tombstone,
        })
    }

    /// The frame at `loc`, which was checked when it entered its mirror.
    fn at(segments: &'a [Segment], loc: Loc) -> Frame<'a> {
        let bytes = &segments[loc.segment as usize].bytes;
        Frame::parse(bytes, loc.offset as usize).expect("an indexed location holds a whole frame")
    }

    fn key(&self) -> &'a [u8] {
        &self.bytes[RECORD_HEADER..RECORD_HEADER + self.key_len]
    }

    fn value(&self) -> &'a [u8] {
        &self.bytes[RECORD_HEADER + self.key_len..]
    }

    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the stored checksum matches the frame's bytes.
    fn is_intact(&self) -> bool {
        let stored = u32::from_le_bytes(self.bytes[..4].try_into().expect("4 bytes"));
        record_checksum(&self.bytes[4..]) == stored
    }
}

/// The checksum of a frame: 32 bits over its bytes after the checksum field
/// (lengths, tombstone flag, key, value), read 8 bytes at a time. Each
/// little-endian word is folded in by xor, multiply and rotate; the length
/// seeds the fold (so zero padding of the last word is unambiguous) and
/// MurmurHash3's 64-bit finaliser spreads every input bit over the 32 bits
/// kept. Unkeyed: it is part of the on-disk format.
fn record_checksum(bytes: &[u8]) -> u32 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |hash: u64, word: u64| (hash ^ word).wrapping_mul(MUL).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut hash = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
    for word in &mut words {
        hash = fold(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    hash = fold(hash, u64::from_le_bytes(last));
    hash = (hash ^ (hash >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash = (hash ^ (hash >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    (hash ^ (hash >> 32)) as u32
}

/// Frame one record onto the end of `out`. The caller has checked both
/// parts against [`MAX_PART_LEN`].
fn push_record(out: &mut Vec<u8>, key: &[u8], value: &[u8], tombstone: bool) {
    let part_len = |part: &[u8]| u32::try_from(part.len()).expect("a part under MAX_PART_LEN");
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&part_len(key).to_le_bytes());
    out.extend_from_slice(&part_len(value).to_le_bytes());
    out.push(u8::from(tombstone));
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = record_checksum(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&checksum.to_le_bytes());
}

/// How far `bytes`, one segment file, holds whole frames whose checksums
/// match, and how many: the scan stops at the first truncated or corrupt
/// record. A segment whose header is missing or names another format has no
/// valid prefix.
fn valid_prefix(bytes: &[u8]) -> (usize, usize) {
    if !bytes.starts_with(SEGMENT_MAGIC) {
        return (0, 0);
    }
    let (mut end, mut records) = (SEGMENT_MAGIC.len(), 0);
    while let Some(frame) = Frame::parse(bytes, end) {
        if !frame.is_intact() || end + frame.bytes.len() > MAX_SEGMENT_LEN {
            break;
        }
        end += frame.bytes.len();
        records += 1;
    }
    (end, records)
}

/// The live locations filed under one key hash: one, or several when keys
/// share a 64-bit hash.
#[derive(Debug)]
enum Slot {
    One(Loc),
    Many(Box<[Loc]>),
}

impl Slot {
    fn locs(&self) -> &[Loc] {
        match self {
            Slot::One(loc) => std::slice::from_ref(loc),
            Slot::Many(locs) => locs,
        }
    }

    fn locs_mut(&mut self) -> &mut [Loc] {
        match self {
            Slot::One(loc) => std::slice::from_mut(loc),
            Slot::Many(locs) => locs,
        }
    }
}

/// Every live key's location, filed under the key's [`keyed_hash`]. The
/// index is handed each hash and never computes one, so it never hashes a
/// key again as it grows; the key bytes in the mirrors decide which location
/// of a slot is a key's.
#[derive(Debug, Default)]
struct Index {
    slots: PrehashedMap<Slot>,
    /// Live keys; more than `slots.len()` when keys share a hash.
    len: usize,
}

impl Index {
    fn with_capacity(keys: usize) -> Index {
        Index {
            slots: PrehashedMap::with_capacity_and_hasher(keys, Default::default()),
            len: 0,
        }
    }

    /// `key`'s live frame.
    fn get<'s>(&self, hash: u64, key: &[u8], segments: &'s [Segment]) -> Option<Frame<'s>> {
        let slot = self.slots.get(&hash)?;
        let mut frames = slot.locs().iter().map(|&loc| Frame::at(segments, loc));
        frames.find(|frame| frame.key() == key)
    }

    /// File the frame at `loc`, already in its mirror, under `hash`. Returns
    /// the location it replaced when its key was live.
    fn insert(&mut self, hash: u64, loc: Loc, segments: &[Segment]) -> Option<Loc> {
        let slot = match self.slots.entry(hash) {
            Entry::Vacant(vacant) => {
                vacant.insert(Slot::One(loc));
                self.len += 1;
                return None;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        let key = Frame::at(segments, loc).key();
        let same_key = |old: &&mut Loc| Frame::at(segments, **old).key() == key;
        if let Some(old) = slot.locs_mut().iter_mut().find(same_key) {
            return Some(std::mem::replace(old, loc));
        }
        let mut locs = slot.locs().to_vec();
        locs.push(loc);
        *slot = Slot::Many(locs.into_boxed_slice());
        self.len += 1;
        None
    }

    /// Unfile `key`, returning the location of its live frame.
    fn remove(&mut self, hash: u64, key: &[u8], segments: &[Segment]) -> Option<Loc> {
        let slot = self.slots.get_mut(&hash)?;
        let is_key = |loc: &Loc| Frame::at(segments, *loc).key() == key;
        let at = slot.locs().iter().position(is_key)?;
        let old = slot.locs()[at];
        match slot {
            Slot::One(_) => drop(self.slots.remove(&hash)),
            Slot::Many(locs) => {
                let mut rest = locs.to_vec();
                rest.remove(at);
                *slot = match *rest {
                    [loc] => Slot::One(loc),
                    _ => Slot::Many(rest.into_boxed_slice()),
                };
            }
        }
        self.len -= 1;
        Some(old)
    }

    /// Every live `(hash, location)`, in no particular order.
    fn entries(&self) -> impl Iterator<Item = (u64, Loc)> + '_ {
        self.slots
            .iter()
            .flat_map(|(&hash, slot)| slot.locs().iter().map(move |&loc| (hash, loc)))
    }
}

struct Inner {
    /// Every segment file on disk, ascending by id. The last is the active
    /// one, and its mirror is the file's every byte.
    segments: Vec<Segment>,
    index: Index,
    active: File,
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

/// Create the file of `segment`, which must not exist yet, holding the
/// segment's bytes, and return it open for appends.
fn create_segment(dir: &Path, segment: &Segment) -> StoreResult<File> {
    let path = segment_path(dir, segment.id);
    let file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)
        .map_err(|e| StoreError::io(&path, e))?;
    (&file)
        .write_all(&segment.bytes)
        .map_err(|e| StoreError::io(&path, e))?;
    Ok(file)
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

        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))? {
            let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        // Read every segment and keep its valid prefix as its mirror.
        let mut segments = Vec::with_capacity(ids.len() + 1);
        let mut frames = 0;
        let mut corrupt_bytes_dropped = 0;
        let mut last_file_len = 0;
        for id in ids {
            let path = segment_path(&dir, id);
            let mut bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
            let (valid_len, count) = valid_prefix(&bytes);
            last_file_len = bytes.len();
            corrupt_bytes_dropped += (bytes.len() - valid_len) as u64;
            frames += count;
            bytes.truncate(valid_len);
            segments.push(Segment { id, bytes });
        }

        let active = match segments.last_mut() {
            // The newest segment stays active when it is ours, or torn
            // before its header was whole (it then holds no record).
            Some(last) if !last.bytes.is_empty() || last_file_len < SEGMENT_MAGIC.len() => {
                let path = segment_path(&dir, last.id);
                let io = |e| StoreError::io(&path, e);
                let file = OpenOptions::new().append(true).open(&path).map_err(io)?;
                // Cut a damaged tail so new appends continue the valid prefix.
                if last_file_len > last.bytes.len() {
                    file.set_len(last.bytes.len() as u64).map_err(io)?;
                }
                if last.bytes.is_empty() {
                    *last = Segment::new(last.id);
                    (&file).write_all(&last.bytes).map_err(io)?;
                }
                file
            }
            // No segment yet, or the newest is another format's: it stays
            // untouched, and appends go to a fresh segment after it.
            _ => {
                let segment = Segment::new(segments.last().map_or(1, |last| last.id + 1));
                let file = create_segment(&dir, &segment)?;
                segments.push(segment);
                file
            }
        };

        // Index the mirrors, hashing each record's key once.
        let mut index = Index::with_capacity(frames);
        let (mut live_bytes, mut frame_bytes) = (0u64, 0u64);
        for (at, segment) in segments.iter().enumerate() {
            let mut offset = SEGMENT_MAGIC.len();
            while offset < segment.bytes.len() {
                let frame = Frame::at(&segments, Loc::new(at, offset));
                let hash = keyed_hash(frame.key());
                let replaced = if frame.tombstone {
                    index.remove(hash, frame.key(), &segments)
                } else {
                    live_bytes += frame.len();
                    index.insert(hash, Loc::new(at, offset), &segments)
                };
                if let Some(old) = replaced {
                    live_bytes -= Frame::at(&segments, old).len();
                }
                frame_bytes += frame.len();
                offset += frame.bytes.len();
            }
        }

        Ok(CacheStore {
            dir,
            options,
            inner: Mutex::new(Inner {
                segments,
                index,
                active,
                live_bytes,
                // Everything ever written minus what is still live is dead
                // weight: overwritten records plus the tombstones themselves.
                dead_bytes: frame_bytes - live_bytes,
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
        self.get_with(key, <[u8]>::to_vec)
    }

    /// Look up `key` and hand its value to `f` where it lies in the segment's
    /// mirror: a hit copies nothing that `f` does not. `f` runs under the
    /// store lock, so it should be short and must not call into this store.
    pub fn get_with<T>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> T) -> Option<T> {
        let hash = keyed_hash(key);
        let inner = self.inner.lock().expect("store mutex poisoned");
        let frame = inner.index.get(hash, key, &inner.segments)?;
        Some(f(frame.value()))
    }

    /// Insert or overwrite `key`: a group of one record (see
    /// [`CacheStore::put_batch`]).
    pub fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        self.put_batch(&[(key, value)])
    }

    /// Insert or overwrite every `(key, value)` of `records`, in order (a key
    /// given twice keeps its last value), as one group appended to the active
    /// segment: the records are framed into one buffer and their keys hashed
    /// before the lock is taken, then the group costs one lock and one write.
    /// The crate docs state what a group append promises; on an error no
    /// record of the group is indexed. A key or value over 256 MiB is refused
    /// before anything is written.
    pub fn put_batch<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, records: &[(K, V)]) -> StoreResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut framed = 0;
        for (key, value) in records {
            let longest = key.as_ref().len().max(value.as_ref().len());
            if longest > MAX_PART_LEN as usize {
                return Err(StoreError::too_large(&self.dir));
            }
            framed += RECORD_HEADER + key.as_ref().len() + value.as_ref().len();
        }
        let mut group = Vec::with_capacity(framed);
        let mut entries = Vec::with_capacity(records.len());
        for (key, value) in records {
            entries.push((keyed_hash(key.as_ref()), group.len()));
            push_record(&mut group, key.as_ref(), value.as_ref(), false);
        }

        let mut inner = self.inner.lock().expect("store mutex poisoned");
        let start = self.append(&mut inner, &group)?;
        let inner = &mut *inner;
        for (hash, offset) in entries {
            let loc = Loc::new(start.segment as usize, start.offset as usize + offset);
            inner.live_bytes += Frame::at(&inner.segments, loc).len();
            if let Some(old) = inner.index.insert(hash, loc, &inner.segments) {
                let old_len = Frame::at(&inner.segments, old).len();
                inner.live_bytes -= old_len;
                inner.dead_bytes += old_len;
            }
        }
        self.maybe_compact(inner)
    }

    /// Remove `key`, appending a tombstone record. Returns whether the key
    /// was present; a key whose tombstone fails to append stays live.
    pub fn remove(&self, key: &[u8]) -> StoreResult<bool> {
        let hash = keyed_hash(key);
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        let Some(old_len) = inner
            .index
            .get(hash, key, &inner.segments)
            .map(|old| old.len())
        else {
            return Ok(false);
        };
        let mut tombstone = Vec::with_capacity(RECORD_HEADER + key.len());
        push_record(&mut tombstone, key, &[], true);
        self.append(&mut inner, &tombstone)?;
        let inner = &mut *inner;
        inner.index.remove(hash, key, &inner.segments);
        inner.live_bytes -= old_len;
        inner.dead_bytes += old_len + tombstone.len() as u64;
        self.maybe_compact(inner)?;
        Ok(true)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("store mutex poisoned");
        inner.index.len
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters (segment count, live/dead/resident bytes, recovery
    /// drops).
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store mutex poisoned");
        let mirror = |segment: &Segment| segment.bytes.len() as u64;
        StoreStats {
            segments: inner.segments.len(),
            live_records: inner.index.len,
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes,
            resident_bytes: inner.segments.iter().map(mirror).sum(),
            corrupt_bytes_dropped: inner.corrupt_bytes_dropped,
            compactions: inner.compactions,
            appends: inner.appends,
        }
    }

    /// Append framed records with one write and mirror them, rolling the
    /// active segment first if it is over the size bound (or the records
    /// would take it past [`MAX_SEGMENT_LEN`]). Returns where the first
    /// record starts. A failed write is cut back off the segment (best
    /// effort), so later appends continue the valid prefix.
    fn append(&self, inner: &mut Inner, records: &[u8]) -> StoreResult<Loc> {
        if records.len() > MAX_SEGMENT_LEN - SEGMENT_MAGIC.len() {
            return Err(StoreError::too_large(&self.dir));
        }
        let active = inner
            .segments
            .last()
            .expect("an open store has an active segment");
        let len = active.bytes.len();
        if len as u64 >= self.options.segment_bytes || len + records.len() > MAX_SEGMENT_LEN {
            let segment = Segment::new(active.id + 1);
            inner.active = create_segment(&self.dir, &segment)?;
            inner.segments.push(segment);
        }
        let active = inner.segments.last_mut().expect("an active segment");
        if let Err(e) = (&inner.active).write_all(records) {
            let _ = inner.active.set_len(active.bytes.len() as u64);
            return Err(StoreError::io(&segment_path(&self.dir, active.id), e));
        }
        let offset = active.bytes.len();
        active.bytes.extend_from_slice(records);
        inner.appends += 1;
        Ok(Loc::new(inner.segments.len() - 1, offset))
    }

    /// Rewrite the live frames into fresh segments and delete the old ones
    /// once dead bytes dominate. Crash-safe ordering: the fresh segments are
    /// fully written and synced *before* any old segment is removed, and
    /// segment ids only grow, so a crash mid-compaction leaves at worst
    /// duplicate records that replay to the same index. The store's state
    /// changes only once the fresh segments are durable.
    fn maybe_compact(&self, inner: &mut Inner) -> StoreResult<()> {
        if inner.dead_bytes < self.options.compact_min_bytes || inner.dead_bytes < inner.live_bytes
        {
            return Ok(());
        }
        // Frames do not depend on where they lie, so each is copied as is.
        let first_id = inner.segments.last().map_or(1, |last| last.id + 1);
        let mut fresh = vec![Segment::new(first_id)];
        let mut moved = Vec::with_capacity(inner.index.len);
        for (hash, loc) in inner.index.entries() {
            let frame = Frame::at(&inner.segments, loc).bytes;
            let last = fresh.last().expect("a fresh segment");
            let len = last.bytes.len();
            if len as u64 >= self.options.segment_bytes || len + frame.len() > MAX_SEGMENT_LEN {
                fresh.push(Segment::new(last.id + 1));
            }
            let at = fresh.len() - 1;
            moved.push((hash, at, fresh[at].bytes.len()));
            fresh[at].bytes.extend_from_slice(frame);
        }
        let active = match self.write_synced(&fresh) {
            Ok(active) => active,
            Err(e) => {
                for segment in &fresh {
                    let _ = fs::remove_file(segment_path(&self.dir, segment.id));
                }
                return Err(e);
            }
        };

        // Oldest first, so a failure leaves a suffix of the old log, which
        // replays beneath the fresh segments to this same index. What is left
        // stays listed, without a mirror, for the next compaction to delete.
        let mut failure = None;
        let mut segments = Vec::with_capacity(fresh.len());
        for old in std::mem::take(&mut inner.segments) {
            let path = segment_path(&self.dir, old.id);
            if failure.is_none() {
                match fs::remove_file(&path) {
                    Ok(()) => continue,
                    Err(e) => failure = Some(StoreError::io(&path, e)),
                }
            }
            segments.push(Segment {
                id: old.id,
                bytes: Vec::new(),
            });
        }
        let base = segments.len();
        inner.appends += fresh.len() as u64;
        segments.extend(fresh);
        let mut index = Index::with_capacity(moved.len());
        for (hash, at, offset) in moved {
            index.insert(hash, Loc::new(base + at, offset), &segments);
        }
        inner.segments = segments;
        inner.index = index;
        inner.active = active;
        inner.dead_bytes = 0;
        inner.compactions += 1;
        failure.map_or(Ok(()), Err)
    }

    /// Write each of `fresh` to a new file and sync it, then sync the
    /// directory; returns the last file, open for appends.
    fn write_synced(&self, fresh: &[Segment]) -> StoreResult<File> {
        let mut last = None;
        for segment in fresh {
            let file = create_segment(&self.dir, segment)?;
            file.sync_all()
                .map_err(|e| StoreError::io(&segment_path(&self.dir, segment.id), e))?;
            last = Some(file);
        }
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::io(&self.dir, e))?;
        Ok(last.expect("a compaction writes at least one segment"))
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
    use std::collections::BTreeMap;

    /// SplitMix64: a seeded generator is all the model suites need.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

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
    fn a_group_round_trips_through_reopen() {
        let tmp = TempDir::new("group");
        let group = [("k1", "v1"), ("k2", "v2"), ("k3", "v3")];
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put_batch(&group).expect("group");
            store.put_batch::<&str, &str>(&[]).expect("an empty group");
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
            store.put_batch(&group).expect("group");
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
            store.put_batch(&group).expect("group");
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
        store.put_batch(&first).expect("first group");
        let first_len = fs::metadata(segment_path(&tmp.0, 1)).expect("meta").len();
        assert_eq!(store.stats().segments, 1, "the group lands whole");
        assert!(first_len > 2 * options.segment_bytes);

        let second = [("b1", &*value), ("b2", &value)];
        store.put_batch(&second).expect("second group");
        assert_eq!(store.stats().segments, 2, "the next group rolls");
        let untouched = fs::metadata(segment_path(&tmp.0, 1)).expect("meta").len();
        assert_eq!(untouched, first_len);
        drop(store);
        let store = CacheStore::open_with(&tmp.0, options).expect("reopen");
        assert_eq!((store.len(), store.stats().segments), (5, 2));
    }

    /// Every single-bit flip anywhere in the middle record of three is
    /// caught: the reopen keeps the first record, drops the damaged suffix,
    /// and never answers a key with a value it was not given.
    #[test]
    fn every_bit_flip_in_a_middle_record_drops_the_suffix_and_nothing_else() {
        let tmp = TempDir::new("bitflip");
        let records = [("first", "good"), ("second", "flipped"), ("third", "after")];
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            for (key, value) in records {
                store.put(key.as_bytes(), value.as_bytes()).expect("put");
            }
        }
        let seg = segment_path(&tmp.0, 1);
        let clean = fs::read(&seg).expect("read");
        let frame_len = |(key, value): (&str, &str)| RECORD_HEADER + key.len() + value.len();
        let middle_start = SEGMENT_MAGIC.len() + frame_len(records[0]);
        let middle = middle_start..middle_start + frame_len(records[1]);
        for bit in middle.start * 8..middle.end * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&seg, &bytes).expect("write back");
            let store = CacheStore::open(&tmp.0).expect("reopen");
            assert_eq!(store.get(b"first"), Some(b"good".to_vec()), "bit {bit}");
            for (key, _) in &records[1..] {
                assert_eq!(store.get(key.as_bytes()), None, "bit {bit}, key {key}");
            }
            assert_eq!(store.len(), 1, "bit {bit}");
            assert!(store.stats().corrupt_bytes_dropped > 0, "bit {bit}");
            drop(store);
            fs::write(&seg, &clean).expect("restore");
        }
    }

    /// The bytes of one framed record under format 2, spelled out: a change
    /// to the framing or the checksum that does not bump the format version
    /// fails here.
    #[test]
    fn the_frame_format_is_pinned() {
        let mut segment = SEGMENT_MAGIC.to_vec();
        push_record(&mut segment, b"key", b"value", false);
        push_record(&mut segment, b"key", b"", true);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            b'C', b'S', b'T', b'O', b'R', b'E', 0, b'2',
            // checksum, key_len 3, val_len 5, live, "key", "value"
            0x76, 0x17, 0x3d, 0xed,
            3, 0, 0, 0, 5, 0, 0, 0, 0,
            b'k', b'e', b'y', b'v', b'a', b'l', b'u', b'e',
            // checksum, key_len 3, val_len 0, tombstone, "key"
            0x89, 0x3e, 0xe5, 0x02,
            3, 0, 0, 0, 0, 0, 0, 0, 1,
            b'k', b'e', b'y',
        ];
        assert_eq!(segment, expected);
        assert_eq!(valid_prefix(&segment), (segment.len(), 2));
    }

    /// A newest segment of another format version is neither parsed nor
    /// appended to: it stays byte for byte as it was, and the puts made after
    /// opening it go to a fresh segment, so the next open still has them.
    #[test]
    fn puts_after_a_foreign_newest_segment_survive_the_next_open() {
        let tmp = TempDir::new("version");
        {
            let store = CacheStore::open(&tmp.0).expect("open");
            store.put(b"old", b"v").expect("put");
        }
        let seg = segment_path(&tmp.0, 1);
        let mut foreign = fs::read(&seg).expect("read");
        foreign[7] = b'9'; // a future format version
        fs::write(&seg, &foreign).expect("write back");
        {
            let store = CacheStore::open(&tmp.0).expect("reopen");
            assert_eq!(store.get(b"old"), None, "unknown format must not be parsed");
            store.put(b"new", b"kept").expect("put");
            assert_eq!(store.get(b"new"), Some(b"kept".to_vec()));
        }
        let store = CacheStore::open(&tmp.0).expect("reopen again");
        assert_eq!(store.get(b"new"), Some(b"kept".to_vec()));
        assert_eq!((store.len(), store.stats().segments), (1, 2));
        assert_eq!(fs::read(&seg).expect("read"), foreign, "left untouched");
    }

    /// FNV-1a over the framed bytes, folded to 32 bits: format 1's checksum.
    fn format_1_checksum(bytes: &[u8]) -> u32 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
        (hash ^ (hash >> 32)) as u32
    }

    /// A directory written by format 1 opens cold, keeps the puts made after
    /// it, and loses its old segment to the first compaction.
    #[test]
    fn a_format_1_store_opens_cold_keeps_new_puts_and_compacts_its_segment_away() {
        let tmp = TempDir::new("format-1");
        let mut record = Vec::new();
        record.extend_from_slice(&3u32.to_le_bytes());
        record.extend_from_slice(&2u32.to_le_bytes());
        record.push(0);
        record.extend_from_slice(b"oldv1");
        let mut segment = b"CSTORE\x001".to_vec();
        segment.extend_from_slice(&format_1_checksum(&record).to_le_bytes());
        segment.extend_from_slice(&record);
        let seg = segment_path(&tmp.0, 1);
        fs::write(&seg, &segment).expect("write a format-1 segment");

        let options = StoreOptions {
            compact_min_bytes: 1,
            ..StoreOptions::default()
        };
        {
            let store = CacheStore::open_with(&tmp.0, options).expect("open");
            assert_eq!((store.get(b"old"), store.len()), (None, 0));
            store.put(b"new", b"kept").expect("put");
        }
        let store = CacheStore::open_with(&tmp.0, options).expect("reopen");
        assert_eq!(store.get(b"new"), Some(b"kept".to_vec()));
        assert_eq!(store.get(b"old"), None);
        assert_eq!(fs::read(&seg).expect("read"), segment, "left untouched");
        // An overwrite makes the dead bytes equal the live ones: compaction.
        store.put(b"new", b"kept").expect("overwrite");
        assert_eq!(store.stats().compactions, 1);
        assert!(!seg.exists(), "compaction deletes the format-1 segment");
        drop(store);
        let store = CacheStore::open_with(&tmp.0, options).expect("reopen");
        assert_eq!(
            (store.get(b"new"), store.len()),
            (Some(b"kept".to_vec()), 1)
        );
    }

    /// Three keys filed under one forced hash share a slot: each answers
    /// with its own location through an overwrite and a removal of the
    /// middle one, and no key ever answers for another.
    #[test]
    fn keys_sharing_a_hash_never_answer_for_each_other() {
        let mut segment = Segment::new(1);
        let mut locs = Vec::new();
        for (key, value) in [("a", "1"), ("b", "2"), ("c", "3"), ("b", "4")] {
            locs.push(Loc::new(0, segment.bytes.len()));
            push_record(&mut segment.bytes, key.as_bytes(), value.as_bytes(), false);
        }
        let segments = [segment];
        const HASH: u64 = 7;
        let mut index = Index::default();
        for &loc in &locs[..3] {
            assert_eq!(index.insert(HASH, loc, &segments), None);
        }
        assert_eq!((index.len, index.slots.len()), (3, 1));
        let answers = |index: &Index| {
            let get = |key: &str| {
                index
                    .get(HASH, key.as_bytes(), &segments)
                    .map(|f| f.value())
            };
            [get("a"), get("b"), get("c"), get("d")]
        };
        assert_eq!(
            answers(&index),
            [Some(&b"1"[..]), Some(b"2"), Some(b"3"), None]
        );

        assert_eq!(index.insert(HASH, locs[3], &segments), Some(locs[1]));
        assert_eq!(index.len, 3);
        assert_eq!(
            answers(&index),
            [Some(&b"1"[..]), Some(b"4"), Some(b"3"), None]
        );

        assert_eq!(index.remove(HASH, b"b", &segments), Some(locs[3]));
        assert_eq!(index.remove(HASH, b"b", &segments), None);
        assert_eq!(index.remove(HASH, b"d", &segments), None);
        assert_eq!(answers(&index), [Some(&b"1"[..]), None, Some(b"3"), None]);
        assert_eq!(index.remove(HASH, b"a", &segments), Some(locs[0]));
        assert!(matches!(index.slots.get(&HASH), Some(Slot::One(loc)) if *loc == locs[2]));
        assert_eq!(index.remove(HASH, b"c", &segments), Some(locs[2]));
        assert_eq!((index.len, index.slots.len()), (0, 0));
    }

    /// The bytes of one framed record.
    fn frame_bytes(key: &[u8], value: &[u8]) -> u64 {
        (RECORD_HEADER + key.len() + value.len()) as u64
    }

    /// An independent replay of a store directory: every segment in id
    /// order, every whole frame applied (no checksum is checked; a tear only
    /// shortens a file). Returns the contents and the frame bytes replayed.
    fn replay(dir: &Path) -> (BTreeMap<Vec<u8>, Vec<u8>>, u64) {
        let mut ids: Vec<u64> = fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|entry| parse_segment_id(entry.ok()?.file_name().to_str()?))
            .collect();
        ids.sort_unstable();
        let (mut contents, mut replayed) = (BTreeMap::new(), 0);
        for id in ids {
            let bytes = fs::read(segment_path(dir, id)).expect("read segment");
            let mut pos = SEGMENT_MAGIC.len();
            while bytes.starts_with(SEGMENT_MAGIC) && pos + RECORD_HEADER <= bytes.len() {
                let len = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let (key_len, value_len) = (len(pos + 4) as usize, len(pos + 8) as usize);
                let key_start = pos + RECORD_HEADER;
                let end = key_start + key_len + value_len;
                if end > bytes.len() {
                    break;
                }
                let key = bytes[key_start..key_start + key_len].to_vec();
                match bytes[pos + 12] {
                    0 => contents.insert(key, bytes[key_start + key_len..end].to_vec()),
                    _ => contents.remove(&key),
                };
                replayed += (end - pos) as u64;
                pos = end;
            }
        }
        (contents, replayed)
    }

    /// Random groups of 1–8 records (repeated keys among them), removes,
    /// clean reopens and reopens after a tear at a random byte of the active
    /// segment, under options small enough that segments roll and
    /// compaction runs, must match a `BTreeMap`. The model predicts every
    /// compaction from its own dead-byte count. After every reopen and every
    /// compaction each key's answer, `len`, the live and dead bytes and the
    /// resident bytes are checked; a torn store must hold exactly what a
    /// replay of the whole frames before the tear holds.
    #[test]
    fn random_operations_match_a_btreemap_across_compactions_reopens_and_tears() {
        let tmp = TempDir::new("model");
        let options = StoreOptions {
            segment_bytes: 512,
            compact_min_bytes: 1024,
        };
        let keys: Vec<Vec<u8>> = (0..24)
            .map(|n| format!("key-{n}-{}", "k".repeat(n % 5)).into_bytes())
            .collect();
        let mut rng = Rng(0xca35_5702);
        let mut store = CacheStore::open_with(&tmp.0, options).expect("open");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut dead = 0u64;
        let mut compactions = 0;
        let (mut tears, mut most_segments, mut total_compactions) = (0, 0, 0);
        for step in 0..3_000 {
            let live = |model: &BTreeMap<Vec<u8>, Vec<u8>>| -> u64 {
                model.iter().map(|(k, v)| frame_bytes(k, v)).sum()
            };
            let mut check = matches!(step % 500, 0);
            match rng.below(20) {
                0..=11 => {
                    let mut group: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                    for i in 0..1 + rng.below(8) {
                        let key = match i > 0 && rng.below(4) == 0 {
                            true => group[rng.below(i)].0.clone(),
                            false => keys[rng.below(keys.len())].clone(),
                        };
                        let value = format!("{step}.{i}").repeat(rng.below(6)).into_bytes();
                        group.push((key, value));
                    }
                    store.put_batch(&group).expect("put_batch");
                    for (key, value) in group {
                        if let Some(old) = model.insert(key.clone(), value) {
                            dead += frame_bytes(&key, &old);
                        }
                    }
                }
                12..=16 => {
                    let key = &keys[rng.below(keys.len())];
                    let old = model.remove(key);
                    assert_eq!(
                        store.remove(key).expect("remove"),
                        old.is_some(),
                        "step {step}"
                    );
                    match old {
                        Some(old) => dead += frame_bytes(key, &old) + frame_bytes(key, b""),
                        None => continue,
                    }
                }
                torn => {
                    drop(store);
                    if torn == 19 {
                        let (_, newest) = fs::read_dir(&tmp.0)
                            .expect("read dir")
                            .filter_map(|e| {
                                let path = e.ok()?.path();
                                Some((parse_segment_id(path.file_name()?.to_str()?)?, path))
                            })
                            .max()
                            .expect("an active segment");
                        let len = fs::metadata(&newest).expect("meta").len();
                        let cut = rng.below(len as usize + 1) as u64;
                        let file = OpenOptions::new().write(true).open(&newest).expect("open");
                        file.set_len(cut).expect("tear");
                        tears += u64::from(cut < len);
                    } else {
                        assert_eq!(
                            replay(&tmp.0).0,
                            model,
                            "step {step}: the files hold the model"
                        );
                    }
                    store = CacheStore::open_with(&tmp.0, options).expect("reopen");
                    let (contents, replayed) = replay(&tmp.0);
                    model = contents;
                    dead = replayed - live(&model);
                    compactions = 0;
                    check = true;
                }
            }
            // The store compacts after a write once dead bytes reach both
            // the floor and the live bytes.
            if dead >= options.compact_min_bytes && dead >= live(&model) {
                dead = 0;
                compactions += 1;
                total_compactions += 1;
                check = true;
            }
            let stats = store.stats();
            assert_eq!(stats.compactions, compactions, "step {step}");
            most_segments = most_segments.max(stats.segments);
            let key = &keys[rng.below(keys.len())];
            assert_eq!(store.get(key).as_ref(), model.get(key), "step {step}");
            if check {
                for key in &keys {
                    assert_eq!(store.get(key).as_ref(), model.get(key), "step {step}");
                }
                assert_eq!(store.len(), model.len(), "step {step}");
                assert_eq!(stats.live_records, model.len(), "step {step}");
                assert_eq!((stats.live_bytes, stats.dead_bytes), (live(&model), dead));
                let headers = (SEGMENT_MAGIC.len() * stats.segments) as u64;
                assert_eq!(stats.resident_bytes, live(&model) + dead + headers);
            }
        }
        let exercised = (tears, total_compactions, most_segments);
        assert!(
            tears > 20 && total_compactions > 20 && most_segments > 2,
            "{exercised:?}"
        );
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
