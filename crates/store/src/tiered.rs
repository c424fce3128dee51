//! One two-tier cache: a bounded, sharded, in-memory LRU over an optional
//! [`CacheStore`].
//!
//! [`TieredCache`] is the single implementation under the perception answer
//! cache (`caesura_modal::cache`) and the validated plan cache
//! (`caesura_llm::plan_cache`). Those modules supply what genuinely differs —
//! a key schema ([`CacheKey`]) and a value codec — and argue why *their*
//! entries are safe to reuse; where an entry lives is decided here.
//!
//! **Memory tier.** At most `capacity` entries, split over up to 16
//! independently locked shards, so concurrent queries contend on a shard,
//! never on the whole cache. A full shard evicts its own least-recently-used
//! entry: an approximation of global LRU that only decides *which* entry is
//! recomputed later, never an answer.
//!
//! A probe brings its own 64-bit hash ([`CacheKey::hash64`], computed once by
//! whoever built the probe, with the process-wide keyed hasher behind
//! [`keyed_hash`]). The hash picks the shard and the slot of the shard's
//! index; it is never hashed again ([`PrehashedMap`]) and never decides
//! identity, which is [`CacheKey::equivalent`]'s comparison of the borrowed
//! probe with the stored key. Each shard keeps its entries in a slab and their
//! recency list in a dense array of `u32` links beside it (`links[i]` holds
//! node `i`'s neighbours; head = most recently used, tail = next victim,
//! vacated nodes on a free list). A hit is one index lookup, one comparison
//! against its node, and a relink that rewrites a few 8-byte links and
//! allocates nothing; an eviction's unlink likewise touches links, not nodes.
//! Insert-plus-evict is one lock acquisition.
//!
//! **Disk tier.** With a store attached, [`TieredCache::get`] walks memory →
//! disk → warm memory and reports which [`Tier`] answered,
//! [`TieredCache::put_batch`] inserts a group of entries and writes the new
//! ones through as one store append ([`CacheStore::put_batch`];
//! [`TieredCache::put`] is a group of one), and [`TieredCache::remove`] also
//! tombstones. A group adds to the shared counters once, not once per entry.
//! Store IO happens outside the shard locks (a racing warm-up is
//! idempotent). Disk keys are namespaced by a caller-supplied *identity*, so
//! records written under one model configuration never answer for another.
//! Memory eviction leaves the disk record alone; a later probe re-warms from
//! it. The tier is an optimisation, never a dependency: a record that does
//! not decode is a disk miss, and a failed write or tombstone costs at most a
//! future cold miss — the caller still succeeds — but is counted in
//! [`TieredStats::disk_errors`] (a failed group append once per record).

use crate::CacheStore;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Most lock shards a cache uses. Small capacities use fewer (down to one),
/// so the bound stays exact and eviction stays close to true LRU.
const MAX_SHARDS: usize = 16;

const POISONED: &str = "cache shard lock poisoned: a thread panicked while holding it";

/// Append `part` to `out` behind its little-endian `u32` length. Every disk
/// key and value of the cache tiers is framed with this writer, so no part
/// can masquerade as another whatever it contains.
pub fn push_part(out: &mut Vec<u8>, part: &[u8]) {
    let len = u32::try_from(part.len()).expect("a cache key or value part is under 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(part);
}

/// Inverse of [`push_part`]: split the next part off the front of `bytes`.
/// `None` when the length prefix or the payload is truncated.
pub fn take_part<'a>(bytes: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let part = bytes.get(4..4usize.checked_add(len)?)?;
    *bytes = &bytes[4 + len..];
    Some(part)
}

/// `value` under the process's one keyed hasher (a [`RandomState`] drawn on
/// first use): the hash every cache probe and every perception request
/// carries. Keyed, so inputs cannot be crafted to share a shard or a slot;
/// different in every process, so it never reaches the disk tier.
pub fn keyed_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(value)
}

/// A map keyed by hashes [`keyed_hash`] already mixed: the key is its own
/// hash.
pub type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// The pass-through hasher of a [`PrehashedMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a prehashed map is keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The key schema of a [`TieredCache`], implemented on the **borrowed** probe
/// form of the key; the memory tier stores the owned form `K`.
pub trait CacheKey<K> {
    /// The probe's [`keyed_hash`] (or a mix of one): equal for equivalent
    /// probes. It picks the shard and the index slot;
    /// [`CacheKey::equivalent`] decides identity. Keys that collide (by
    /// chance once in 2^64 pairs) evict each other.
    fn hash64(&self) -> u64;

    /// Whether `key` is the owned form of this probe.
    fn equivalent(&self, key: &K) -> bool;

    /// The owned key, built only when an entry is inserted.
    fn to_key(&self) -> K;

    /// The key's bytes in the disk tier, namespaced by `identity`. The store
    /// outlives any one process: changing these bytes orphans every record
    /// written before.
    fn disk_key(&self, identity: &str) -> Vec<u8>;
}

/// Plain string keys: the disk key is `(identity, key)`, length-prefixed.
impl CacheKey<String> for str {
    fn hash64(&self) -> u64 {
        keyed_hash(self)
    }

    fn equivalent(&self, key: &String) -> bool {
        self == key
    }

    fn to_key(&self) -> String {
        self.to_string()
    }

    fn disk_key(&self, identity: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + identity.len() + self.len());
        push_part(&mut out, identity.as_bytes());
        push_part(&mut out, self.as_bytes());
        out
    }
}

/// A borrowed probe is a probe, so [`TieredCache::put`] hands its one entry
/// to [`TieredCache::put_batch`] as is.
impl<K, Q: CacheKey<K> + ?Sized> CacheKey<K> for &Q {
    fn hash64(&self) -> u64 {
        (**self).hash64()
    }

    fn equivalent(&self, key: &K) -> bool {
        (**self).equivalent(key)
    }

    fn to_key(&self) -> K {
        (**self).to_key()
    }

    fn disk_key(&self, identity: &str) -> Vec<u8> {
        (**self).disk_key(identity)
    }
}

/// Which tier answered a [`TieredCache::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory shards.
    Memory,
    /// The durable on-disk store (the memory tier was warmed on the way).
    Disk,
}

/// A successful [`TieredCache::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hit<V> {
    /// The cached value.
    pub value: V,
    /// The tier that held it.
    pub tier: Tier,
    /// Entries evicted while warming the memory tier (0 on a memory hit).
    pub evictions: usize,
}

/// Outcome of one [`TieredCache::put_batch`] (or [`TieredCache::put`], a
/// group of one), counted over the group's entries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Put {
    /// Entries new to the memory tier. A key already cached only had its LRU
    /// position refreshed, and nothing was written for it.
    pub inserted: usize,
    /// Entries evicted to respect the capacity bound (at most one per
    /// inserted entry).
    pub evictions: usize,
    /// Records the disk tier appended (0 without one, and when the append
    /// failed).
    pub written: usize,
}

/// Outcome of one [`TieredCache::remove`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Removed {
    /// Whether the memory tier held the entry.
    pub memory: bool,
    /// Whether a live disk record was tombstoned.
    pub disk: bool,
}

/// Lifetime counters of one [`TieredCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TieredStats {
    /// Probes answered by the memory tier.
    pub hits: usize,
    /// Probes the memory tier could not answer.
    pub misses: usize,
    /// Entries stored in the memory tier (fresh values and disk warm-ups).
    pub insertions: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: usize,
    /// Memory-tier misses answered from the attached disk store.
    pub disk_hits: usize,
    /// Disk-tier probes that found nothing (true cold misses).
    pub disk_misses: usize,
    /// Records written through to the attached disk store.
    pub disk_writes: usize,
    /// Disk writes and tombstones that failed; the operation that caused
    /// them still succeeded from memory.
    pub disk_errors: usize,
    /// Entries [`TieredCache::remove`] dropped from the memory tier.
    pub invalidations: usize,
    /// Live disk records [`TieredCache::remove`] tombstoned.
    pub disk_invalidations: usize,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    insertions: AtomicUsize,
    evictions: AtomicUsize,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
    disk_writes: AtomicUsize,
    disk_errors: AtomicUsize,
    invalidations: AtomicUsize,
    disk_invalidations: AtomicUsize,
}

/// "No node": the end of a recency or free list.
const NIL: u32 = u32::MAX;

/// One slab node: a cached entry and the hash it is indexed under.
#[derive(Debug)]
struct Node<K, V> {
    hash: u64,
    /// `None` while the node waits on the free list.
    entry: Option<(K, V)>,
}

/// A node's place in the shard's recency list, kept in a dense array beside
/// the slab so that a relink touches 8 bytes per neighbour, not a node.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next more recently used node.
    prev: u32,
    /// The next less recently used node; on the free list, the next free one.
    next: u32,
}

/// One independently locked slice of the memory tier.
#[derive(Debug)]
struct Shard<K, V> {
    capacity: usize,
    /// Key hash → position of the entry's node. `index.len()` is the shard's
    /// live entry count.
    index: PrehashedMap<u32>,
    nodes: Vec<Node<K, V>>,
    /// `links[at]` links `nodes[at]`; the two always have the same length.
    links: Vec<Link>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node: the next victim.
    tail: u32,
    /// First vacated node.
    free: u32,
}

impl<K, V> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            index: PrehashedMap::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Position of the live entry `probe` names.
    fn find<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, hash: u64) -> Option<u32> {
        let at = *self.index.get(&hash)?;
        let (key, _) = self.nodes[at as usize].entry.as_ref()?;
        probe.equivalent(key).then_some(at)
    }

    /// The value `probe` names, moved to the front of the recency list.
    fn touch<Q: CacheKey<K> + ?Sized>(&mut self, probe: &Q, hash: u64) -> Option<&V> {
        let at = self.find(probe, hash)?;
        if self.head != at {
            self.unlink(at);
            self.push_front(at);
        }
        let (_, value) = self.nodes[at as usize].entry.as_ref()?;
        Some(value)
    }

    /// Take node `at` out of the recency list.
    fn unlink(&mut self, at: u32) {
        let Link { prev, next } = self.links[at as usize];
        match prev {
            NIL => self.head = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.links[next as usize].prev = prev,
        }
    }

    /// Make the unlinked node `at` the most recently used.
    fn push_front(&mut self, at: u32) {
        self.links[at as usize] = Link {
            prev: NIL,
            next: self.head,
        };
        match self.head {
            NIL => self.tail = at,
            head => self.links[head as usize].prev = at,
        }
        self.head = at;
    }

    /// Drop the live entry at `at` and put its node on the free list.
    fn release(&mut self, at: u32) {
        self.unlink(at);
        let node = &mut self.nodes[at as usize];
        self.index.remove(&node.hash);
        node.entry = None;
        self.links[at as usize].next = self.free;
        self.free = at;
    }

    /// Store a new entry as the most recently used, in a vacated node if
    /// there is one.
    fn push_new(&mut self, hash: u64, key: K, value: V) {
        let node = Node {
            hash,
            entry: Some((key, value)),
        };
        let at = match self.free {
            NIL => {
                let at = u32::try_from(self.nodes.len()).ok().filter(|&at| at != NIL);
                let at = at.expect("a cache shard holds fewer than 2^32 - 1 entries");
                self.nodes.push(node);
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                at
            }
            at => {
                self.free = self.links[at as usize].next;
                self.nodes[at as usize] = node;
                at
            }
        };
        self.index.insert(hash, at);
        self.push_front(at);
    }
}

/// A bounded, sharded LRU map with an optional durable tier below it; see
/// the [module docs](self). Values cross into the disk tier through `encode`
/// and `decode`, which returns `None` on any malformed payload.
#[derive(Debug)]
pub struct TieredCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity: usize,
    encode: fn(&V) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<V>,
    disk: Option<Arc<CacheStore>>,
    counters: Counters,
}

impl<K, V: Clone> TieredCache<K, V> {
    /// A memory-only cache holding at most `capacity` entries (clamped to
    /// ≥ 1; "off" is expressed as the absence of a cache).
    pub fn new(capacity: usize, encode: fn(&V) -> Vec<u8>, decode: fn(&[u8]) -> Option<V>) -> Self {
        let capacity = capacity.max(1);
        let shard_count = (capacity / 4).clamp(1, MAX_SHARDS);
        let (base, extra) = (capacity / shard_count, capacity % shard_count);
        let shard = |i| Shard::new(base + usize::from(i < extra));
        TieredCache {
            shards: (0..shard_count).map(|i| Mutex::new(shard(i))).collect(),
            capacity,
            encode,
            decode,
            disk: None,
            counters: Counters::default(),
        }
    }

    /// Attach a durable tier below the in-memory shards.
    pub fn attach_disk(&mut self, store: Arc<CacheStore>) {
        self.disk = Some(store);
    }

    /// Whether a disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries in the memory tier (a racing snapshot under concurrent use).
    pub fn len(&self) -> usize {
        let live = |shard: &Mutex<Shard<K, V>>| shard.lock().expect(POISONED).index.len();
        self.shards.iter().map(live).sum()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TieredStats {
        let c = &self.counters;
        TieredStats {
            hits: c.hits.load(Relaxed),
            misses: c.misses.load(Relaxed),
            insertions: c.insertions.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            disk_hits: c.disk_hits.load(Relaxed),
            disk_misses: c.disk_misses.load(Relaxed),
            disk_writes: c.disk_writes.load(Relaxed),
            disk_errors: c.disk_errors.load(Relaxed),
            invalidations: c.invalidations.load(Relaxed),
            disk_invalidations: c.disk_invalidations.load(Relaxed),
        }
    }

    /// Lock the shard `hash` belongs to. The shard comes from the hash's
    /// upper half; the shard's index buckets by the lower bits.
    fn shard_of(&self, hash: u64) -> MutexGuard<'_, Shard<K, V>> {
        let shard = &self.shards[((hash >> 32) % self.shards.len() as u64) as usize];
        shard.lock().expect(POISONED)
    }

    /// Insert into the memory tier, evicting the shard's least-recently-used
    /// entry on overflow. Returns the evictions (0 or 1), or `None` when the
    /// key was already present: values are deterministic per key, so only
    /// its LRU position is refreshed. The caller counts what it inserted.
    fn insert<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, hash: u64, value: V) -> Option<usize> {
        let mut shard = self.shard_of(hash);
        if shard.touch(probe, hash).is_some() {
            return None;
        }
        // Another key with the same hash makes way; failing that, a full
        // shard's least recently used entry does.
        let collided = shard.index.get(&hash).copied();
        let full = shard.index.len() >= shard.capacity;
        let victim = collided.or(full.then_some(shard.tail));
        if let Some(victim) = victim {
            shard.release(victim);
        }
        shard.push_new(hash, probe.to_key(), value);
        Some(usize::from(victim.is_some()))
    }

    /// Look `probe` up: memory first (refreshing the LRU position), then the
    /// disk tier under `identity`, warming the memory tier on a disk hit.
    pub fn get<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, identity: &str) -> Option<Hit<V>> {
        let hash = probe.hash64();
        let mut shard = self.shard_of(hash);
        if let Some(value) = shard.touch(probe, hash) {
            self.counters.hits.fetch_add(1, Relaxed);
            return Some(Hit {
                value: value.clone(),
                tier: Tier::Memory,
                evictions: 0,
            });
        }
        drop(shard);
        self.counters.misses.fetch_add(1, Relaxed);
        let value = self.disk_get(|| probe.disk_key(identity), self.decode)?;
        // A concurrent probe may have warmed this key first.
        let evictions = self
            .insert(probe, hash, value.clone())
            .map_or(0, |evictions| {
                self.counters.insertions.fetch_add(1, Relaxed);
                add(&self.counters.evictions, evictions);
                evictions
            });
        Some(Hit {
            value,
            tier: Tier::Disk,
            evictions,
        })
    }

    /// Store `value` under `probe`: a group of one (see [`Self::put_batch`]).
    pub fn put<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, value: V, identity: &str) -> Put {
        self.put_batch([(probe, value)], identity)
    }

    /// Store a group of entries, in order. A key not yet cached enters the
    /// memory tier; a key already cached (earlier in the group too) only has
    /// its LRU position refreshed. With a store attached, the new entries are
    /// written through under `identity` as one append
    /// ([`CacheStore::put_batch`]), after every shard lock is released; a
    /// value is encoded and its disk key built only when its entry is new.
    /// The shared counters add the group's totals once. A failed append
    /// counts each of its records in [`TieredStats::disk_errors`], and the
    /// entries still answer from memory.
    pub fn put_batch<Q: CacheKey<K>>(
        &self,
        entries: impl IntoIterator<Item = (Q, V)>,
        identity: &str,
    ) -> Put {
        let entries = entries.into_iter();
        let mut records = match self.disk {
            Some(_) => Vec::with_capacity(entries.size_hint().1.unwrap_or(0)),
            None => Vec::new(),
        };
        let mut put = Put::default();
        for (probe, value) in entries {
            // The value moves into the memory tier; a new entry's record is
            // encoded from the copy kept for the disk tier.
            let kept = self.disk.as_ref().map(|_| value.clone());
            let Some(evictions) = self.insert(&probe, probe.hash64(), value) else {
                continue;
            };
            put.inserted += 1;
            put.evictions += evictions;
            if let Some(value) = kept {
                records.push((probe.disk_key(identity), (self.encode)(&value)));
            }
        }
        add(&self.counters.insertions, put.inserted);
        add(&self.counters.evictions, put.evictions);
        put.written = self.write_through(records);
        put
    }

    /// Drop `probe` from the memory tier and tombstone its disk record,
    /// counting each in [`TieredStats::invalidations`] and
    /// [`TieredStats::disk_invalidations`] (a failed tombstone counts in
    /// [`TieredStats::disk_errors`] only).
    pub fn remove<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, identity: &str) -> Removed {
        let hash = probe.hash64();
        let mut shard = self.shard_of(hash);
        let found = shard.find(probe, hash);
        if let Some(at) = found {
            shard.release(at);
        }
        drop(shard);
        let memory = found.is_some();
        let tombstone = |store: &Arc<CacheStore>| {
            store.remove(&probe.disk_key(identity)).unwrap_or_else(|_| {
                self.counters.disk_errors.fetch_add(1, Relaxed);
                false
            })
        };
        let disk = self.disk.as_ref().is_some_and(tombstone);
        add(&self.counters.invalidations, usize::from(memory));
        add(&self.counters.disk_invalidations, usize::from(disk));
        Removed { memory, disk }
    }

    /// Probe the disk tier alone, for keyspaces that have no memory tier.
    /// `decode` reads the value where it lies in the store, under the store
    /// lock ([`CacheStore::get_with`]), so nothing is copied before it.
    /// Counts a disk hit when the record exists and `decode` accepts it, a
    /// disk miss otherwise; `None` uncounted when no store is attached (in
    /// which case `key` is never built).
    pub fn disk_get<T>(
        &self,
        key: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let store = self.disk.as_ref()?;
        let found = store.get_with(&key(), decode).flatten();
        let counter = match found {
            Some(_) => &self.counters.disk_hits,
            None => &self.counters.disk_misses,
        };
        counter.fetch_add(1, Relaxed);
        found
    }

    /// Write one record to the disk tier alone, as a group of one. Returns
    /// whether it was appended: `false` uncounted without a store (in which
    /// case `key` is never built), `false` and one
    /// [`TieredStats::disk_errors`] when the store refused it.
    pub fn disk_put(&self, key: impl FnOnce() -> Vec<u8>, value: Vec<u8>) -> bool {
        self.disk.is_some() && self.write_through(vec![(key(), value)]) == 1
    }

    /// Append `records` to the disk tier as one group and count the outcome
    /// once. Returns how many were written: all of them, or none (uncounted
    /// without a store or without records).
    fn write_through(&self, records: Vec<(Vec<u8>, Vec<u8>)>) -> usize {
        let Some(store) = self.disk.as_ref().filter(|_| !records.is_empty()) else {
            return 0;
        };
        let count = records.len();
        match store.put_batch(&records) {
            Ok(()) => {
                add(&self.counters.disk_writes, count);
                count
            }
            Err(_) => {
                add(&self.counters.disk_errors, count);
                0
            }
        }
    }
}

/// Add `n` to a shared counter, leaving its cache line alone when `n` is 0.
fn add(counter: &AtomicUsize, n: usize) {
    if n > 0 {
        counter.fetch_add(n, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Rng;
    use crate::StoreOptions;
    use std::path::PathBuf;

    type StringCache = TieredCache<String, String>;

    fn string_cache(capacity: usize) -> StringCache {
        TieredCache::new(
            capacity,
            |value| value.as_bytes().to_vec(),
            |bytes| String::from_utf8(bytes.to_vec()).ok(),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("caesura-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A string key filed under a hash the test chooses, so collisions can
    /// be forced. Its disk key is the plain string's.
    struct Probe<'a> {
        key: &'a str,
        hash: u64,
    }

    impl CacheKey<String> for Probe<'_> {
        fn hash64(&self) -> u64 {
            self.hash
        }
        fn equivalent(&self, key: &String) -> bool {
            self.key == key
        }
        fn to_key(&self) -> String {
            self.key.to_string()
        }
        fn disk_key(&self, identity: &str) -> Vec<u8> {
            self.key.disk_key(identity)
        }
    }

    /// One entry of the reference: key, value, hash.
    type Entry = (String, String, u64);

    /// The naive reference: per shard a `Vec` in LRU order (front = next
    /// victim), and a `HashMap` standing in for the store.
    struct Model {
        shards: Vec<(usize, Vec<Entry>)>,
        disk: Option<HashMap<String, String>>,
        stats: TieredStats,
    }

    impl Model {
        /// Mirrors the cache's shard capacities (read from the cache, so the
        /// split has one definition) and whether it has a store.
        fn of(cache: &StringCache) -> Model {
            let capacity_of = |s: &Mutex<Shard<String, String>>| s.lock().unwrap().capacity;
            Model {
                shards: cache
                    .shards
                    .iter()
                    .map(|shard| (capacity_of(shard), Vec::new()))
                    .collect(),
                disk: cache.has_disk().then(HashMap::new),
                stats: TieredStats::default(),
            }
        }

        fn shard(&mut self, hash: u64) -> &mut (usize, Vec<Entry>) {
            let count = self.shards.len() as u64;
            &mut self.shards[((hash >> 32) % count) as usize]
        }

        /// Move `probe`'s entry to the most-recently-used end; its value if
        /// present.
        fn refresh(&mut self, probe: &Probe<'_>) -> Option<String> {
            let (_, lru) = self.shard(probe.hash);
            let at = lru.iter().position(|(k, ..)| k == probe.key)?;
            let entry = lru.remove(at);
            lru.push(entry.clone());
            Some(entry.1)
        }

        /// Insert an absent key: an entry filed under the same hash makes
        /// way; failing that, a full shard's front does.
        fn insert(&mut self, probe: &Probe<'_>, value: &str) -> usize {
            let (capacity, lru) = self.shard(probe.hash);
            let collided = lru.iter().position(|&(.., hash)| hash == probe.hash);
            let victim = collided.or((lru.len() >= *capacity).then_some(0));
            if let Some(at) = victim {
                lru.remove(at);
            }
            lru.push((probe.key.to_string(), value.to_string(), probe.hash));
            let evictions = usize::from(victim.is_some());
            self.stats.insertions += 1;
            self.stats.evictions += evictions;
            evictions
        }

        fn get(&mut self, probe: &Probe<'_>) -> Option<Hit<String>> {
            if let Some(value) = self.refresh(probe) {
                self.stats.hits += 1;
                return Some(Hit {
                    value,
                    tier: Tier::Memory,
                    evictions: 0,
                });
            }
            self.stats.misses += 1;
            let Some(value) = self.disk.as_ref()?.get(probe.key).cloned() else {
                self.stats.disk_misses += 1;
                return None;
            };
            self.stats.disk_hits += 1;
            let evictions = self.insert(probe, &value);
            Some(Hit {
                value,
                tier: Tier::Disk,
                evictions,
            })
        }

        fn put(&mut self, probe: &Probe<'_>, value: &str) -> Put {
            if self.refresh(probe).is_some() {
                return Put::default();
            }
            let evictions = self.insert(probe, value);
            let written = match self.disk.as_mut() {
                Some(disk) => {
                    disk.insert(probe.key.to_string(), value.to_string());
                    self.stats.disk_writes += 1;
                    1
                }
                None => 0,
            };
            Put {
                inserted: 1,
                evictions,
                written,
            }
        }

        /// A group put is its puts in order; the outcome is their sum.
        fn put_batch(&mut self, entries: &[(Probe<'_>, String)]) -> Put {
            let mut sum = Put::default();
            for (probe, value) in entries {
                let one = self.put(probe, value);
                sum.inserted += one.inserted;
                sum.evictions += one.evictions;
                sum.written += one.written;
            }
            sum
        }

        fn remove(&mut self, probe: &Probe<'_>) -> Removed {
            let (_, lru) = self.shard(probe.hash);
            let before = lru.len();
            lru.retain(|(k, ..)| k != probe.key);
            let memory = lru.len() < before;
            let disk = self.disk.as_mut();
            let disk = disk.is_some_and(|d| d.remove(probe.key).is_some());
            self.stats.invalidations += usize::from(memory);
            self.stats.disk_invalidations += usize::from(disk);
            Removed { memory, disk }
        }
    }

    /// The shard's keys from most to least recently used, after checking the
    /// structure: the link array runs beside the slab, the walk from the head
    /// is the reverse of the walk from the tail and visits exactly the indexed
    /// nodes, each indexed under its own hash, and every other node of the
    /// slab is on the free list.
    fn recency_order(shard: &Shard<String, String>) -> Vec<String> {
        assert_eq!(shard.links.len(), shard.nodes.len());
        let walk = |from: u32, step: fn(&Link) -> u32| {
            let mut visited = Vec::new();
            let mut at = from;
            while at != NIL {
                assert!(visited.len() < shard.links.len(), "the list has a cycle");
                visited.push(at);
                at = step(&shard.links[at as usize]);
            }
            visited
        };
        let forward = walk(shard.head, |link| link.next);
        let mut backward = walk(shard.tail, |link| link.prev);
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), shard.index.len());
        assert!(shard.index.len() <= shard.capacity);
        let free = walk(shard.free, |link| link.next);
        assert!(free
            .iter()
            .all(|&at| shard.nodes[at as usize].entry.is_none()));
        assert_eq!(forward.len() + free.len(), shard.nodes.len());
        let key_of = |&at: &u32| {
            let node = &shard.nodes[at as usize];
            assert_eq!(shard.index.get(&node.hash), Some(&at));
            let (key, _) = node.entry.as_ref().expect("listed nodes are live");
            key.clone()
        };
        forward.iter().map(key_of).collect()
    }

    /// Random `get` / `put` / group put / `remove` sequences must be
    /// indistinguishable from the reference: answers, tiers, every outcome,
    /// every counter and, after every operation, each shard's whole recency
    /// order. A group of 1–8 entries (repeats within the group, keys already
    /// cached) is applied by the reference as its puts in order. Run under
    /// the real hash, under a hash three keys share, and under one constant
    /// hash for all keys (which also collides entries of one group). This one
    /// suite stands in for the per-cache LRU, capacity-bound, re-insert and
    /// shard-split unit tests the two caches used to carry.
    #[test]
    fn random_operations_match_the_reference_model() {
        /// The hash a key number is filed under.
        type Hashing = fn(usize) -> u64;
        let hashers: [(&str, Hashing); 3] = [
            ("keyed", |n| keyed_hash(&n)),
            ("shared by three", |n| keyed_hash(&(n / 3))),
            ("constant", |_| 7),
        ];
        for (round, capacity) in [1usize, 2, 5, 17, 64].into_iter().enumerate() {
            let configs = hashers.iter().flat_map(|h| [(false, h), (true, h)]);
            for (with_store, &(hashing, hasher)) in configs {
                let dir = temp_dir(&format!("model-{capacity}-{with_store}-{}", hashing.len()));
                let mut cache = string_cache(capacity);
                if with_store {
                    cache.attach_disk(Arc::new(CacheStore::open(&dir).expect("open store")));
                }
                let mut model = Model::of(&cache);
                let split: usize = model.shards.iter().map(|(capacity, _)| capacity).sum();
                assert_eq!(split, capacity, "shard capacities sum to the total");
                assert!(cache.shards.len() <= MAX_SHARDS);
                assert_eq!(cache.capacity(), capacity);

                let mut rng = Rng(0xca35_0000 + round as u64 * 2 + u64::from(with_store));
                let keys = capacity * 3 + 4;
                for step in 0..3_000 {
                    let n = rng.below(keys);
                    let key = format!("key-{n}");
                    let (key, hash) = (key.as_str(), hasher(n));
                    let probe = Probe { key, hash };
                    let value = format!("{key}@{step}");
                    let context =
                        format!("capacity {capacity}, store {with_store}, {hashing}, step {step}");
                    let op = rng.below(10);
                    if op == 9 {
                        // Each entry is a fresh draw or, one time in four, a
                        // repeat of an earlier entry's key.
                        let mut drawn: Vec<usize> = Vec::new();
                        for i in 0..1 + rng.below(8) {
                            let repeat = i > 0 && rng.below(4) == 0;
                            drawn.push(if repeat {
                                drawn[rng.below(i)]
                            } else {
                                rng.below(keys)
                            });
                        }
                        let names: Vec<String> = drawn.iter().map(|n| format!("key-{n}")).collect();
                        let entries: Vec<(Probe<'_>, String)> = drawn
                            .iter()
                            .zip(&names)
                            .enumerate()
                            .map(|(i, (&n, name))| {
                                let probe = Probe {
                                    key: name,
                                    hash: hasher(n),
                                };
                                (probe, format!("{name}@{step}.{i}"))
                            })
                            .collect();
                        let group = entries.iter().map(|(p, v)| (p, v.clone()));
                        let put = cache.put_batch(group, "id");
                        assert_eq!(put, model.put_batch(&entries), "{context}");
                    }
                    if op <= 3 {
                        assert_eq!(cache.get(&probe, "id"), model.get(&probe), "{context}");
                    }
                    if op >= 7 {
                        let removed = cache.remove(&probe, "id");
                        assert_eq!(removed, model.remove(&probe), "{context}");
                    }
                    // 4..=6 put; 8 re-inserts what it just removed.
                    if (4..=6).contains(&op) || op == 8 {
                        let put = cache.put(&probe, value.clone(), "id");
                        assert_eq!(put, model.put(&probe, &value), "{context}");
                    }
                    for (shard, (_, lru)) in cache.shards.iter().zip(&model.shards) {
                        let expected: Vec<_> = lru.iter().rev().map(|(k, ..)| k.clone()).collect();
                        assert_eq!(recency_order(&shard.lock().unwrap()), expected, "{context}");
                    }
                }
                assert_eq!(cache.stats(), model.stats);
                let live: usize = model.shards.iter().map(|(_, lru)| lru.len()).sum();
                assert_eq!(cache.len(), live);
                assert_eq!(cache.is_empty(), live == 0);
                assert!(cache.stats().evictions > 0, "the key universe overflows");
                drop(cache);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// Keys that all hash alike share one index slot: the newer entry
    /// replaces the older one, and no probe is ever answered by another key.
    #[test]
    fn colliding_keys_evict_each_other_and_never_answer_for_each_other() {
        let colliding = |key| Probe { key, hash: 0 };
        let cache = string_cache(8);
        assert_eq!(
            cache.put(&colliding("a"), "1".to_string(), "id").evictions,
            0
        );
        assert_eq!(
            cache.put(&colliding("b"), "2".to_string(), "id").evictions,
            1
        );
        assert_eq!(cache.get(&colliding("a"), "id"), None);
        assert!(!cache.remove(&colliding("a"), "id").memory);
        assert_eq!(
            cache.get(&colliding("b"), "id").map(|hit| hit.value),
            Some("2".to_string())
        );
        assert_eq!((cache.len(), cache.stats().evictions), (1, 1));
        assert!(cache.remove(&colliding("b"), "id").memory);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_mixed_use_stays_bounded_and_consistent() {
        let cache = string_cache(32);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        let key = format!("key-{}", (t * 7 + i) % 50);
                        match cache.get(&*key, "id") {
                            Some(hit) => assert_eq!(hit.value, key, "values are per key"),
                            None => drop(cache.put(&*key, key.clone(), "id")),
                        }
                    }
                });
            }
        });
        assert!(
            cache.len() <= 32,
            "capacity bound violated: {}",
            cache.len()
        );
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2_000);
        assert_eq!(stats.insertions - stats.evictions, cache.len());
    }

    /// A store whose directory vanished fails its next segment roll. The
    /// cache must count that, not hide it, and keep answering from memory.
    #[test]
    fn failed_disk_writes_are_counted_and_memory_still_answers() {
        let dir = temp_dir("errors");
        // Every append rolls to a new segment file, which needs the directory.
        let options = StoreOptions {
            segment_bytes: 1,
            ..StoreOptions::default()
        };
        let store = CacheStore::open_with(&dir, options).expect("open store");
        let mut cache = string_cache(8);
        cache.attach_disk(Arc::new(store));
        assert_eq!(cache.put("before", "1".to_string(), "id").written, 1);
        assert_eq!(cache.put("gone", "0".to_string(), "id").written, 1);
        // A present key counts one removal per tier; an absent one nothing.
        let removed = cache.remove("gone", "id");
        assert!(removed.memory && removed.disk);
        assert!(!cache.remove("never", "id").memory);
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.disk_invalidations), (1, 1));
        std::fs::remove_dir_all(&dir).expect("remove the store directory");

        let put = cache.put("after", "2".to_string(), "id");
        assert_eq!((put.inserted, put.written), (1, 0));
        let removed = cache.remove("before", "id");
        assert!(removed.memory && !removed.disk, "the tombstone failed too");
        let stats = cache.stats();
        assert_eq!((stats.disk_writes, stats.disk_errors), (2, 2));
        // The failed tombstone counts as an error, not as a disk removal.
        assert_eq!((stats.invalidations, stats.disk_invalidations), (2, 1));
        let hit = cache.get("after", "id").expect("memory still answers");
        assert_eq!((hit.value.as_str(), hit.tier), ("2", Tier::Memory));

        // A failed group append counts every record of the group.
        let group = ["x", "y", "z"].map(|key| (key, key.to_string()));
        let put = cache.put_batch(group, "id");
        assert_eq!((put.inserted, put.written), (3, 0));
        assert_eq!(cache.stats().disk_errors, 2 + 3);
        assert!(cache.get("y", "id").is_some(), "memory still answers");
    }

    #[test]
    fn parts_round_trip_and_reject_truncation() {
        let mut framed = Vec::new();
        push_part(&mut framed, b"identity");
        push_part(&mut framed, b"");
        push_part(&mut framed, "caf\u{e9}".as_bytes());
        let mut rest = framed.as_slice();
        assert_eq!(take_part(&mut rest), Some(&b"identity"[..]));
        assert_eq!(take_part(&mut rest), Some(&b""[..]));
        assert_eq!(take_part(&mut rest), Some("caf\u{e9}".as_bytes()));
        assert_eq!(take_part(&mut rest), None, "nothing left");
        assert_eq!(take_part(&mut &framed[..11]), None, "payload cut short");
        assert_eq!(take_part(&mut &framed[..3]), None, "prefix cut short");
        assert_eq!(take_part(&mut &[0xff, 0xff, 0xff, 0xff, 1][..]), None);
    }
}
