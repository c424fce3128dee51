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
//! recomputed later, never an answer. Probes hash and compare keys in their
//! borrowed form, so a hit allocates nothing; insert-plus-evict is one lock
//! acquisition.
//!
//! **Disk tier.** With a store attached, [`TieredCache::get`] walks memory →
//! disk → warm memory and reports which [`Tier`] answered,
//! [`TieredCache::put`] inserts and writes through, and
//! [`TieredCache::remove`] also tombstones. Store IO happens outside the
//! shard locks (a racing warm-up is idempotent). Disk keys are namespaced by
//! a caller-supplied *identity*, so records written under one model
//! configuration never answer for another. Memory eviction leaves the disk
//! record alone; a later probe re-warms from it. The tier is an optimisation,
//! never a dependency: a record that does not decode is a disk miss, and a
//! failed write or tombstone costs at most a future cold miss — the caller
//! still succeeds — but is counted in [`TieredStats::disk_errors`].

use crate::CacheStore;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Most lock shards a cache uses. Small capacities use fewer (down to one),
/// so the bound stays exact and eviction stays close to true LRU.
const MAX_SHARDS: usize = 16;

const POISONED: &str = "cache shard lock poisoned: a thread panicked while holding it";

/// The entry capacity an environment knob describes — the one parsing rule of
/// `CAESURA_PERCEPTION_CACHE` and `CAESURA_PLAN_CACHE`: unset or unparseable
/// gives `default`, `0` / `off` / `false` gives 0 (no cache), any other
/// number is the capacity.
pub fn capacity_from_env(var: &str, default: usize) -> usize {
    std::env::var(var).map_or(default, |raw| parse_capacity(&raw, default))
}

fn parse_capacity(raw: &str, default: usize) -> usize {
    match raw.trim().to_lowercase().as_str() {
        "off" | "false" | "0" => 0,
        value => value.parse().ok().filter(|&c| c > 0).unwrap_or(default),
    }
}

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

/// The key schema of a [`TieredCache`], implemented on the **borrowed** probe
/// form of the key; the memory tier stores the owned form `K`. The probe's
/// [`Hash`] picks the shard and the index slot, [`CacheKey::equivalent`]
/// decides identity.
pub trait CacheKey<K>: Hash {
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

/// Outcome of one [`TieredCache::put`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Put {
    /// Whether the entry is new. `false`: the key was already cached, its
    /// LRU position was refreshed and nothing was written.
    pub inserted: bool,
    /// Entries evicted to respect the capacity bound (0 or 1).
    pub evictions: usize,
    /// Whether the record reached the disk tier (`false` without one, and
    /// when the write failed).
    pub written: bool,
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
}

/// FNV-1a (also the store's record checksum). A probe's 64-bit hash picks the
/// shard and keys its index, but never decides identity: a slot only answers
/// a probe its stored key is [`CacheKey::equivalent`] to. Keys that collide
/// (by chance once in 2^64 pairs, or by construction) evict each other.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cached entry plus its position in the shard's LRU order.
#[derive(Debug)]
struct Cached<K, V> {
    key: K,
    value: V,
    tick: u64,
}

/// One independently locked slice of the memory tier.
#[derive(Debug)]
struct Shard<K, V> {
    capacity: usize,
    /// Monotonic access clock; higher tick = more recently used.
    tick: u64,
    /// Key hash → entry.
    index: HashMap<u64, Cached<K, V>>,
    /// LRU order: access tick → hash of the entry touched at that tick.
    /// `lru.len()` is the shard's live entry count.
    lru: BTreeMap<u64, u64>,
}

impl<K, V> Shard<K, V> {
    /// The live entry `probe` names, moved to the front of the LRU order.
    fn touch<Q>(&mut self, probe: &Q, hash: u64, tick: u64) -> Option<&mut Cached<K, V>>
    where
        Q: CacheKey<K> + ?Sized,
    {
        let slot = self.index.get_mut(&hash);
        let entry = slot.filter(|entry| probe.equivalent(&entry.key))?;
        self.lru.remove(&entry.tick);
        entry.tick = tick;
        self.lru.insert(tick, hash);
        Some(entry)
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
        let shard = |i| Shard {
            capacity: base + usize::from(i < extra),
            tick: 0,
            index: HashMap::new(),
            lru: BTreeMap::new(),
        };
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
        let live = |shard: &Mutex<Shard<K, V>>| shard.lock().expect(POISONED).lru.len();
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
        }
    }

    /// Lock the shard `probe` belongs to and advance its access clock.
    /// Returns the shard, the probe's hash and the new tick.
    fn shard_of<Q: Hash + ?Sized>(&self, probe: &Q) -> (MutexGuard<'_, Shard<K, V>>, u64, u64) {
        let mut fnv = Fnv::new();
        probe.hash(&mut fnv);
        let hash = fnv.finish();
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        let mut shard = shard.lock().expect(POISONED);
        shard.tick += 1;
        let tick = shard.tick;
        (shard, hash, tick)
    }

    /// Insert into the memory tier, evicting the shard's least-recently-used
    /// entry on overflow. Returns the evictions (0 or 1), or `None` when the
    /// key was already present: values are deterministic per key, so only
    /// its LRU position is refreshed.
    fn insert<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, value: V) -> Option<usize> {
        let (mut shard, hash, tick) = self.shard_of(probe);
        if shard.touch(probe, hash, tick).is_some() {
            return None;
        }
        let key = probe.to_key();
        let mut evictions = 0;
        if let Some(collided) = shard.index.insert(hash, Cached { key, value, tick }) {
            // Another key with the same hash: the older entry makes way.
            shard.lru.remove(&collided.tick);
            evictions += 1;
        }
        shard.lru.insert(tick, hash);
        if shard.lru.len() > shard.capacity {
            let (_, victim) = shard
                .lru
                .pop_first()
                .expect("a full shard has an LRU entry");
            shard.index.remove(&victim);
            evictions += 1;
        }
        self.counters.insertions.fetch_add(1, Relaxed);
        self.counters.evictions.fetch_add(evictions, Relaxed);
        Some(evictions)
    }

    /// Look `probe` up: memory first (refreshing the LRU position), then the
    /// disk tier under `identity`, warming the memory tier on a disk hit.
    pub fn get<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, identity: &str) -> Option<Hit<V>> {
        let (mut shard, hash, tick) = self.shard_of(probe);
        if let Some(entry) = shard.touch(probe, hash, tick) {
            self.counters.hits.fetch_add(1, Relaxed);
            return Some(Hit {
                value: entry.value.clone(),
                tier: Tier::Memory,
                evictions: 0,
            });
        }
        drop(shard);
        self.counters.misses.fetch_add(1, Relaxed);
        let value = self.disk_get(|| probe.disk_key(identity), self.decode)?;
        // A concurrent probe may have warmed this key first.
        let evictions = self.insert(probe, value.clone()).unwrap_or(0);
        Some(Hit {
            value,
            tier: Tier::Disk,
            evictions,
        })
    }

    /// Store `value` under `probe` and write a new entry through to the disk
    /// tier under `identity`.
    pub fn put<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, value: V, identity: &str) -> Put {
        // Encode before the value moves into the map; the write itself
        // happens after the shard lock is released.
        let encoded = self.disk.as_ref().map(|_| (self.encode)(&value));
        let Some(evictions) = self.insert(probe, value) else {
            return Put::default();
        };
        let written =
            encoded.is_some_and(|bytes| self.disk_put(|| probe.disk_key(identity), &bytes));
        Put {
            inserted: true,
            evictions,
            written,
        }
    }

    /// Drop `probe` from the memory tier and tombstone its disk record.
    pub fn remove<Q: CacheKey<K> + ?Sized>(&self, probe: &Q, identity: &str) -> Removed {
        let (mut shard, hash, tick) = self.shard_of(probe);
        let memory = shard.touch(probe, hash, tick).is_some();
        if memory {
            shard.index.remove(&hash);
            shard.lru.remove(&tick);
        }
        drop(shard);
        let tombstone = |store: &Arc<CacheStore>| {
            store.remove(&probe.disk_key(identity)).unwrap_or_else(|_| {
                self.counters.disk_errors.fetch_add(1, Relaxed);
                false
            })
        };
        let disk = self.disk.as_ref().is_some_and(tombstone);
        Removed { memory, disk }
    }

    /// Probe the disk tier alone, for keyspaces that have no memory tier.
    /// Counts a disk hit when the record exists and `decode` accepts it, a
    /// disk miss otherwise; `None` uncounted when no store is attached (in
    /// which case `key` is never built).
    pub fn disk_get<T>(
        &self,
        key: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let store = self.disk.as_ref()?;
        let found = store.get(&key()).and_then(|bytes| decode(&bytes));
        let counter = match found {
            Some(_) => &self.counters.disk_hits,
            None => &self.counters.disk_misses,
        };
        counter.fetch_add(1, Relaxed);
        found
    }

    /// Write one record to the disk tier alone. Returns whether it was
    /// appended: `false` uncounted without a store, `false` and one
    /// [`TieredStats::disk_errors`] when the store refused it.
    pub fn disk_put(&self, key: impl FnOnce() -> Vec<u8>, value: &[u8]) -> bool {
        let Some(store) = self.disk.as_ref() else {
            return false;
        };
        let written = store.put(&key(), value).is_ok();
        let counter = match written {
            true => &self.counters.disk_writes,
            false => &self.counters.disk_errors,
        };
        counter.fetch_add(1, Relaxed);
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// SplitMix64: a seeded generator is all the model suite needs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// The naive reference: per shard a `Vec` in LRU order (front = next
    /// victim), and a `HashMap` standing in for the store.
    struct Model {
        shards: Vec<(usize, Vec<(String, String)>)>,
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

        fn shard(&mut self, key: &str) -> &mut (usize, Vec<(String, String)>) {
            let mut fnv = Fnv::new();
            key.hash(&mut fnv);
            let count = self.shards.len() as u64;
            &mut self.shards[(fnv.finish() % count) as usize]
        }

        /// Move `key` to the most-recently-used end; its value if present.
        fn refresh(&mut self, key: &str) -> Option<String> {
            let (_, lru) = self.shard(key);
            let at = lru.iter().position(|(k, _)| k == key)?;
            let entry = lru.remove(at);
            lru.push(entry.clone());
            Some(entry.1)
        }

        fn insert(&mut self, key: &str, value: &str) -> usize {
            let (capacity, lru) = self.shard(key);
            lru.push((key.to_string(), value.to_string()));
            let evictions = usize::from(lru.len() > *capacity);
            lru.drain(..evictions);
            self.stats.insertions += 1;
            self.stats.evictions += evictions;
            evictions
        }

        fn get(&mut self, key: &str) -> Option<Hit<String>> {
            if let Some(value) = self.refresh(key) {
                self.stats.hits += 1;
                return Some(Hit {
                    value,
                    tier: Tier::Memory,
                    evictions: 0,
                });
            }
            self.stats.misses += 1;
            let Some(value) = self.disk.as_ref()?.get(key).cloned() else {
                self.stats.disk_misses += 1;
                return None;
            };
            self.stats.disk_hits += 1;
            let evictions = self.insert(key, &value);
            Some(Hit {
                value,
                tier: Tier::Disk,
                evictions,
            })
        }

        fn put(&mut self, key: &str, value: &str) -> Put {
            if self.refresh(key).is_some() {
                return Put::default();
            }
            let evictions = self.insert(key, value);
            let written = match self.disk.as_mut() {
                Some(disk) => {
                    disk.insert(key.to_string(), value.to_string());
                    self.stats.disk_writes += 1;
                    true
                }
                None => false,
            };
            Put {
                inserted: true,
                evictions,
                written,
            }
        }

        fn remove(&mut self, key: &str) -> Removed {
            let (_, lru) = self.shard(key);
            let before = lru.len();
            lru.retain(|(k, _)| k != key);
            let memory = lru.len() < before;
            let disk = self.disk.as_mut().is_some_and(|d| d.remove(key).is_some());
            Removed { memory, disk }
        }
    }

    /// Random `get` / `put` / `remove` sequences must be indistinguishable
    /// from the reference: answers, tiers, every outcome and every counter.
    /// This one suite stands in for the per-cache LRU, capacity-bound,
    /// re-insert and shard-split unit tests the two caches used to carry.
    #[test]
    fn random_operations_match_the_reference_model() {
        for (round, capacity) in [1usize, 2, 5, 17, 64].into_iter().enumerate() {
            for with_store in [false, true] {
                let dir = temp_dir(&format!("model-{capacity}-{with_store}"));
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
                    let key = format!("key-{}", rng.below(keys));
                    let context = format!("capacity {capacity}, store {with_store}, step {step}");
                    match rng.below(8) {
                        0..=3 => assert_eq!(cache.get(&*key, "id"), model.get(&key), "{context}"),
                        4..=6 => {
                            let value = format!("{key}@{step}");
                            let put = cache.put(&*key, value.clone(), "id");
                            assert_eq!(put, model.put(&key, &value), "{context}");
                        }
                        _ => assert_eq!(cache.remove(&*key, "id"), model.remove(&key), "{context}"),
                    }
                    assert!(cache.len() <= capacity, "{context}");
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
        #[derive(PartialEq)]
        struct Colliding(&'static str);
        impl Hash for Colliding {
            fn hash<H: Hasher>(&self, _: &mut H) {}
        }
        impl CacheKey<String> for Colliding {
            fn equivalent(&self, key: &String) -> bool {
                self.0 == key
            }
            fn to_key(&self) -> String {
                self.0.to_string()
            }
            fn disk_key(&self, _: &str) -> Vec<u8> {
                self.0.as_bytes().to_vec()
            }
        }
        let cache = string_cache(8);
        assert_eq!(
            cache.put(&Colliding("a"), "1".to_string(), "id").evictions,
            0
        );
        assert_eq!(
            cache.put(&Colliding("b"), "2".to_string(), "id").evictions,
            1
        );
        assert_eq!(cache.get(&Colliding("a"), "id"), None);
        assert!(!cache.remove(&Colliding("a"), "id").memory);
        assert_eq!(
            cache.get(&Colliding("b"), "id").map(|hit| hit.value),
            Some("2".to_string())
        );
        assert_eq!((cache.len(), cache.stats().evictions), (1, 1));
        assert!(cache.remove(&Colliding("b"), "id").memory);
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
        assert!(cache.put("before", "1".to_string(), "id").written);
        std::fs::remove_dir_all(&dir).expect("remove the store directory");

        let put = cache.put("after", "2".to_string(), "id");
        assert!(put.inserted && !put.written);
        let removed = cache.remove("before", "id");
        assert!(removed.memory && !removed.disk, "the tombstone failed too");
        let stats = cache.stats();
        assert_eq!((stats.disk_writes, stats.disk_errors), (1, 2));
        let hit = cache.get("after", "id").expect("memory still answers");
        assert_eq!((hit.value.as_str(), hit.tier), ("2", Tier::Memory));
    }

    #[test]
    fn capacity_knob_values_parse_by_one_rule() {
        for (raw, expected) in [
            ("128", 128),
            (" 7 ", 7),
            ("0", 0),
            ("off", 0),
            ("OFF", 0),
            ("false", 0),
            ("00", 99),
            ("-3", 99),
            ("lots", 99),
            ("", 99),
        ] {
            assert_eq!(parse_capacity(raw, 99), expected, "{raw:?}");
        }
        assert_eq!(
            capacity_from_env("TIERED_TEST_KNOB_THAT_IS_NEVER_SET", 5),
            5
        );
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
