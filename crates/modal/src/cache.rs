//! Session-scoped perception answer cache.
//!
//! The batching layer ([`crate::batch`]) deduplicates identical
//! `(input, question)` perception requests *within* one operator invocation.
//! This module extends that collapse across plan steps and across queries: a
//! [`PerceptionCache`] owned by the session (and shared by every executor it
//! creates) remembers the answer of every successful perception call, so a
//! question re-asked by a later plan step — or by a back-to-back query over
//! the same lake — never reaches the
//! [`PerceptionBackend`](crate::batch::PerceptionBackend) again.
//!
//! ## Why caching cannot change an answer
//!
//! The cache key is the same modality-separated `(input, question)` identity
//! the dedup index uses, refined by a per-operator [`CacheScope`]:
//!
//! * [`PerceptionBackend`](crate::batch::PerceptionBackend) implementations are required to answer a given
//!   `(input, question)` pair deterministically (the dedup layer already
//!   reuses one answer for every duplicate row, and the simulated models
//!   derive their noise from exactly this pair). A cached answer is therefore
//!   provably the answer the model would have given.
//! * The scope keeps *different backends* from sharing answers: VisualQA and
//!   Image Select both ask about images, but route through different models —
//!   the same `(image, question)` pair may legitimately produce a typed count
//!   for one and a yes/no match for the other. Scoping restores the
//!   per-operator identity under which determinism is guaranteed.
//! * Errors are **never** cached: a failed request is re-dispatched on every
//!   attempt, exactly like the uncached path (and NULL-input rows never reach
//!   the cache at all — they are answered NULL before the batch layer).
//!
//! `tests/property_cache.rs` asserts byte-identical outputs versus the
//! uncached path across cache sizes (including tiny capacities that force
//! eviction), thread counts, and batch sizes.
//!
//! ## Where answers live
//!
//! In a [`TieredCache`] ([`caesura_store::tiered`] has the locking model and
//! the memory → disk probe path): at most [`CacheConfig::capacity`] entries of
//! sharded LRU memory over an optional durable store keyed by the answering
//! backend's identity. This module adds what is particular to perception: the
//! scope- and modality-separated key, the [`Value`] codec, and the disk-only
//! keyspace of compiled transforms.
//!
//! A probe never hashes: the batch layer hashes each unique request once while
//! gathering and hands that hash to `get` and to a miss's `put`, and the
//! scope is mixed in by XOR with a per-scope constant. A standalone
//! [`PerceptionCache::get`] / [`PerceptionCache::put`] computes the same
//! hash of the same request, so both routes meet on the same entries. As
//! everywhere in [`TieredCache`], the hash only finds a slot; the comparison of
//! scope, modality, input key and question decides identity.
//!
//! [`CacheConfig`] defaults to the `CAESURA_PERCEPTION_CACHE` environment
//! variable ([`caesura_store::capacity_from_env`]): `0` / `off` / `false`
//! means no cache at all — byte-for-byte the pre-cache behaviour. Sessions pin
//! the knob via `CaesuraConfig::perception_cache`.

use crate::batch::{PerceptionInput, PerceptionRequest};
use crate::transform::TransformProgram;
use caesura_engine::{DateValue, Schema, Value};
use caesura_store::{
    capacity_from_env, push_part, take_part, CacheKey, CacheStore, Hit, Put, TieredCache,
};
use std::sync::{Arc, OnceLock};

/// Lifetime counters of one [`PerceptionCache`]: `hits` are model calls
/// avoided, `misses` fell through to the disk tier or the backend.
pub use caesura_store::TieredStats as CacheStats;

/// Configuration of the session-scoped perception answer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached answers across all shards. `0` disables the
    /// cache entirely (the byte-for-byte pre-cache behaviour).
    pub capacity: usize,
}

impl CacheConfig {
    /// Entry capacity when `CAESURA_PERCEPTION_CACHE` is unset. Entries are
    /// small (the input key is `Arc`-shared with the table columns; the value
    /// is one extracted answer), so it is sized for whole-lake workloads.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A configuration with an explicit entry capacity (`0` = off).
    pub fn new(capacity: usize) -> Self {
        CacheConfig { capacity }
    }

    /// The disabled configuration: perception dispatch without any cache.
    pub fn off() -> Self {
        CacheConfig::new(0)
    }

    /// Whether this configuration creates a cache at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Build the cache this configuration describes (`None` when disabled).
    pub fn build(&self) -> Option<PerceptionCache> {
        (self.capacity > 0).then(|| PerceptionCache::with_capacity(self.capacity))
    }
}

impl Default for CacheConfig {
    /// What `CAESURA_PERCEPTION_CACHE` describes, read once per process.
    fn default() -> Self {
        static CAPACITY: OnceLock<usize> = OnceLock::new();
        let read = || capacity_from_env("CAESURA_PERCEPTION_CACHE", Self::DEFAULT_CAPACITY);
        CacheConfig::new(*CAPACITY.get_or_init(read))
    }
}

/// The per-operator namespace of a cache entry: each perception operator
/// routes through its own backend, and answers are only deterministic *per
/// backend* (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// TextQA answers about text documents.
    TextQa,
    /// VisualQA answers about images.
    VisualQa,
    /// Image Select match decisions about images.
    ImageSelect,
}

impl CacheScope {
    /// Stable name used in on-disk keys (never reuse a name for a different
    /// operator — the disk tier outlives any one process).
    fn disk_name(self) -> &'static str {
        match self {
            CacheScope::TextQa => "text_qa",
            CacheScope::VisualQa => "visual_qa",
            CacheScope::ImageSelect => "image_select",
        }
    }

    /// What a request's hash is XORed with to file it under this scope: one
    /// request asked of two operators lands in unrelated shards and slots.
    /// (Memory only, so the constants may change between builds.)
    fn salt(self) -> u64 {
        match self {
            CacheScope::TextQa => 0x9e37_79b9_7f4a_7c15,
            CacheScope::VisualQa => 0xbf58_476d_1ce4_e5b9,
            CacheScope::ImageSelect => 0x94d0_49bb_1331_11eb,
        }
    }
}

/// The owned key of one cached answer. Input and question are `Arc`-shared
/// with the request (a document with its table column, an image key with its
/// [`ImageObject`](crate::ImageObject)), so an insert copies neither.
#[derive(Debug)]
struct AnswerKey {
    scope: CacheScope,
    /// Modality of the input: a document whose text equals an image key is a
    /// different key, in memory as on disk.
    image: bool,
    input: Arc<str>,
    question: Arc<str>,
}

/// The borrowed form of an [`AnswerKey`]: probing allocates nothing and
/// hashes nothing.
struct AnswerProbe<'a> {
    scope: CacheScope,
    request: &'a PerceptionRequest,
    /// `request`'s [`PerceptionRequest::hash64`], computed by the gather (or
    /// by a standalone [`PerceptionCache::get`] / [`PerceptionCache::put`]).
    request_hash: u64,
}

impl AnswerProbe<'_> {
    fn image(&self) -> bool {
        matches!(self.request.input, PerceptionInput::Image(_))
    }
}

impl CacheKey<AnswerKey> for AnswerProbe<'_> {
    fn hash64(&self) -> u64 {
        self.request_hash ^ self.scope.salt()
    }

    fn equivalent(&self, key: &AnswerKey) -> bool {
        let PerceptionRequest { input, question } = self.request;
        (self.scope, self.image(), input.cache_key(), &**question)
            == (key.scope, key.image, &*key.input, &*key.question)
    }

    fn to_key(&self) -> AnswerKey {
        AnswerKey {
            scope: self.scope,
            image: self.image(),
            input: self.request.input.shared_key(),
            question: Arc::clone(&self.request.question),
        }
    }

    /// `(identity, scope, input key, question)` under the modality's tag.
    fn disk_key(&self, identity: &str) -> Vec<u8> {
        let PerceptionRequest { input, question } = self.request;
        let kind = if self.image() { b'i' } else { b'd' };
        let parts = [
            identity,
            self.scope.disk_name(),
            input.cache_key(),
            question,
        ];
        framed_key(parts, kind)
    }
}

/// Length-prefixed `parts` plus a one-byte keyspace tag, so no part can
/// masquerade as another and the document, image and transform keyspaces
/// never collide.
fn framed_key(parts: [&str; 4], kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + parts.iter().map(|p| p.len()).sum::<usize>());
    for part in parts {
        push_part(&mut out, part.as_bytes());
    }
    out.push(kind);
    out
}

/// A bounded map from scoped `(input, question)` pairs to the answers a
/// [`PerceptionBackend`](crate::batch::PerceptionBackend) gave them. See the
/// [module docs](self) for the correctness argument.
#[derive(Debug)]
pub struct PerceptionCache {
    tiers: TieredCache<AnswerKey, Value>,
}

impl PerceptionCache {
    /// A cache holding at most `capacity` answers (clamped to ≥ 1; use
    /// [`CacheConfig::build`] to express "off" as the absence of a cache).
    pub fn with_capacity(capacity: usize) -> Self {
        let tiers = TieredCache::new(capacity, encode_value, decode_value);
        PerceptionCache { tiers }
    }

    /// Attach a durable tier below the in-memory shards. Memory misses then
    /// probe the store (keyed by backend identity) before dispatching, and
    /// successful answers are written through.
    pub fn attach_disk(&mut self, store: Arc<CacheStore>) {
        self.tiers.attach_disk(store);
    }

    /// Whether a disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.tiers.has_disk()
    }

    /// The configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.tiers.capacity()
    }

    /// Number of answers in memory (a racing snapshot under concurrent use).
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether no answer is in memory.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Lifetime counters of both tiers.
    pub fn stats(&self) -> CacheStats {
        self.tiers.stats()
    }

    /// Look up the answer `scope`'s backend gave `request`, in memory and
    /// then on disk, reporting which tier answered.
    ///
    /// `identity` is the answering backend's version string
    /// ([`crate::batch::PerceptionBackend::identity`]): it namespaces every
    /// disk key, so a store written under one model configuration can never
    /// answer for another.
    pub fn get(
        &self,
        identity: &str,
        scope: CacheScope,
        request: &PerceptionRequest,
    ) -> Option<Hit<Value>> {
        self.get_hashed(identity, scope, request, request.hash64())
    }

    /// [`Self::get`] for a caller that already holds `request`'s
    /// [`PerceptionRequest::hash64`].
    pub(crate) fn get_hashed(
        &self,
        identity: &str,
        scope: CacheScope,
        request: &PerceptionRequest,
        request_hash: u64,
    ) -> Option<Hit<Value>> {
        let probe = AnswerProbe {
            scope,
            request,
            request_hash,
        };
        self.tiers.get(&probe, identity)
    }

    /// Store (and write through) the answer `scope`'s backend gave `request`.
    /// Callers must only put **successful** answers: errors are never
    /// cached, so failed requests are re-dispatched on every attempt exactly
    /// like the uncached path.
    pub fn put(
        &self,
        identity: &str,
        scope: CacheScope,
        request: &PerceptionRequest,
        value: Value,
    ) -> Put {
        self.put_hashed(identity, scope, request, request.hash64(), value)
    }

    /// [`Self::put`] for a caller that already holds `request`'s
    /// [`PerceptionRequest::hash64`].
    pub(crate) fn put_hashed(
        &self,
        identity: &str,
        scope: CacheScope,
        request: &PerceptionRequest,
        request_hash: u64,
        value: Value,
    ) -> Put {
        let probe = AnswerProbe {
            scope,
            request,
            request_hash,
        };
        self.tiers.put(&probe, value, identity)
    }

    /// Probe the disk tier for a compiled transform program — the Python-UDF
    /// substitute's "description → code" call, which stands in for a GPT-4
    /// codegen round trip in the paper.
    ///
    /// The codegen has **no memory tier**: compiling is deterministic and
    /// in-process, so only a restart has a (simulated) codegen call to save.
    /// Without a store this returns `None` and counts nothing; with one, a
    /// program that does not decode and validate against `schema` is a disk
    /// miss and the caller compiles fresh.
    pub fn transform_disk_get(
        &self,
        identity: &str,
        description: &str,
        schema: &Schema,
    ) -> Option<TransformProgram> {
        let key = || transform_disk_key(identity, description, schema);
        let decode = |bytes: &[u8]| TransformProgram::from_cache_bytes(bytes, schema);
        self.tiers.disk_get(key, decode)
    }

    /// Write a freshly compiled transform program through to the disk tier
    /// (no-op without one), returning whether a record was appended. The
    /// write is **round-trip validated**: a program is only persisted when
    /// decoding its own encoding reproduces it exactly, so a cached compile
    /// can never behave differently from a fresh one.
    pub fn transform_disk_put(
        &self,
        identity: &str,
        description: &str,
        schema: &Schema,
        program: &TransformProgram,
    ) -> bool {
        let bytes = program.cache_bytes();
        let key = || transform_disk_key(identity, description, schema);
        TransformProgram::from_cache_bytes(&bytes, schema).as_ref() == Some(program)
            && self.tiers.disk_put(key, &bytes)
    }
}

/// The on-disk key of a cached transform compile: `(identity, "transform",
/// description, schema fingerprint)` under the keyspace tag `t`.
fn transform_disk_key(identity: &str, description: &str, schema: &Schema) -> Vec<u8> {
    let schema = schema.to_string();
    framed_key([identity, "transform", description, &schema], b't')
}

/// Serialize a [`Value`] for the disk tier: a tag byte plus a fixed or
/// length-prefixed payload. (No serde in this workspace — the codec is
/// hand-rolled and pinned by round-trip and golden tests.)
fn encode_value(value: &Value) -> Vec<u8> {
    let text = |tag: u8, s: &str| {
        let mut out = vec![tag];
        push_part(&mut out, s.as_bytes());
        out
    };
    match value {
        Value::Null => vec![0],
        Value::Bool(b) => vec![1, u8::from(*b)],
        Value::Int(i) => [&[2][..], &i.to_le_bytes()].concat(),
        Value::Float(f) => [&[3][..], &f.to_bits().to_le_bytes()].concat(),
        Value::Str(s) => text(4, s),
        Value::Date(d) => [&[5][..], &d.year.to_le_bytes(), &[d.month, d.day]].concat(),
        Value::Image(s) => text(6, s),
        Value::Text(s) => text(7, s),
    }
}

/// Inverse of [`encode_value`]. `None` on any malformed payload (the disk
/// tier then treats the entry as a miss — cold start, never a wrong answer).
fn decode_value(bytes: &[u8]) -> Option<Value> {
    let (&tag, mut rest) = bytes.split_first()?;
    Some(match (tag, rest) {
        (0, []) => Value::Null,
        (1, [b @ (0 | 1)]) => Value::Bool(*b == 1),
        (2, _) => Value::Int(i64::from_le_bytes(rest.try_into().ok()?)),
        (3, _) => Value::Float(f64::from_bits(u64::from_le_bytes(rest.try_into().ok()?))),
        (5, [y0, y1, y2, y3, month, day]) => {
            let year = i32::from_le_bytes([*y0, *y1, *y2, *y3]);
            Value::Date(DateValue::new(year, *month, *day))
        }
        (4 | 6 | 7, _) => {
            let text = take_part(&mut rest).filter(|_| rest.is_empty())?;
            let text: Arc<str> = std::str::from_utf8(text).ok()?.into();
            match tag {
                4 => Value::Str(text),
                6 => Value::Image(text),
                _ => Value::Text(text),
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ask(input: PerceptionInput, question: &str) -> PerceptionRequest {
        let question = question.into();
        PerceptionRequest { input, question }
    }

    /// A document asked "Q?".
    fn doc(text: &str) -> PerceptionRequest {
        ask(PerceptionInput::Document(text.into()), "Q?")
    }

    /// An image asked "Q?".
    fn image(key: &str) -> PerceptionRequest {
        let picture = Arc::new(crate::ImageObject::new(key));
        ask(PerceptionInput::Image(picture), "Q?")
    }

    /// The value a probe found, whichever tier held it.
    fn found(
        cache: &PerceptionCache,
        scope: CacheScope,
        request: &PerceptionRequest,
    ) -> Option<Value> {
        cache.get("model-a", scope, request).map(|hit| hit.value)
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<CacheStore>) {
        let mut dir = std::env::temp_dir();
        dir.push(format!("caesura-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CacheStore::open(&dir).expect("open store"));
        (dir, store)
    }

    #[test]
    fn hits_return_the_stored_answer() {
        let cache = PerceptionCache::with_capacity(8);
        let input = doc("report A");
        assert_eq!(found(&cache, CacheScope::TextQa, &input), None);
        cache.put("model-a", CacheScope::TextQa, &input, Value::str("Heat"));
        assert_eq!(
            found(&cache, CacheScope::TextQa, &input),
            Some(Value::str("Heat"))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scopes_and_modalities_never_share_entries() {
        let cache = PerceptionCache::with_capacity(8);
        let picture = image("img/1.png");
        cache.put("model-a", CacheScope::VisualQa, &picture, Value::Int(1));
        // A document whose text equals the image key, asked the same
        // question — under another scope, and under the same one.
        assert_eq!(found(&cache, CacheScope::TextQa, &doc("img/1.png")), None);
        assert_eq!(found(&cache, CacheScope::VisualQa, &doc("img/1.png")), None);
        // The same image under a different operator scope is a different key.
        assert_eq!(found(&cache, CacheScope::ImageSelect, &picture), None);
        assert_eq!(
            found(&cache, CacheScope::VisualQa, &picture),
            Some(Value::Int(1))
        );
    }

    /// The hash a batch carries from its gather and the one a standalone
    /// `get` / `put` computes are the same function of the request.
    #[test]
    fn batches_and_standalone_calls_meet_on_the_same_entries() {
        use crate::batch::{BatchConfig, PerceptionBackend, PerceptionBatch};
        struct Seven;
        impl PerceptionBackend for Seven {
            fn answer_batch(
                &self,
                requests: &[PerceptionRequest],
            ) -> Vec<crate::ModalResult<Value>> {
                requests.iter().map(|_| Ok(Value::Int(7))).collect()
            }
        }
        let cache = PerceptionCache::with_capacity(64);
        let dispatch = |request: &PerceptionRequest, scope| {
            let mut batch = PerceptionBatch::new();
            batch.push(request.clone());
            let (answers, stats) =
                batch.dispatch(&Seven, &BatchConfig::new(8), Some((&cache, scope)));
            (answers.unwrap(), stats.cache_hits)
        };
        // Equal key text, two modalities: two entries, each found both ways.
        for (request, scope) in [
            (doc("img/1.png"), CacheScope::TextQa),
            (image("img/1.png"), CacheScope::VisualQa),
        ] {
            // Put by a batch, hit standalone.
            assert_eq!(dispatch(&request, scope), (vec![Some(Value::Int(7))], 0));
            assert_eq!(found(&cache, scope, &request), Some(Value::Int(7)));
            // Put standalone, hit by a batch (the backend would answer 7).
            let other = ask(request.input.clone(), "Another?");
            assert!(cache.put("model-a", scope, &other, Value::Int(1)).inserted);
            assert_eq!(dispatch(&other, scope), (vec![Some(Value::Int(1))], 1));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(found(&cache, CacheScope::VisualQa, &doc("img/1.png")), None);
    }

    #[test]
    fn value_codec_round_trips_every_variant() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("hello \u{1f}\u{F8FF} world"),
            Value::Date(DateValue::new(1889, 3, 0)),
            Value::image("img/1.png"),
            Value::text("a longer document\nwith lines"),
        ];
        for value in values {
            let encoded = encode_value(&value);
            let decoded = decode_value(&encoded).expect("decode");
            // NaN != NaN under PartialEq; compare the encodings instead.
            assert_eq!(encode_value(&decoded), encoded, "{value:?}");
        }
        assert_eq!(decode_value(&[]), None);
        assert_eq!(decode_value(&[99]), None);
        assert_eq!(decode_value(&[4, 10, 0, 0, 0, b'x']), None, "short string");
        assert_eq!(decode_value(&[4, 1, 0, 0, 0, b'x', b'y']), None, "trailing");
    }

    #[test]
    fn disk_tier_round_trips_and_isolates_identities() {
        let (dir, store) = temp_store("disk");
        let fresh = || {
            let mut cache = PerceptionCache::with_capacity(8);
            assert!(!cache.has_disk());
            cache.attach_disk(Arc::clone(&store));
            assert!(cache.has_disk());
            cache
        };
        let input = doc("report A");
        let writer = fresh();
        let put = writer.put("model-a", CacheScope::TextQa, &input, Value::Int(7));
        assert!(put.written);

        // A restarted cache answers from disk, then from the warmed memory.
        let cache = fresh();
        let tiers: Vec<_> = (0..2)
            .map(|_| cache.get("model-a", CacheScope::TextQa, &input))
            .map(|hit| hit.map(|hit| (hit.value, hit.tier)))
            .collect();
        assert_eq!(
            tiers,
            [
                Some((Value::Int(7), caesura_store::Tier::Disk)),
                Some((Value::Int(7), caesura_store::Tier::Memory))
            ]
        );
        // Nor does a different scope or modality under the same identity.
        assert_eq!(
            found(&cache, CacheScope::VisualQa, &image("report A")),
            None
        );
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.disk_misses), (1, 1));
        assert_eq!(writer.stats().disk_writes, 1);
        // A session answering with a different backend never sees the entry.
        let other = fresh();
        assert_eq!(other.get("model-b", CacheScope::TextQa, &input), None);
        assert_eq!(other.stats().disk_misses, 1);
        drop(other);
        drop((cache, writer, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// The exact bytes PR 10 wrote for these entries. A store directory
    /// outlives any one build: if this test fails, change the backend
    /// identity strings (key change) or add a new value tag (value change)
    /// on purpose instead of editing the literals.
    #[test]
    fn golden_disk_bytes_of_answers_and_a_transform() {
        let (dir, store) = temp_store("golden");
        let mut cache = PerceptionCache::with_capacity(8);
        cache.attach_disk(Arc::clone(&store));
        let picture = |question| ask(image("img/1.png").input, question);
        let answers = [
            (
                (CacheScope::TextQa, ask(doc("report A").input, "Who won?")),
                Value::str("Heat"),
                "070000006d6f64656c2d6107000000746578745f7161080000007265706f727420410800000057\
                 686f20776f6e3f64",
                "040400000048656174",
            ),
            (
                (CacheScope::VisualQa, picture("How many swords?")),
                Value::Int(2),
                "070000006d6f64656c2d610900000076697375616c5f716109000000696d672f312e706e671000\
                 0000486f77206d616e792073776f7264733f69",
                "020200000000000000",
            ),
            (
                (CacheScope::ImageSelect, picture("a sword")),
                Value::Bool(true),
                "070000006d6f64656c2d610c000000696d6167655f73656c65637409000000696d672f312e706e\
                 6707000000612073776f726469",
                "0101",
            ),
        ];
        for ((scope, request), value, key, bytes) in answers {
            assert!(cache.put("model-a", scope, &request, value).written);
            assert_eq!(store.get(&unhex(key)), Some(unhex(bytes)), "{scope:?}");
        }
        let schema = Schema::from_pairs(&[("points", caesura_engine::DataType::Int)]);
        let program = crate::transform::TransformCodegen::new()
            .compile("points * 2", &schema)
            .expect("compiles");
        assert!(cache.transform_disk_put("codegen:transform:v1", "points * 2", &schema, &program));
        let key =
            "14000000636f646567656e3a7472616e73666f726d3a7631090000007472616e73666f726d0a0000\
                   00706f696e7473202a2032110000005b27706f696e7473273a2027696e74275d74";
        let bytes =
            "0c00000028706f696e7473202a203229726f775b6e65775d203d2028706f696e7473202a203229";
        assert_eq!(store.get(&unhex(key)), Some(unhex(bytes)));
        assert_eq!(store.len(), 4);
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
