//! Batched, deduplicated dispatch of perception-operator model calls.
//!
//! CAESURA's cost model is dominated by LLM round trips: the perception
//! operators (VisualQA, TextQA, Image Select) conceptually issue one model
//! call per row, which the paper flags as the scaling bottleneck of
//! multi-modal plans. This module replaces that row-at-a-time call pattern
//! with a **gather → dedup → batch → scatter** pipeline:
//!
//! 1. **Gather** — the operator walks its input rows *in row order* and
//!    records one request per non-NULL row in a [`PerceptionBatch`]
//!    collector (NULL inputs are recorded as NULL slots and never reach the
//!    model). A request *borrows* the lake: documents and images are
//!    `Arc`-shared with the table column and the image store, and a step's
//!    constant question is one `Arc<str>` shared by all of its rows, so a
//!    row costs reference-count bumps, never a copy of its input.
//! 2. **Dedup** — requests with an identical `(input, question)` pair share
//!    one slot: Rotowire-style tables repeat documents and entities heavily
//!    (every game report appears once per participating team), so duplicate
//!    rows cost zero extra model calls. Backends answer each pair
//!    deterministically, so dedup can never change an answer. A row's request hash is **composed**, not
//!    computed from its bytes: a 64-bit finalizer mixes the input's and the
//!    question's [`caesura_store::keyed_hash`] with the modality, and each of
//!    those two parts is **hashed once** and reused by every row that shares
//!    it. An image's key hash is taken when the image is built
//!    ([`ImageObject`]); a VisualQA or Image Select step hashes its one
//!    question once; TextQA hashes each rendered question once and each
//!    distinct document allocation once per step. The index is one flat
//!    table from the request hash (not hashed again), pre-sized to the row
//!    count, to an index into the unique-request vector, and the hash of
//!    every unique request is kept beside it. The hash only finds a
//!    candidate; **identity is decided by comparing** the probe's modality,
//!    key and question with that unique request (two sides that are one
//!    allocation compare equal without reading their bytes), and a different
//!    pair under the same hash moves on to the next slot. Probing allocates
//!    nothing.
//! 3. **Cache probe** (optional) — when the session attaches a
//!    [`PerceptionCache`], every unique request is probed against it first,
//!    under the hash the gather computed (the cache's `get` and the put of a
//!    miss's answer both reuse it, so no byte of a document is hashed twice);
//!    hits resolve immediately and never reach the backend, so questions
//!    repeated across plan steps or across queries cost zero additional
//!    model calls (see [`PerceptionBatch::dispatch`] and the
//!    [`crate::cache`] module docs for why this cannot change an answer).
//! 4. **Batch + dispatch** — the remaining unique requests are split into chunks of
//!    [`BatchConfig::batch_size`] and handed to a [`PerceptionBackend`] batch
//!    by batch, fanned out over [`BatchConfig::threads`] scoped workers. A
//!    backend receives whole batches, so an LLM-backed implementation can
//!    serve each chunk with a single `complete_batch` round trip. The worker
//!    that answered a batch files its successful answers in the cache with
//!    one call, so with a disk tier attached a batch's new answers reach the
//!    store as **one group append** (one store lock, one `write(2)`) before
//!    the worker moves on; the group is the batch, and no other setting
//!    sizes it.
//! 5. **Scatter** — answers are mapped back onto the rows in row order. The
//!    output (values, NULL placeholders, and the first error in row order)
//!    is byte-identical to what the sequential row-at-a-time path produces;
//!    `tests/property_batch.rs` asserts this for every operator across batch
//!    sizes and thread counts.
//!
//! ## Knobs
//!
//! One [`BatchConfig`] value, passed to [`PerceptionBatch::dispatch`],
//! configures all of it; nothing is read from ambient state.
//!
//! * [`BatchConfig::batch_size`] — how many unique requests one backend
//!   dispatch carries, [`BatchConfig::DEFAULT_BATCH_SIZE`] by default.
//!   `batch_size = 1` is the degenerate configuration: one dispatch per
//!   unique request (still deduplicated), which `tests/suite_ledger.rs` runs
//!   both suites under beside the default.
//! * [`BatchConfig::threads`] — how many workers one dispatch fans its
//!   batches out over, hardware parallelism by default; `threads = 1`
//!   answers every batch on the calling thread.
//!
//! ## Saved-call accounting
//!
//! Every dispatch returns [`PerceptionCalls`]: input rows, NULL rows, the
//! `calls` that reached the backend, number of batches, the hits and misses
//! of each cache tier, and `saved_calls` — the model calls the dedup avoided
//! versus the row-at-a-time path (`rows - null_rows - unique_requests()`).
//! The unique request count is not stored: it is derived, as `calls` plus
//! the hits of both tiers ([`PerceptionCalls::unique_requests`]). The
//! executor accumulates these per query and hands each step's counts, as
//! the operator returned them, to the execution trace.

use crate::cache::{CacheScope, PerceptionCache};
use crate::error::{ModalError, ModalResult};
use crate::image::ImageObject;
use caesura_engine::{EngineError, Value};
use caesura_store::{keyed_hash, Hit, PrehashedMap, Tier};
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Configuration of perception dispatch: how many unique requests one
/// backend call carries, and how many workers the calls fan out over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of unique requests per backend dispatch (≥ 1).
    pub batch_size: usize,
    /// Worker threads one dispatch fans its batches out over. `1` answers
    /// every batch on the calling thread.
    pub threads: usize,
}

impl BatchConfig {
    /// Default batch size: large enough to amortize a round trip, small
    /// enough to keep several workers busy.
    pub const DEFAULT_BATCH_SIZE: usize = 32;

    /// A configuration with an explicit batch size (clamped to ≥ 1) and the
    /// default thread count.
    pub fn new(batch_size: usize) -> Self {
        BatchConfig {
            batch_size: batch_size.max(1),
            threads: BatchConfig::default().threads,
        }
    }
}

impl Default for BatchConfig {
    /// [`Self::DEFAULT_BATCH_SIZE`] requests per batch over hardware
    /// parallelism, which is read once per process: an executor is built per
    /// query, and asking the OS (cgroup files included) each time would cost
    /// every query.
    fn default() -> Self {
        static THREADS: OnceLock<usize> = OnceLock::new();
        BatchConfig {
            batch_size: Self::DEFAULT_BATCH_SIZE,
            threads: *THREADS
                .get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
        }
    }
}

/// Call accounting of one (or several, via [`PerceptionCalls::absorb`])
/// batched perception dispatches: what each operator returns, what the
/// executor accumulates per query, and what the execution trace records.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerceptionCalls {
    /// Input rows the operator walked (0 for invocation-granular calls such
    /// as the transform codegen compile, which is not a per-row operator).
    pub rows: usize,
    /// Rows whose input cell was NULL (answered NULL without a model call).
    pub null_rows: usize,
    /// Unique requests that reached the backend: the ones neither cache
    /// tier answered (cache hits never dispatch, so with a warm cache this
    /// can be 0).
    pub calls: usize,
    /// Backend dispatches actually performed: `ceil(calls / batch_size)` on
    /// success. On failure the short-circuit makes this a best-effort count
    /// — under parallel dispatch it can be anything from 1 to the full count
    /// depending on how many batches workers claimed before observing the
    /// cancellation (answers and errors stay deterministic; only this
    /// failure-path dispatch count varies).
    pub batches: usize,
    /// Model calls avoided by dedup versus the row-at-a-time path:
    /// `rows - null_rows - unique_requests()`.
    pub saved_calls: usize,
    /// Unique requests answered by the session's perception cache without
    /// reaching the backend (0 when no cache is attached).
    pub cache_hits: usize,
    /// Unique requests probed against a cache and not found (0 when no cache
    /// is attached; with a cache, `cache_hits + cache_misses ==
    /// unique_requests()`).
    pub cache_misses: usize,
    /// Cache entries evicted while storing this dispatch's answers (or while
    /// warming the memory tier from disk). Under parallel dispatch the exact
    /// count depends on worker interleaving (answers never do).
    pub cache_evictions: usize,
    /// Memory-tier misses answered by the cache's durable disk tier without
    /// reaching the backend (0 unless a disk tier is attached). A disk hit is
    /// also counted in `cache_misses` — the memory tier did miss.
    pub disk_hits: usize,
    /// Unique requests that missed both tiers (true cold misses; 0 unless a
    /// disk tier is attached, in which case `disk_hits + disk_misses ==
    /// cache_misses`).
    pub disk_misses: usize,
    /// Successful answers written through to the disk tier: records, not
    /// appends (a dispatch batch's new answers share one group append). A
    /// group whose append failed contributes none.
    pub disk_writes: usize,
}

impl PerceptionCalls {
    /// Accumulate another dispatch's counts into this one.
    pub fn absorb(&mut self, other: &PerceptionCalls) {
        self.rows += other.rows;
        self.null_rows += other.null_rows;
        self.calls += other.calls;
        self.batches += other.batches;
        self.saved_calls += other.saved_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_writes += other.disk_writes;
    }

    /// Unique `(input, question)` requests after dedup: those that reached
    /// the backend plus those either cache tier answered.
    pub fn unique_requests(&self) -> usize {
        self.calls + self.cache_hits + self.disk_hits
    }

    /// Count one probe of `cache`. A disk hit is a memory miss that the
    /// store answered; a miss of both tiers counts as a disk miss only when
    /// a store was there to be probed.
    fn count_probe(&mut self, cache: &PerceptionCache, hit: Option<&Hit<Value>>) {
        match hit {
            Some(hit) if hit.tier == Tier::Memory => self.cache_hits += 1,
            Some(hit) => {
                self.cache_misses += 1;
                self.disk_hits += 1;
                self.cache_evictions += hit.evictions;
            }
            None => {
                self.cache_misses += 1;
                self.disk_misses += usize::from(cache.has_disk());
            }
        }
    }

    /// Count the answers stored after a dispatch: the evictions they caused
    /// and how many were written through.
    fn count_puts(&mut self, evictions: usize, written: usize) {
        self.cache_evictions += evictions;
        self.disk_writes += written;
    }

    /// Render the stats for traces and observations.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} row(s) -> {} unique model call(s) in {} batch(es) ({} saved by dedup, {} NULL row(s))",
            self.rows,
            self.calls,
            self.batches,
            self.saved_calls,
            self.null_rows
        );
        if self.cache_hits > 0 || self.cache_misses > 0 {
            out.push_str(&format!(
                "; cache: {} hit(s), {} miss(es), {} eviction(s)",
                self.cache_hits, self.cache_misses, self.cache_evictions
            ));
        }
        if self.disk_hits > 0 || self.disk_misses > 0 || self.disk_writes > 0 {
            out.push_str(&format!(
                "; disk: {} hit(s), {} miss(es), {} write(s)",
                self.disk_hits, self.disk_misses, self.disk_writes
            ));
        }
        out
    }
}

/// The per-row input a perception request is asked about. Both variants
/// share their payload with the lake, so cloning an input copies nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum PerceptionInput {
    /// A full text document (TextQA), `Arc`-shared with the source column.
    Document(Arc<str>),
    /// An annotated image (VisualQA / Image Select), `Arc`-shared with the
    /// [`ImageStore`](crate::ImageStore) it was looked up in.
    Image(Arc<ImageObject>),
}

impl PerceptionInput {
    /// The dedup/cache identity of this input: the document text, or the
    /// image key (annotations are immutable per key within a store). This is
    /// the input half of the `(input, question)` pair both the dedup index
    /// and the [`PerceptionCache`] key on.
    pub fn cache_key(&self) -> &str {
        match self {
            PerceptionInput::Document(document) => document,
            PerceptionInput::Image(image) => image.key(),
        }
    }

    /// [`Self::cache_key`] as a shared `Arc<str>`: a reference-count bump on
    /// the document or on the image's own key.
    pub fn shared_key(&self) -> Arc<str> {
        match self {
            PerceptionInput::Document(document) => Arc::clone(document),
            PerceptionInput::Image(image) => Arc::clone(image.key()),
        }
    }

    /// [`text_hash`] of [`Self::cache_key`]; an image's was taken when it
    /// was built.
    fn key_hash(&self) -> u64 {
        match self {
            PerceptionInput::Document(document) => text_hash(document),
            PerceptionInput::Image(image) => image.key_hash(),
        }
    }

    /// This input's modality in the dedup keyspace: a document and an image
    /// are never the same request, whatever their key text.
    fn modality(&self) -> u8 {
        match self {
            PerceptionInput::Document(_) => DOCUMENT,
            PerceptionInput::Image(_) => IMAGE,
        }
    }
}

const DOCUMENT: u8 = 0;
const IMAGE: u8 = 1;

/// One unique `(input, question)` pair to be answered by a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionRequest {
    /// The document or image the question is about.
    pub input: PerceptionInput,
    /// The (already instantiated) question or description. A VisualQA or
    /// Image Select step shares one allocation across all of its requests.
    pub question: Arc<str>,
}

impl PerceptionRequest {
    /// The request's one hash, under which the dedup index files it and the
    /// [`PerceptionCache`] (after mixing in its scope) probes and stores it.
    /// Computed here from both parts, so a standalone cache call meets the
    /// entries a batch filed under the parts it hashed once per step.
    pub(crate) fn hash64(&self) -> u64 {
        let question_hash = text_hash(&self.question);
        request_hash(self.input.modality(), self.input.key_hash(), question_hash)
    }
}

/// What a model derives from a question alone, computed once per run of
/// requests that share one question `Arc` (a VisualQA or Image Select step
/// asks every row the same one) and afresh on any other request.
pub(crate) struct PerQuestion<'a, T> {
    last: Option<(&'a Arc<str>, T)>,
}

impl<'a, T> PerQuestion<'a, T> {
    pub(crate) fn new() -> Self {
        PerQuestion { last: None }
    }

    /// `derive(question)`, reused if `question` is the `Arc` asked last.
    pub(crate) fn get(&mut self, question: &'a Arc<str>, derive: impl FnOnce(&str) -> T) -> &T {
        if matches!(self.last, Some((asked, _)) if !Arc::ptr_eq(asked, question)) {
            self.last = None;
        }
        let (_, derived) = self
            .last
            .get_or_insert_with(|| (question, derive(question)));
        derived
    }
}

/// The keyed hash of one part of a request: an input key or a question.
pub(crate) fn text_hash(text: &str) -> u64 {
    keyed_hash(text)
}

/// A request's hash, composed from the [`text_hash`] of its input key and of
/// its question. Every bit is mixed, because the cache takes its shard from
/// the upper half and every index buckets by the lower bits.
fn request_hash(modality: u8, input_hash: u64, question_hash: u64) -> u64 {
    const MODALITY_SALT: [u64; 2] = [0x2545_f491_4f6c_dd1d, 0x9fb2_1c65_1e98_df25];
    mix64(input_hash ^ question_hash.rotate_left(32) ^ MODALITY_SALT[usize::from(modality)])
}

/// MurmurHash3's 64-bit finalizer: a bijection whose every output bit
/// depends on every input bit.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A [`PrehashedMap`] key naming `text`'s allocation: its mixed address.
/// The mix is a bijection, so two live allocations never share a key; the
/// caller keeps every allocation it keys alive for as long as the map.
pub(crate) fn allocation_key(text: &Arc<str>) -> u64 {
    mix64(Arc::as_ptr(text).cast::<u8>().addr() as u64)
}

/// Whether two strings are equal, without reading their bytes when both are
/// one allocation (same address and length).
pub(crate) fn same_text(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// A model that answers perception requests batch by batch.
///
/// The simulated models ([`TextQaModel`](crate::TextQaModel),
/// [`VisualQaModel`](crate::VisualQaModel),
/// [`ImageSelectModel`](crate::ImageSelectModel)) answer each request locally;
/// an LLM-backed implementation (see `caesura_llm`'s `PerceptionLlm`) renders
/// the whole batch into conversations and serves it with one
/// `complete_batch` round trip. Implementations must return exactly one
/// result per request, in request order, and must answer a given
/// `(input, question)` pair deterministically — the dedup layer reuses one
/// answer for every duplicate row.
pub trait PerceptionBackend: Sync {
    /// Answer every request of one batch, in order.
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>>;

    /// A stable version string identifying this backend's *answer function*:
    /// two backends share an identity exactly when they are guaranteed to
    /// answer every `(input, question)` pair identically.
    ///
    /// The durable cache tier namespaces its keys with this string, so a
    /// store written under one model configuration can never answer for
    /// another — implementations must fold in anything that changes answers
    /// (model name, answering rules, prompt format version). The default is
    /// the concrete type name, which is correct for stateless deterministic
    /// backends and conservatively safe otherwise (renaming a type only
    /// costs a cold start).
    fn identity(&self) -> String {
        std::any::type_name_of_val(self).to_string()
    }
}

/// Per-row slot recorded during the gather phase.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The row's input cell was NULL; no request is made.
    Null,
    /// The row's answer lives at this index of the unique-request vector.
    Unique(usize),
}

/// The request collector: gathers per-row requests, dedups them, dispatches
/// the unique ones in batches, and scatters answers back in row order.
#[derive(Debug, Default)]
pub struct PerceptionBatch {
    slots: Vec<Slot>,
    unique: Vec<PerceptionRequest>,
    /// [`PerceptionRequest::hash64`] of each unique request, index for index.
    hashes: Vec<u64>,
    /// Dedup index: request hash → index into `unique`. A slot only answers
    /// a probe that compares equal to the request it points at; a different
    /// pair with the same hash lives in the next free slot (`hash + 1`,
    /// `hash + 2`, …), so collisions cost a longer probe and never a shared
    /// answer. The hashes are keyed, which keeps crafted inputs from lining
    /// up.
    index: PrehashedMap<usize>,
}

impl PerceptionBatch {
    /// An empty collector.
    pub fn new() -> Self {
        PerceptionBatch::default()
    }

    /// A collector sized for `rows` rows: neither its vectors nor its dedup
    /// index grow while that many are gathered.
    pub fn with_capacity(rows: usize) -> Self {
        PerceptionBatch {
            slots: Vec::with_capacity(rows),
            unique: Vec::with_capacity(rows),
            hashes: Vec::with_capacity(rows),
            index: PrehashedMap::with_capacity_and_hasher(rows, Default::default()),
        }
    }

    /// Record a row whose input cell is NULL (answered NULL, no model call).
    pub fn push_null(&mut self) {
        self.slots.push(Slot::Null);
    }

    /// Record one row's question about a text document, deduplicating
    /// against every previously pushed row. The hashes are the [`text_hash`]
    /// of `document` and of `question`, which the caller computes once per
    /// distinct document and question. The `Arc`-shared document is never
    /// copied; a new `(document, question)` pair bumps its reference count
    /// and copies the (per-row) question once.
    pub(crate) fn push_document(
        &mut self,
        document: &Arc<str>,
        document_hash: u64,
        question: &str,
        question_hash: u64,
    ) {
        let hash = request_hash(DOCUMENT, document_hash, question_hash);
        self.file(hash, (DOCUMENT, document, question), || PerceptionRequest {
            input: PerceptionInput::Document(Arc::clone(document)),
            question: Arc::from(question),
        });
    }

    /// Record one row's question about an image, deduplicating by image key
    /// (annotations are immutable per key within a store). `question_hash`
    /// is the question's [`text_hash`], computed once per step; the image
    /// brings its own key hash. A new `(image, question)` pair bumps two
    /// reference counts: the image's and the question's, which a step shares
    /// across all of its rows.
    pub(crate) fn push_image(
        &mut self,
        image: &Arc<ImageObject>,
        question: &Arc<str>,
        question_hash: u64,
    ) {
        let hash = request_hash(IMAGE, image.key_hash(), question_hash);
        self.file(hash, (IMAGE, image.key(), question), || PerceptionRequest {
            input: PerceptionInput::Image(Arc::clone(image)),
            question: Arc::clone(question),
        });
    }

    /// Record one row's request, deduplicating identical `(input, question)`
    /// pairs against every previously pushed row. The probe borrows
    /// `request`, so a new pair is filed as a clone: two reference-count
    /// bumps.
    pub fn push(&mut self, request: PerceptionRequest) {
        let PerceptionRequest { input, question } = &request;
        let probe = (input.modality(), input.cache_key(), &**question);
        self.file(request.hash64(), probe, || request.clone());
    }

    /// Record one row whose `(modality, key, question)` probe hashes to
    /// `hash`: walk the dedup index from slot `hash` on to the unique request
    /// that *equals* the probe, or to the free slot where the request `build`
    /// makes (only for a genuinely new pair) is filed. One index probe per
    /// slot visited; allocates nothing else. The hash is a parameter so that
    /// tests can force collisions.
    fn file(
        &mut self,
        hash: u64,
        (modality, key, question): (u8, &str, &str),
        build: impl FnOnce() -> PerceptionRequest,
    ) {
        let mut slot = hash;
        let idx = loop {
            match self.index.entry(slot) {
                Entry::Occupied(filed) => {
                    let seen = &self.unique[*filed.get()];
                    if seen.input.modality() == modality
                        && same_text(seen.input.cache_key(), key)
                        && same_text(&seen.question, question)
                    {
                        break *filed.get();
                    }
                    slot = slot.wrapping_add(1);
                }
                Entry::Vacant(free) => {
                    free.insert(self.unique.len());
                    self.unique.push(build());
                    self.hashes.push(hash);
                    break self.unique.len() - 1;
                }
            }
        };
        self.slots.push(Slot::Unique(idx));
    }

    /// Number of rows gathered so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no row has been gathered yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of unique requests gathered so far.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Dispatch the unique requests to `backend` in batches of
    /// [`BatchConfig::batch_size`], fanned out over
    /// [`BatchConfig::threads`] workers, and scatter the answers back onto
    /// the rows.
    ///
    /// On success, returns one entry per gathered row, in row order: `None`
    /// for NULL rows, `Some(value)` otherwise (duplicates share a clone of
    /// the same answer). On failure, returns the error of the **first
    /// failing row in row order** — unique indices are assigned in
    /// first-seen row order, so the pool's earliest-failing-batch guarantee
    /// maps exactly onto it — reproducing the error behaviour of the
    /// sequential row-at-a-time path.
    ///
    /// Failures short-circuit (workers stop claiming further batches, the
    /// row-at-a-time path stopped at its first failing call too), so a
    /// remote backend is not billed for the rest of the table;
    /// [`PerceptionCalls::batches`] counts the dispatches actually performed.
    /// Stats are returned alongside the result — not inside it — so callers
    /// can account for the calls of failed dispatches too.
    ///
    /// With a session-scoped [`PerceptionCache`] attached, every unique
    /// request is probed first — hits resolve immediately and **never reach
    /// the backend** — and only the misses are dispatched in batches
    /// (preserving first-seen row order, so the first-error-in-row-order
    /// guarantee carries over: requests that error are never cached, hence
    /// always misses, and the miss subsequence preserves their relative
    /// order). Successful answers populate the cache on the way back,
    /// including the answers of a dispatch whose later batch failed — the
    /// row-at-a-time path paid for those calls too. Each batch's answers are
    /// filed as one group, so a disk tier appends one group per batch, and
    /// every record of the batch has reached `write(2)` before the dispatch
    /// returns. [`PerceptionCalls`] gains the hit/miss/eviction/write counts of
    /// this dispatch; with `cache = None` the probe is skipped and the bytes
    /// are those of the cache-less pipeline.
    pub fn dispatch(
        self,
        backend: &dyn PerceptionBackend,
        config: &BatchConfig,
        cache: Option<(&PerceptionCache, CacheScope)>,
    ) -> (ModalResult<Vec<Option<Value>>>, PerceptionCalls) {
        let PerceptionBatch {
            slots,
            unique,
            hashes,
            ..
        } = self;
        let rows = slots.len();
        let null_rows = slots.iter().filter(|s| matches!(s, Slot::Null)).count();
        let unique_count = unique.len();

        // Probe phase: resolve hits (from either tier of the cache), keep
        // misses in first-seen order. The backend's identity namespaces disk
        // keys only, so it is derived only when a probe can reach a disk tier.
        let identity = cache
            .filter(|(cache, _)| cache.has_disk())
            .map(|_| backend.identity());
        let identity = identity.as_deref().unwrap_or_default();
        let mut resolved: Vec<Option<Value>> = vec![None; unique_count];
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut miss_requests: Vec<PerceptionRequest> = Vec::new();
        let mut probed = PerceptionCalls::default();
        match cache {
            Some((cache, scope)) => {
                for (idx, request) in unique.into_iter().enumerate() {
                    let hit = cache.get_hashed(identity, scope, &request, hashes[idx]);
                    probed.count_probe(cache, hit.as_ref());
                    match hit {
                        Some(hit) => resolved[idx] = Some(hit.value),
                        None => {
                            miss_slots.push(idx);
                            miss_requests.push(request);
                        }
                    }
                }
            }
            None => {
                miss_slots.extend(0..unique_count);
                miss_requests = unique;
            }
        }

        // Dispatch phase: only the misses reach the backend.
        let dispatched = AtomicUsize::new(0);
        let evicted = AtomicUsize::new(0);
        let written = AtomicUsize::new(0);
        let result: ModalResult<Vec<Vec<Value>>> = if miss_requests.is_empty() {
            Ok(Vec::new())
        } else {
            try_map_batches(miss_requests.len(), config, |range| {
                dispatched.fetch_add(1, Ordering::Relaxed);
                let batch = &miss_requests[range.clone()];
                let answers = backend.answer_batch(batch);
                // A malformed backend response (e.g. a remote server
                // truncating a batch) degrades the query with an execution
                // error; it must not panic the worker pool.
                if answers.len() != batch.len() {
                    return Err(ModalError::Engine(EngineError::execution(format!(
                        "perception backend returned {} answer(s) for a batch of {} request(s)",
                        answers.len(),
                        batch.len()
                    ))));
                }
                if let Some((cache, scope)) = cache {
                    // Only successful answers are cached; errors are
                    // re-dispatched on every attempt, like the uncached path.
                    // The batch files them as one group: one store append.
                    let batch_hashes = miss_slots[range].iter().map(|&idx| hashes[idx]);
                    let answered = batch.iter().zip(batch_hashes).zip(&answers);
                    let successes = answered.filter_map(|((request, hash), answer)| {
                        Some((request, hash, answer.as_ref().ok()?.clone()))
                    });
                    let put = cache.put_answers(identity, scope, successes);
                    for (counter, count) in [(&evicted, put.evictions), (&written, put.written)] {
                        if count > 0 {
                            counter.fetch_add(count, Ordering::Relaxed);
                        }
                    }
                }
                // A backend failure keeps its type (asking again may cure
                // it); every other answer error reads as an execution error.
                answers
                    .into_iter()
                    .map(|answer| {
                        answer.map_err(|error| match error {
                            ModalError::Backend { .. } => error,
                            error => ModalError::Engine(EngineError::execution(error.to_string())),
                        })
                    })
                    .collect()
            })
        };
        let mut stats = PerceptionCalls {
            rows,
            null_rows,
            calls: miss_requests.len(),
            batches: dispatched.into_inner(),
            saved_calls: rows - null_rows - unique_count,
            ..probed
        };
        stats.count_puts(evicted.into_inner(), written.into_inner());
        let scattered = result.map(|chunks| {
            for (j, value) in chunks.into_iter().flatten().enumerate() {
                resolved[miss_slots[j]] = Some(value);
            }
            slots
                .iter()
                .map(|slot| match slot {
                    Slot::Null => None,
                    Slot::Unique(idx) => Some(
                        resolved[*idx]
                            .clone()
                            .expect("every unique request resolves to an answer"),
                    ),
                })
                .collect()
        });
        (scattered, stats)
    }
}

/// Split `0..len` into consecutive batches of at most `config.batch_size`
/// and map `f` over them on up to `config.threads` scoped workers, the
/// calling thread among them. Returns the results in batch order, or the
/// error of the earliest batch that failed — the error a sequential scan
/// reports.
///
/// Workers claim batches from a shared atomic cursor (fast workers take
/// more) and stop claiming once any batch fails, so a failure does not bill
/// the rest of the input. The earliest error is then recovered by walking
/// the batches in order on the calling thread, re-running only skipped ones
/// up to the first failure: never more work than a sequential scan that
/// stops there.
fn try_map_batches<R, E, F>(len: usize, config: &BatchConfig, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<R, E> + Sync,
{
    let step = config.batch_size.max(1);
    let batches: Vec<Range<usize>> = (0..len)
        .step_by(step)
        .map(|start| start..(start + step).min(len))
        .collect();
    if config.threads <= 1 || batches.len() <= 1 {
        return batches.into_iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<R, E>>>> =
        batches.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= batches.len() || failed.load(Ordering::Relaxed) {
            break;
        }
        // Each index is claimed by exactly one worker, so the per-slot lock
        // is uncontended.
        let result = f(batches[i].clone());
        failed.fetch_or(result.is_err(), Ordering::Relaxed);
        *slots[i].lock().expect("result slot lock poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..config.threads.min(batches.len()) {
            scope.spawn(work);
        }
        work();
    });
    let mut out = Vec::with_capacity(batches.len());
    for (batch, slot) in batches.into_iter().zip(slots) {
        match slot.into_inner().expect("result slot lock poisoned") {
            Some(result) => out.push(result?),
            None => out.push(f(batch)?),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that counts calls and answers with the question length.
    struct CountingBackend {
        calls: AtomicUsize,
        batches: AtomicUsize,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                calls: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
            }
        }
    }

    impl PerceptionBackend for CountingBackend {
        fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.calls.fetch_add(requests.len(), Ordering::Relaxed);
            requests
                .iter()
                .map(|r| Ok(Value::Int(r.question.len() as i64)))
                .collect()
        }
    }

    fn doc_request(doc: &str, question: &str) -> PerceptionRequest {
        PerceptionRequest {
            input: PerceptionInput::Document(doc.into()),
            question: question.into(),
        }
    }

    /// `BatchConfig { batch_size, threads }` spelled out.
    fn config(batch_size: usize, threads: usize) -> BatchConfig {
        BatchConfig {
            batch_size,
            threads,
        }
    }

    #[test]
    fn batch_config_clamps_and_reads_defaults() {
        assert_eq!(BatchConfig::new(0).batch_size, 1);
        assert_eq!(BatchConfig::new(7).batch_size, 7);
        assert_eq!(BatchConfig::new(7).threads, BatchConfig::default().threads);
        assert!(BatchConfig::default().threads >= 1);
    }

    #[test]
    fn batches_cover_the_input_exactly_once_in_order() {
        for threads in [1, 4] {
            let covered = try_map_batches(10, &config(3, threads), Ok::<_, ()>);
            assert_eq!(covered, Ok(vec![0..3, 3..6, 6..9, 9..10]));
            let exact = try_map_batches(6, &config(3, threads), Ok::<_, ()>);
            assert_eq!(exact, Ok(vec![0..3, 3..6]));
            let none = try_map_batches(0, &config(3, threads), Ok::<_, ()>);
            assert_eq!(none, Ok(vec![]));
        }
    }

    #[test]
    fn results_keep_batch_order_under_parallelism() {
        let sums = try_map_batches(17, &config(2, 4), |range| Ok::<usize, ()>(range.sum()));
        let expected: Vec<usize> = (0..17)
            .step_by(2)
            .map(|s| (s..17.min(s + 2)).sum())
            .collect();
        assert_eq!(sums, Ok(expected));
    }

    #[test]
    fn the_earliest_failing_batch_wins() {
        for threads in [1, 4] {
            let result = try_map_batches(10, &config(1, threads), |range| {
                if range.start >= 3 {
                    Err(format!("boom at {}", range.start))
                } else {
                    Ok(range.start)
                }
            });
            assert_eq!(result, Err("boom at 3".to_string()), "threads={threads}");

            // The first batch fails: later batches may be skipped, and are
            // re-run (in order) only up to the first failure.
            let executed = AtomicUsize::new(0);
            let result = try_map_batches(64, &config(1, threads), |range| {
                executed.fetch_add(1, Ordering::Relaxed);
                if range.start == 0 {
                    Err("first batch failed")
                } else {
                    Ok(range.start)
                }
            });
            assert_eq!(result, Err("first batch failed"), "threads={threads}");
            assert!(executed.load(Ordering::Relaxed) <= 64);
            if threads == 1 {
                assert_eq!(executed.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn one_thread_answers_every_batch_on_the_calling_thread() {
        /// Records the thread that answered each batch.
        struct Threads(Mutex<Vec<std::thread::ThreadId>>);
        impl PerceptionBackend for Threads {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                self.0.lock().unwrap().push(std::thread::current().id());
                requests.iter().map(|_| Ok(Value::Int(1))).collect()
            }
        }
        let mut batch = PerceptionBatch::new();
        for i in 0..8 {
            batch.push(doc_request(&format!("doc {i}"), "Q?"));
        }
        let backend = Threads(Mutex::new(Vec::new()));
        let (answers, stats) = batch.dispatch(&backend, &config(1, 1), None);
        assert_eq!(answers.unwrap().len(), 8);
        assert_eq!(stats.batches, 8);
        let answered_on = backend.0.into_inner().unwrap();
        assert_eq!(answered_on, vec![std::thread::current().id(); 8]);
    }

    #[test]
    fn duplicate_rows_share_one_request_and_answer() {
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push(doc_request("report A", "Who won?"));
        batch.push_null();
        batch.push(doc_request("report B", "Who won?"));
        batch.push(doc_request("report A", "Who won?"));
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.unique_len(), 2);

        let backend = CountingBackend::new();
        let (answers, stats) = batch.dispatch(&backend, &BatchConfig::new(8), None);
        let answers = answers.unwrap();
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2);
        assert_eq!(backend.batches.load(Ordering::Relaxed), 1);
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.null_rows, 1);
        assert_eq!(stats.unique_requests(), 2);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.saved_calls, 2);
        assert_eq!(answers.len(), 5);
        assert!(answers[2].is_none());
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[4]);
    }

    #[test]
    fn batch_size_controls_the_number_of_dispatches() {
        let mut batch = PerceptionBatch::new();
        for i in 0..10 {
            batch.push(doc_request(&format!("doc {i}"), "Q?"));
        }
        let backend = CountingBackend::new();
        let (_, stats) = batch.dispatch(&backend, &BatchConfig::new(3), None);
        assert_eq!(backend.batches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.unique_requests(), 10);
        assert_eq!(stats.saved_calls, 0);
    }

    #[test]
    fn empty_and_all_null_collectors_dispatch_nothing() {
        let backend = CountingBackend::new();
        let (answers, stats) =
            PerceptionBatch::new().dispatch(&backend, &BatchConfig::new(4), None);
        assert!(answers.unwrap().is_empty());
        assert_eq!(stats.batches, 0);

        let mut batch = PerceptionBatch::new();
        batch.push_null();
        batch.push_null();
        let (answers, stats) = batch.dispatch(&backend, &BatchConfig::new(4), None);
        assert_eq!(answers.unwrap(), vec![None, None]);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.null_rows, 2);
        assert_eq!(stats.batches, 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failing_requests_return_the_first_error() {
        struct FailingBackend;
        impl PerceptionBackend for FailingBackend {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        Err(crate::error::ModalError::UnanswerableQuestion {
                            model: "test".into(),
                            question: r.question.to_string(),
                            reason: "always fails".into(),
                        })
                    })
                    .collect()
            }
        }
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("doc", "Q?"));
        batch.push(doc_request("doc", "Q?"));
        let (answers, stats) = batch.dispatch(&FailingBackend, &BatchConfig::new(2), None);
        let err = answers.unwrap_err();
        assert!(err.to_string().contains("always fails"));
        assert_eq!(stats.unique_requests(), 1);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn backend_failures_keep_their_type_through_dispatch() {
        struct Unreachable;
        impl PerceptionBackend for Unreachable {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                let down = || ModalError::Backend {
                    model: "remote".into(),
                    message: "connection refused".into(),
                };
                requests.iter().map(|_| Err(down())).collect()
            }
        }
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("doc", "Q?"));
        let (answers, _) = batch.dispatch(&Unreachable, &BatchConfig::new(2), None);
        assert!(
            matches!(answers, Err(ModalError::Backend { .. })),
            "{answers:?}"
        );
    }

    #[test]
    fn failing_batches_short_circuit_later_dispatches() {
        /// Fails the request asking `Q0?`, answers everything else.
        struct FailFirst;
        impl PerceptionBackend for FailFirst {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        if &*r.question == "Q0?" {
                            Err(crate::error::ModalError::UnanswerableQuestion {
                                model: "test".into(),
                                question: r.question.to_string(),
                                reason: "scripted failure".into(),
                            })
                        } else {
                            Ok(Value::Int(1))
                        }
                    })
                    .collect()
            }
        }
        // One thread so skip behaviour is deterministic: the first batch
        // fails, the remaining four are never dispatched.
        let mut batch = PerceptionBatch::new();
        for i in 0..10 {
            batch.push(doc_request(&format!("doc {i}"), &format!("Q{i}?")));
        }
        let (answers, stats) = batch.dispatch(&FailFirst, &config(2, 1), None);
        let err = answers.unwrap_err();
        assert!(err.to_string().contains("scripted failure"));
        assert_eq!(stats.unique_requests(), 10);
        assert_eq!(stats.batches, 1, "later batches must be skipped");
    }

    #[test]
    fn stats_absorb_sums_every_count() {
        let mut total = PerceptionCalls::default();
        let a = PerceptionCalls {
            rows: 5,
            null_rows: 1,
            calls: 1,
            batches: 1,
            saved_calls: 1,
            cache_hits: 1,
            cache_misses: 2,
            cache_evictions: 1,
            disk_hits: 1,
            disk_misses: 1,
            disk_writes: 1,
        };
        let b = PerceptionCalls {
            rows: 2,
            null_rows: 0,
            calls: 2,
            batches: 1,
            saved_calls: 0,
            cache_hits: 0,
            cache_misses: 2,
            cache_evictions: 0,
            disk_hits: 0,
            disk_misses: 2,
            disk_writes: 2,
        };
        total.absorb(&a);
        total.absorb(&b);
        let doubled = PerceptionCalls {
            rows: 7,
            null_rows: 1,
            calls: 3,
            batches: 2,
            saved_calls: 1,
            cache_hits: 1,
            cache_misses: 4,
            cache_evictions: 1,
            disk_hits: 1,
            disk_misses: 3,
            disk_writes: 3,
        };
        assert_eq!(total, doubled);
        assert_eq!((a.unique_requests(), b.unique_requests()), (3, 2));
        assert_eq!(total.unique_requests(), 5);
        assert!(total
            .summary()
            .contains("7 row(s) -> 3 unique model call(s)"));
    }

    #[test]
    fn cached_dispatch_skips_the_backend_on_repeats() {
        let cache = PerceptionCache::with_capacity(16);
        let backend = CountingBackend::new();

        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push(doc_request("report B", "Who won?"));
        let (answers, stats) = batch.dispatch(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::TextQa)),
        );
        let first = answers.unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2);

        // A later "plan step" re-asking the same questions: zero new calls.
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push_null();
        batch.push(doc_request("report B", "Who won?"));
        let (answers, stats) = batch.dispatch(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::TextQa)),
        );
        let second = answers.unwrap();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.batches, 0, "hits must not dispatch");
        assert_eq!(stats.calls, 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2, "no new calls");
        assert_eq!(second[0], first[0]);
        assert!(second[1].is_none());
        assert_eq!(second[2], first[1]);

        // A different scope must not share the answers.
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        let (_, stats) = batch.dispatch(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::VisualQa)),
        );
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 3);
    }

    /// With a disk tier, each dispatch batch reaches the store as one group
    /// append: a cold step of N unique requests at batch size b writes N
    /// records in ceil(N / b) appends, whichever worker filed each batch, and
    /// repeating the step writes nothing.
    #[test]
    fn a_cold_step_appends_one_group_per_batch() {
        let (requests, batch_size) = (10, 4);
        for threads in [1, 2] {
            let mut dir = std::env::temp_dir();
            dir.push(format!("caesura-groups-{threads}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(caesura_store::CacheStore::open(&dir).expect("open store"));
            let mut cache = PerceptionCache::with_capacity(64);
            cache.attach_disk(Arc::clone(&store));
            let step = || {
                let mut batch = PerceptionBatch::new();
                for i in 0..requests {
                    batch.push(doc_request(&format!("doc {i}"), "Q?"));
                }
                let scope = Some((&cache, CacheScope::TextQa));
                let dispatch = config(batch_size, threads);
                let (answers, stats) = batch.dispatch(&CountingBackend::new(), &dispatch, scope);
                assert_eq!(answers.unwrap().len(), requests);
                stats
            };
            let cold = step();
            let after_cold = store.stats();
            assert_eq!(
                (cold.disk_writes, after_cold.live_records),
                (requests, requests)
            );
            let groups = requests.div_ceil(batch_size) as u64;
            assert_eq!(after_cold.appends, groups, "threads {threads}");

            let warm = step();
            assert_eq!((warm.cache_hits, warm.disk_writes), (requests, 0));
            assert_eq!(store.stats().appends, groups, "threads {threads}");
            drop((cache, store));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_requests_are_never_cached() {
        /// Fails requests about "bad", answers everything else with 1.
        struct FailBad;
        impl PerceptionBackend for FailBad {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        if r.input.cache_key() == "bad" {
                            Err(crate::error::ModalError::UnanswerableQuestion {
                                model: "test".into(),
                                question: r.question.to_string(),
                                reason: "scripted failure".into(),
                            })
                        } else {
                            Ok(Value::Int(1))
                        }
                    })
                    .collect()
            }
        }
        let cache = PerceptionCache::with_capacity(16);
        // One thread so the good batch deterministically precedes the bad one.
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("good", "Q?"));
        batch.push(doc_request("bad", "Q?"));
        let scope = Some((&cache, CacheScope::TextQa));
        let (answers, _) = batch.dispatch(&FailBad, &config(1, 1), scope);
        assert!(answers.is_err());
        let cached = |text: &str| {
            let request = PerceptionRequest {
                input: PerceptionInput::Document(text.into()),
                question: "Q?".into(),
            };
            let hit = cache.get(&FailBad.identity(), CacheScope::TextQa, &request);
            hit.map(|hit| hit.value)
        };
        // The successful answer of the failing dispatch is cached ...
        assert_eq!(cached("good"), Some(Value::Int(1)));
        // ... the failed one is not.
        assert_eq!(cached("bad"), None);
    }

    #[test]
    fn image_requests_dedup_by_image_key() {
        let img = Arc::new(ImageObject::new("img/1.png").with_object("sword", 2));
        let question: Arc<str> = "How many swords are depicted?".into();
        let mut batch = PerceptionBatch::new();
        for _ in 0..3 {
            batch.push_image(&img, &question, text_hash(&question));
        }
        assert_eq!(batch.unique_len(), 1);
        // The one request shares the image and the question with the caller.
        assert_eq!(Arc::strong_count(&img), 2);
        assert_eq!(Arc::strong_count(&question), 2);
    }

    #[test]
    fn modalities_never_share_dedup_slots() {
        // A document whose text equals an image key must not collide with
        // that image's request.
        let img = Arc::new(ImageObject::new("img/1.png"));
        let question: Arc<str> = "What is depicted?".into();
        let mut batch = PerceptionBatch::new();
        let (key, question_hash) = (text_hash("img/1.png"), text_hash(&question));
        batch.push_document(&Arc::from("img/1.png"), key, &question, question_hash);
        batch.push_image(&img, &question, question_hash);
        assert_eq!(batch.unique_len(), 2);
        // Nor do they share a cache entry.
        let cache = PerceptionCache::with_capacity(8);
        let scope = Some((&cache, CacheScope::VisualQa));
        let (_, stats) = batch.dispatch(&CountingBackend::new(), &BatchConfig::new(8), scope);
        assert_eq!((stats.cache_misses, cache.len()), (2, 2));
    }

    /// Whichever push gathers a request files it under the hash a standalone
    /// cache call computes for that request.
    #[test]
    fn every_push_files_its_request_under_hash64() {
        let img = Arc::new(ImageObject::new("img/1.png"));
        let question: Arc<str> = "How many swords are depicted?".into();
        let document: Arc<str> = "report A".into();
        let mut batch = PerceptionBatch::with_capacity(4);
        batch.push(doc_request("report B", "Who won?"));
        batch.push(PerceptionRequest {
            input: PerceptionInput::Image(Arc::clone(&img)),
            question: "Is a horse depicted?".into(),
        });
        batch.push_image(&img, &question, text_hash(&question));
        batch.push_document(
            &document,
            text_hash(&document),
            "Who won?",
            text_hash("Who won?"),
        );
        assert_eq!(batch.unique_len(), 4);
        for (idx, (request, &hash)) in batch.unique.iter().zip(&batch.hashes).enumerate() {
            assert_eq!(hash, request.hash64(), "{request:?}");
            assert_eq!(batch.index.get(&hash), Some(&idx), "{request:?}");
        }
    }

    /// The composed hash separates what its parts and the modality separate.
    #[test]
    fn request_hashes_mix_both_parts_and_the_modality() {
        let (a, b) = (text_hash("report A"), text_hash("Who won?"));
        let hashes = [
            request_hash(DOCUMENT, a, b),
            request_hash(DOCUMENT, b, a),
            request_hash(IMAGE, a, b),
            request_hash(DOCUMENT, a, a),
            request_hash(DOCUMENT, b, b),
        ];
        for (i, x) in hashes.iter().enumerate() {
            assert!(hashes[i + 1..].iter().all(|y| x != y), "{hashes:x?}");
            // Both halves carry entropy: the shard reads the upper one.
            assert!(x >> 32 != 0 && x & 0xffff_ffff != 0);
        }
    }

    #[test]
    fn colliding_hashes_never_share_an_answer() {
        /// Answers with `<modality>|<key>|<question>`.
        struct Echo;
        impl PerceptionBackend for Echo {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                let modality = |r: &PerceptionRequest| r.input.modality();
                requests
                    .iter()
                    .map(|r| format!("{}|{}|{}", modality(r), r.input.cache_key(), r.question))
                    .map(|answer| Ok(Value::str(answer)))
                    .collect()
            }
        }
        // Every pair is filed under the same injected hash: two different
        // (input, question) pairs, a document/image pair with equal key
        // text, and a repeat of each.
        let img = Arc::new(ImageObject::new("report A"));
        let rows = [
            (Some("report A"), "Who won?"),
            (Some("report B"), "Who won?"),
            (Some("report A"), "Who lost?"),
            (None, "Who won?"),
        ];
        let mut batch = PerceptionBatch::new();
        for (document, question) in rows.iter().chain(&rows) {
            let modality = if document.is_some() { DOCUMENT } else { IMAGE };
            let probe = (modality, document.unwrap_or(img.key()), *question);
            batch.file(7, probe, || PerceptionRequest {
                input: match document {
                    Some(text) => PerceptionInput::Document((*text).into()),
                    None => PerceptionInput::Image(Arc::clone(&img)),
                },
                question: (*question).into(),
            });
        }
        assert_eq!(batch.unique_len(), 4, "equal hashes, four identities");
        let (answers, stats) = batch.dispatch(&Echo, &BatchConfig::new(8), None);
        let answers: Vec<String> = answers
            .unwrap()
            .into_iter()
            .map(|answer| answer.expect("no NULL rows").to_string())
            .collect();
        let expected = [
            "0|report A|Who won?",
            "0|report B|Who won?",
            "0|report A|Who lost?",
            "1|report A|Who won?",
        ];
        assert_eq!(answers[..4], expected);
        assert_eq!(answers[4..], expected, "repeats find their own chain entry");
        assert_eq!((stats.unique_requests(), stats.saved_calls), (4, 4));
    }
}
