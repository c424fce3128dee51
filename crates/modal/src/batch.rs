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
//!    rows cost zero extra model calls. The dedup key is exactly the pair the
//!    simulated models derive their (deterministic) noise from, so dedup can
//!    never change an answer. Each row's `(modality, input key, question)`
//!    is hashed **once**, with the process-wide keyed hasher
//!    ([`caesura_store::keyed_hash`]); the index is one flat table from that
//!    hash (not hashed again) to an index into the unique-request vector,
//!    and the hash of every unique request is kept beside it. The hash only
//!    finds a candidate; **identity is decided by comparing** the probe's
//!    modality, key and question with that unique request, and a different
//!    pair under the same hash moves on to the next slot. Probing allocates
//!    nothing.
//! 3. **Cache probe** (optional) — when the session attaches a
//!    [`PerceptionCache`], every unique request is probed against it first,
//!    under the hash the gather computed (the cache's `get` and a miss's
//!    `put` both reuse it, so no byte of a document is hashed twice);
//!    hits resolve immediately and never reach the backend, so questions
//!    repeated across plan steps or across queries cost zero additional
//!    model calls (see [`PerceptionBatch::dispatch`] and the
//!    [`crate::cache`] module docs for why this cannot change an answer).
//! 4. **Batch + dispatch** — the remaining unique requests are split into chunks of
//!    [`BatchConfig::batch_size`] and handed to a [`PerceptionBackend`] batch
//!    by batch, fanned out across the worker pool
//!    ([`caesura_engine::parallel`], honouring the pinned
//!    [`ExecConfig::threads`](caesura_engine::ExecConfig) of the surrounding
//!    query). A backend receives whole batches, so an LLM-backed
//!    implementation can serve each chunk with a single `complete_batch`
//!    round trip.
//! 5. **Scatter** — answers are mapped back onto the rows in row order. The
//!    output (values, NULL placeholders, and the first error in row order)
//!    is byte-identical to what the sequential row-at-a-time path produces;
//!    `tests/property_batch.rs` asserts this for every operator across batch
//!    sizes and thread counts.
//!
//! ## Knobs
//!
//! * [`BatchConfig::batch_size`] — how many unique requests one backend
//!   dispatch carries. Defaults to the `CAESURA_LLM_BATCH` environment
//!   variable, or [`BatchConfig::DEFAULT_BATCH_SIZE`] when unset.
//!   `batch_size = 1` is the degenerate configuration: one dispatch per
//!   unique request (still deduplicated), which CI exercises alongside the
//!   default, mirroring the `CAESURA_THREADS=1` job.
//! * Worker threads come from the ambient
//!   [`parallel::exec_config()`](caesura_engine::parallel::exec_config), so
//!   the session's `ExecConfig` knob pins perception dispatch parallelism.
//!
//! ## Saved-call accounting
//!
//! Every dispatch returns [`BatchStats`]: input rows, NULL rows, unique
//! requests actually dispatched, number of batches, and `saved_calls` — the
//! model calls the dedup avoided versus the row-at-a-time path
//! (`rows - null_rows - unique_requests`). The executor accumulates these
//! per query and the session surfaces them in the execution trace.

use crate::cache::{CacheScope, PerceptionCache};
use crate::error::ModalResult;
use crate::image::ImageObject;
use caesura_engine::{parallel, EngineError, EngineResult, Value};
use caesura_store::{keyed_hash, Hit, PrehashedMap, Tier};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration of the perception-call batching layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of unique requests per backend dispatch (≥ 1).
    pub batch_size: usize,
}

impl BatchConfig {
    /// Default batch size when `CAESURA_LLM_BATCH` is unset: large enough to
    /// amortize a round trip, small enough to keep several workers busy.
    pub const DEFAULT_BATCH_SIZE: usize = 32;

    /// A configuration with an explicit batch size (clamped to ≥ 1).
    pub fn new(batch_size: usize) -> Self {
        BatchConfig {
            batch_size: batch_size.max(1),
        }
    }

    /// The configuration described by the environment: `CAESURA_LLM_BATCH`
    /// ([`Self::DEFAULT_BATCH_SIZE`] when unset or unparseable).
    pub fn from_env() -> Self {
        let batch_size = std::env::var("CAESURA_LLM_BATCH")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
            .unwrap_or(Self::DEFAULT_BATCH_SIZE);
        BatchConfig::new(batch_size)
    }
}

impl Default for BatchConfig {
    /// The environment-described configuration, read once per process (the
    /// same caching pattern as `parallel::exec_config`); use
    /// [`BatchConfig::from_env`] directly to re-read the environment.
    fn default() -> Self {
        static DEFAULT: OnceLock<BatchConfig> = OnceLock::new();
        *DEFAULT.get_or_init(BatchConfig::from_env)
    }
}

/// Call accounting of one (or several, via [`BatchStats::absorb`]) batched
/// perception dispatches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Input rows the operator walked (0 for invocation-granular calls such
    /// as the transform codegen compile, which is not a per-row operator).
    pub rows: usize,
    /// Rows whose input cell was NULL (answered NULL without a model call).
    pub null_rows: usize,
    /// Unique `(input, question)` requests dispatched to the backend.
    pub unique_requests: usize,
    /// Backend dispatches actually performed:
    /// `ceil(unique_requests / batch_size)` on success. On failure the
    /// short-circuit makes this a best-effort count — under parallel
    /// dispatch it can be anything from 1 to the full count depending on
    /// how many batches workers claimed before observing the cancellation
    /// (answers and errors stay deterministic; only this failure-path
    /// dispatch count varies).
    pub batches: usize,
    /// Model calls avoided by dedup versus the row-at-a-time path:
    /// `rows - null_rows - unique_requests`.
    pub saved_calls: usize,
    /// Unique requests answered by the session's perception cache without
    /// reaching the backend (0 when no cache is attached). The backend
    /// actually received `unique_requests - cache_hits` requests.
    pub cache_hits: usize,
    /// Unique requests probed against a cache and not found (0 when no cache
    /// is attached; with a cache, `cache_hits + cache_misses ==
    /// unique_requests`).
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
    /// Successful answers written through to the disk tier.
    pub disk_writes: usize,
}

impl BatchStats {
    /// Accumulate another dispatch's stats into this one.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.rows += other.rows;
        self.null_rows += other.null_rows;
        self.unique_requests += other.unique_requests;
        self.batches += other.batches;
        self.saved_calls += other.saved_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_writes += other.disk_writes;
    }

    /// The stats accumulated since `earlier` (field-wise difference; both
    /// must come from the same monotonically growing accumulator).
    pub fn since(&self, earlier: &BatchStats) -> BatchStats {
        BatchStats {
            rows: self.rows - earlier.rows,
            null_rows: self.null_rows - earlier.null_rows,
            unique_requests: self.unique_requests - earlier.unique_requests,
            batches: self.batches - earlier.batches,
            saved_calls: self.saved_calls - earlier.saved_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_misses: self.disk_misses - earlier.disk_misses,
            disk_writes: self.disk_writes - earlier.disk_writes,
        }
    }

    /// Requests that actually reached the backend: unique requests minus the
    /// hits of both cache tiers (equal to `unique_requests` when no cache is
    /// attached).
    pub fn dispatched_requests(&self) -> usize {
        self.unique_requests - self.cache_hits - self.disk_hits
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

    /// Fraction of cache probes answered by either tier (memory or disk),
    /// in `[0, 1]`; `0.0` when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            (self.cache_hits + self.disk_hits) as f64 / probes as f64
        }
    }

    /// Render the stats for traces and observations.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} row(s) -> {} unique model call(s) in {} batch(es) ({} saved by dedup, {} NULL row(s))",
            self.rows,
            self.dispatched_requests(),
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
            PerceptionInput::Image(image) => &image.key,
        }
    }

    /// [`Self::cache_key`] as a shared `Arc<str>`: a reference-count bump on
    /// the document or on the image's own key.
    pub fn shared_key(&self) -> Arc<str> {
        match self {
            PerceptionInput::Document(document) => Arc::clone(document),
            PerceptionInput::Image(image) => Arc::clone(&image.key),
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
    pub(crate) fn hash64(&self) -> u64 {
        request_hash(
            self.input.modality(),
            self.input.cache_key(),
            &self.question,
        )
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

/// [`keyed_hash`] of a request's identity.
fn request_hash(modality: u8, key: &str, question: &str) -> u64 {
    keyed_hash(&(modality, key, question))
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
    /// (model name, noise seed/rate, prompt format version). The default is
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

/// Where a pair the dedup index does not hold yet goes.
#[derive(Debug, Clone, Copy)]
struct Vacant {
    /// The free index slot its probe ended on.
    slot: u64,
    /// The pair's hash (the slot its probe started from).
    hash: u64,
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

    /// A collector with a row-capacity hint.
    pub fn with_capacity(rows: usize) -> Self {
        PerceptionBatch {
            slots: Vec::with_capacity(rows),
            ..PerceptionBatch::default()
        }
    }

    /// Record a row whose input cell is NULL (answered NULL, no model call).
    pub fn push_null(&mut self) {
        self.slots.push(Slot::Null);
    }

    /// Record one row's question about a text document, deduplicating
    /// against every previously pushed row. The `Arc`-shared document is
    /// never copied; a new `(document, question)` pair bumps its reference
    /// count and copies the (per-row) question once.
    pub fn push_document(&mut self, document: &Arc<str>, question: &str) {
        let found = self.find(DOCUMENT, document, question);
        self.record(found, || PerceptionRequest {
            input: PerceptionInput::Document(Arc::clone(document)),
            question: Arc::from(question),
        });
    }

    /// Record one row's question about an image, deduplicating by image key
    /// (annotations are immutable per key within a store). A new
    /// `(image, question)` pair bumps two reference counts: the image's and
    /// the question's, which a step shares across all of its rows.
    pub fn push_image(&mut self, image: &Arc<ImageObject>, question: &Arc<str>) {
        let found = self.find(IMAGE, &image.key, question);
        self.record(found, || PerceptionRequest {
            input: PerceptionInput::Image(Arc::clone(image)),
            question: Arc::clone(question),
        });
    }

    /// Record one row's request, deduplicating identical `(input, question)`
    /// pairs against every previously pushed row.
    pub fn push(&mut self, request: PerceptionRequest) {
        let PerceptionRequest { input, question } = &request;
        let found = self.find(input.modality(), input.cache_key(), question);
        self.record(found, || request);
    }

    /// [`Self::probe`] under the triple's [`request_hash`].
    fn find(&self, modality: u8, key: &str, question: &str) -> Result<usize, Vacant> {
        let hash = request_hash(modality, key, question);
        self.probe(hash, modality, key, question)
    }

    /// Walk the dedup index from slot `hash` on: `Ok` with the index of the
    /// unique request that *equals* the probe, or `Err` with the free slot a
    /// new pair goes to. Allocates nothing. The hash is a parameter so that
    /// tests can force collisions.
    fn probe(&self, hash: u64, modality: u8, key: &str, question: &str) -> Result<usize, Vacant> {
        let mut slot = hash;
        while let Some(&idx) = self.index.get(&slot) {
            let seen = &self.unique[idx];
            if seen.input.modality() == modality
                && seen.input.cache_key() == key
                && *seen.question == *question
            {
                return Ok(idx);
            }
            slot = slot.wrapping_add(1);
        }
        Err(Vacant { slot, hash })
    }

    /// Record one row given its [`Self::probe`]; `build` runs only for a
    /// genuinely new pair.
    fn record(&mut self, found: Result<usize, Vacant>, build: impl FnOnce() -> PerceptionRequest) {
        let idx = found.unwrap_or_else(|Vacant { slot, hash }| {
            self.index.insert(slot, self.unique.len());
            self.unique.push(build());
            self.hashes.push(hash);
            self.unique.len() - 1
        });
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
    /// [`BatchConfig::batch_size`], fanned out across the worker pool
    /// via [`parallel::try_map_morsels`] (one "morsel" = one batch), and
    /// scatter the answers back onto the rows.
    ///
    /// On success, returns one entry per gathered row, in row order: `None`
    /// for NULL rows, `Some(value)` otherwise (duplicates share a clone of
    /// the same answer). On failure, returns the error of the **first
    /// failing row in row order** — unique indices are assigned in
    /// first-seen row order, so `try_map_morsels`' earliest-failing-batch
    /// guarantee maps exactly onto it — reproducing the error behaviour of
    /// the sequential row-at-a-time path.
    ///
    /// Failures short-circuit (workers stop claiming further batches, the
    /// row-at-a-time path stopped at its first failing call too), so a
    /// remote backend is not billed for the rest of the table;
    /// [`BatchStats::batches`] counts the dispatches actually performed.
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
    /// row-at-a-time path paid for those calls too. [`BatchStats`] gains the
    /// hit/miss/eviction counts of this dispatch; with `cache = None` the
    /// probe is skipped and the bytes are those of the cache-less pipeline.
    pub fn dispatch(
        self,
        backend: &dyn PerceptionBackend,
        config: &BatchConfig,
        cache: Option<(&PerceptionCache, CacheScope)>,
    ) -> (EngineResult<Vec<Option<Value>>>, BatchStats) {
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
        let mut probed = BatchStats::default();
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
        let result: EngineResult<Vec<Vec<Value>>> = if miss_requests.is_empty() {
            Ok(Vec::new())
        } else {
            // One morsel = one batch of `batch_size` unique requests.
            let exec = parallel::exec_config();
            parallel::try_map_morsels(&exec, miss_requests.len(), config.batch_size, |range| {
                dispatched.fetch_add(1, Ordering::Relaxed);
                let batch = &miss_requests[range.clone()];
                let answers = backend.answer_batch(batch);
                // A malformed backend response (e.g. a remote server
                // truncating a batch) degrades the query with an execution
                // error; it must not panic the worker pool.
                if answers.len() != batch.len() {
                    return Err(EngineError::execution(format!(
                        "perception backend returned {} answer(s) for a batch of {} request(s)",
                        answers.len(),
                        batch.len()
                    )));
                }
                if let Some((cache, scope)) = cache {
                    // Only successful answers are cached; errors are
                    // re-dispatched on every attempt, like the uncached path.
                    let batch_hashes = miss_slots[range].iter().map(|&idx| hashes[idx]);
                    for ((request, hash), answer) in batch.iter().zip(batch_hashes).zip(&answers) {
                        if let Ok(value) = answer {
                            let put =
                                cache.put_hashed(identity, scope, request, hash, value.clone());
                            evicted.fetch_add(put.evictions, Ordering::Relaxed);
                            written.fetch_add(usize::from(put.written), Ordering::Relaxed);
                        }
                    }
                }
                answers
                    .into_iter()
                    .map(|a| a.map_err(|e| EngineError::execution(e.to_string())))
                    .collect()
            })
        };
        let mut stats = BatchStats {
            rows,
            null_rows,
            unique_requests: unique_count,
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

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::ExecConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    #[test]
    fn batch_config_clamps_and_reads_defaults() {
        assert_eq!(BatchConfig::new(0).batch_size, 1);
        assert_eq!(BatchConfig::new(7).batch_size, 7);
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
        assert_eq!(stats.unique_requests, 2);
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
        assert_eq!(stats.unique_requests, 10);
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
        assert_eq!(stats.unique_requests, 1);
        assert_eq!(stats.batches, 1);
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
        // Sequential config so skip behaviour is deterministic: the first
        // batch fails, the remaining four are never dispatched.
        parallel::with_config(ExecConfig::sequential(), || {
            let mut batch = PerceptionBatch::new();
            for i in 0..10 {
                batch.push(doc_request(&format!("doc {i}"), &format!("Q{i}?")));
            }
            let (answers, stats) = batch.dispatch(&FailFirst, &BatchConfig::new(2), None);
            let err = answers.unwrap_err();
            assert!(err.to_string().contains("scripted failure"));
            assert_eq!(stats.unique_requests, 10);
            assert_eq!(stats.batches, 1, "later batches must be skipped");
        });
    }

    #[test]
    fn stats_absorb_and_since_are_inverse() {
        let mut total = BatchStats::default();
        let a = BatchStats {
            rows: 5,
            null_rows: 1,
            unique_requests: 3,
            batches: 1,
            saved_calls: 1,
            cache_hits: 1,
            cache_misses: 2,
            cache_evictions: 1,
            disk_hits: 1,
            disk_misses: 1,
            disk_writes: 1,
        };
        let b = BatchStats {
            rows: 2,
            null_rows: 0,
            unique_requests: 2,
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
        let snapshot = total;
        total.absorb(&b);
        assert_eq!(total.since(&snapshot), b);
        assert_eq!(total.rows, 7);
        assert!(total.summary().contains("7 row(s)"));
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
        assert_eq!(stats.dispatched_requests(), 0);
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
        // Sequential so the good batch deterministically precedes the bad one.
        parallel::with_config(ExecConfig::sequential(), || {
            let mut batch = PerceptionBatch::new();
            batch.push(doc_request("good", "Q?"));
            batch.push(doc_request("bad", "Q?"));
            let (answers, _) = batch.dispatch(
                &FailBad,
                &BatchConfig::new(1),
                Some((&cache, CacheScope::TextQa)),
            );
            assert!(answers.is_err());
        });
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
            batch.push_image(&img, &question);
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
        let mut batch = PerceptionBatch::new();
        batch.push_document(&Arc::from("img/1.png"), "What is depicted?");
        batch.push_image(&img, &"What is depicted?".into());
        assert_eq!(batch.unique_len(), 2);
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
            let found = batch.probe(7, modality, document.unwrap_or(&img.key), question);
            batch.record(found, || PerceptionRequest {
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
        assert_eq!((stats.unique_requests, stats.saved_calls), (4, 4));
    }
}
